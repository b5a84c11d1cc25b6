"""Golden digests of lift states and reconcile maps.

Every change to the lifting pipeline must leave its outputs byte-identical:
the canonical lift JSON (transcript included, wall-clock seconds dropped) of a
canonical and two perturbed lifts per base, and the reconcile map from the
canonical lift to each perturbed one.  The digests in lift_golden.json were
recorded with ``PYTHONPATH=src python tests/test_lift_golden.py --record``.
"""

import hashlib
import json
import os
import sys

import pytest

from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift.coeffring import make_ring

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lift_golden.json")

# (generator name, p, m, precision)
BASES = (
    ("D4", 3, 1, 4),
    ("D4.dual", 5, 1, 4),
    ("Q8", 7, 1, 4),
    ("C2xC2", 5, 1, 4),
    ("S3", 7, 1, 10),
    ("C3", 2, 2, 4),
)
STRATEGIES = ("canonical", "perturbed:3", "perturbed:17")


def _label(name, p, m, n):
    return f"{name}/F{p**m} p^{n}"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def lift_digest(state):
    obj = ser.liftstate_to_json(state)
    obj["transcript"] = [{k: v for k, v in rec.items() if k != "seconds"} for rec in obj["transcript"]]
    return _sha(ser.dumps(obj))


def base_digests(name, p, m, n):
    """{strategy: lift digest} and {"reconcile <strategy>": map digest}."""
    base = hc.generate(name, make_ring(p, 1, m))
    states = {s: lf.lift(base, n, s) for s in STRATEGIES}
    out = {s: lift_digest(state) for s, state in states.items()}
    for s in STRATEGIES[1:]:
        eta = lf.reconcile(states["canonical"], states[s])
        out[f"reconcile {s}"] = _sha(ser.dumps(ser.multimap_to_json(eta)))
    return out


@pytest.mark.parametrize("case", BASES, ids=[_label(*c) for c in BASES])
def test_lift_outputs_match_golden(case):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert base_digests(*case) == golden[_label(*case)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_lift_golden.py --record")
    digests = {_label(*c): base_digests(*c) for c in BASES}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
