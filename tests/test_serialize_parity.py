"""Codec parity: error paths and messages, and canonical bytes.

serialize reads a well-formed structure table in one whole-array pass and
walks it element by element only to report a malformed one.  These tests pin
both halves to the element-by-element reader it replaced:

- every malformed input below raises SchemaViolation with the recorded path
  and message;
- the canonical JSON of presentations, R-matrices and morphisms over F_4 and
  GR(5^2, 2) has the recorded digest, and reading it back writes the same
  bytes.

serialize_parity.json was recorded with the element-by-element reader by
``PYTHONPATH=src python tests/test_serialize_parity.py --record``.
"""

import copy
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from hopflift import hopfcore as hc
from hopflift import serialize as ser
from hopflift import tensorcalc as tc
from hopflift.coeffring import make_ring
from hopflift.errors import SchemaViolation

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serialize_parity.json")

RINGS = {"F4": (2, 1, 2), "GR25_2": (5, 2, 2)}


def _ring(tag):
    return make_ring(*RINGS[tag])


def _inclusion(ring):
    """The Hopf morphism C2 -> C4, g -> h^2."""
    inc = np.zeros((4, 2, ring.m), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    C2, C4 = hc.generate("C2", ring), hc.generate("C4", ring)
    return hc.make_morphism(C2, C4, tc.MultiMap(ring, 1, 1, 2, 4, inc))


def _rmatrix(ring, dim):
    """A MultiMap 1 -> A (x) A with every coefficient slot used (the reader does
    not check quasitriangularity)."""
    vals = np.arange(dim * dim * ring.m, dtype=np.int64).reshape(dim * dim, 1, ring.m) % ring.q
    return tc.MultiMap(ring, 0, 2, dim, dim, vals)


def _documents(tag):
    """(name, canonical JSON object, reader) for the codec's table kinds."""
    ring = _ring(tag)
    C2 = hc.generate("C2", ring)
    return (
        ("presentation C2", ser.presentation_to_json(C2), ser.presentation_from_json),
        ("rmatrix C2", ser.rmatrix_to_json(C2, _rmatrix(ring, 2)), ser.rmatrix_from_json),
        ("morphism C2->C4", ser.morphism_to_json(_inclusion(ring)), ser.morphism_from_json),
    )


# (document, key path of the table, list levels of the table including the
# coefficient list of one element)
TABLES = (
    ("presentation C2", ("m",), 4),
    ("presentation C2", ("unit",), 2),
    ("presentation C2", ("delta",), 4),
    ("presentation C2", ("counit",), 2),
    ("presentation C2", ("S",), 3),
    ("rmatrix C2", ("R", "coeffs"), 2),
    ("morphism C2->C4", ("map",), 3),
)


POP = object()  # the mutation that drops the last entry of a list


def _mutations(q, levels):
    """(name, index path, new value or POP) for one table: bad coefficient
    values at the last slot, and a short list or a non-list at each level."""
    last = (-1,) * levels
    for name, value in (("bool", True), ("float", 1.0), ("negative", -1), ("q", q), ("2^70", 2**70)):
        yield f"coefficient {name}", last, value
    for level in range(levels):
        yield f"level {level} short", last[:level], POP
        yield f"level {level} not a list", last[:level], {"x": 1}


def _apply(doc, keys, index, action):
    out = copy.deepcopy(doc)
    parent, key = out, keys[0]
    for k in keys[1:] + index:
        parent, key = parent[key], k
    if action is POP:
        parent[key].pop()
    else:
        parent[key] = action
    return out


def malformed_cases():
    """{case id: (reader, malformed object)} over both rings."""
    cases = {}
    for tag in RINGS:
        q = _ring(tag).q
        docs = {name: (obj, reader) for name, obj, reader in _documents(tag)}
        for doc_name, keys, levels in TABLES:
            obj, reader = docs[doc_name]
            for name, index, action in _mutations(q, levels):
                case = f"{tag} {doc_name} {'.'.join(keys)} {name}"
                cases[case] = (reader, _apply(obj, keys, index, action))
    return cases


def schema_error(reader, obj):
    with pytest.raises(SchemaViolation) as err:
        reader(obj)
    return [err.value.path, err.value.message]


LARGER = ("S3", "D4.dual")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_digests():
    out = {}
    for tag in RINGS:
        for name, obj, _ in _documents(tag):
            out[f"{tag} {name}"] = _sha(ser.dumps(obj))
        for name in LARGER:
            out[f"{tag} presentation {name}"] = _sha(ser.dumps(ser.presentation_to_json(hc.generate(name, _ring(tag)))))
    return out


def _recorded():
    with open(RECORD) as fh:
        return json.load(fh)


CASES = malformed_cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_path_and_message(case):
    reader, obj = CASES[case]
    assert schema_error(reader, obj) == _recorded()["errors"][case]


def test_every_recorded_case_runs():
    assert sorted(CASES) == sorted(_recorded()["errors"])


@pytest.mark.parametrize("tag", sorted(RINGS))
def test_canonical_bytes_and_roundtrip(tag):
    digests = _recorded()["digests"]
    for name, obj, reader in _documents(tag):
        text = ser.dumps(obj)
        assert _sha(text) == digests[f"{tag} {name}"]
        back = reader(ser.loads(text))
        if isinstance(back, hc.HopfPresentation):
            again = ser.presentation_to_json(back)
        elif isinstance(back, hc.HopfMorphism):
            again = ser.morphism_to_json(back)
        else:
            again = ser.rmatrix_to_json(hc.generate("C2", _ring(tag)), back)
        assert ser.dumps(again) == text


@pytest.mark.parametrize("tag", sorted(RINGS))
def test_larger_presentations_roundtrip(tag):
    ring = _ring(tag)
    for name in LARGER:
        H = hc.generate(name, ring)
        text = ser.dumps(ser.presentation_to_json(H))
        assert _sha(text) == _recorded()["digests"][f"{tag} presentation {name}"]
        back = ser.presentation_from_json(ser.loads(text))
        assert back == H and back.verified
        assert ser.dumps(ser.presentation_to_json(back)) == text


def _record():
    errors = {}
    for case, (reader, obj) in CASES.items():
        try:
            reader(obj)
        except SchemaViolation as exc:
            errors[case] = [exc.path, exc.message]
        else:
            raise SystemExit(f"{case}: no SchemaViolation")
    with open(RECORD, "w") as fh:
        json.dump({"errors": dict(sorted(errors.items())), "digests": canonical_digests()}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    else:
        raise SystemExit("usage: test_serialize_parity.py --record")
