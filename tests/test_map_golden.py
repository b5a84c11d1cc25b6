"""Golden digests of lifted morphisms and lifted R-matrices.

Every change to the map-lifting loop must leave its outputs byte-identical:
the canonical JSON of lift_morphism on an inclusion, a projection and an
identity between perturbed lifts, and of lift_rmatrix on a triangular R of
C2/F5 and on the canonical R of D(C2).  The digests in map_golden.json were
recorded with ``PYTHONPATH=src python tests/test_map_golden.py --record``.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift import tensorcalc as tc
from hopflift.coeffring import make_ring

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "map_golden.json")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _c2_c4_maps():
    F5 = make_ring(5)
    C2, C4 = hc.generate("C2", F5), hc.generate("C4", F5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    proj = np.zeros((2, 4, 1), dtype=np.int64)
    for k in range(4):
        proj[k % 2, k, 0] = 1
    phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
    psi = hc.make_morphism(C4, C2, tc.MultiMap(F5, 1, 1, 4, 2, proj))
    return C2, C4, phi, psi


def _morphism_digest(out):
    return _sha(ser.dumps(ser.morphism_to_json(out)))


def _rmatrix_digest(state, out):
    return _sha(ser.dumps(ser.rmatrix_to_json(state.current, out.R)))


def inclusion_c2_c4():
    C2, C4, phi, _ = _c2_c4_maps()
    return _morphism_digest(lf.lift_morphism(phi, lf.lift(C2, 3, "perturbed:3"), lf.lift(C4, 3, "perturbed:4")))


def projection_c4_c2():
    C2, C4, _, psi = _c2_c4_maps()
    return _morphism_digest(lf.lift_morphism(psi, lf.lift(C4, 3, "perturbed:4"), lf.lift(C2, 3, "perturbed:3")))


def identity_d4():
    D4 = hc.generate("D4", make_ring(3))
    a, b = lf.lift(D4, 4, "perturbed:3"), lf.lift(D4, 4, "perturbed:17")
    return _morphism_digest(lf.lift_morphism(hc.identity_morphism(D4), a, b))


def rmatrix_c2_r1():
    F5 = make_ring(5)
    C2 = hc.generate("C2", F5)
    R1 = tc.MultiMap(F5, 0, 2, 2, 2, np.array([3, 3, 3, 2], dtype=np.int64).reshape(4, 1, 1))
    state = lf.lift(C2, 3, "perturbed:5")
    return _rmatrix_digest(state, lf.lift_rmatrix(C2, R1, state))


def rmatrix_double_c2():
    D, RD = hc.drinfeld_double(hc.generate("C2", make_ring(5)))
    state = lf.lift(D, 3, "perturbed:3")
    return _rmatrix_digest(state, lf.lift_rmatrix(D, RD, state))


CASES = {
    "lift_morphism C2->C4 inclusion, perturbed:3 -> perturbed:4, p^3": inclusion_c2_c4,
    "lift_morphism C4->C2 projection, perturbed:4 -> perturbed:3, p^3": projection_c4_c2,
    "lift_morphism identity D4/F3, perturbed:3 -> perturbed:17, p^4": identity_d4,
    "lift_rmatrix C2/F5 R1, perturbed:5, p^3": rmatrix_c2_r1,
    "lift_rmatrix D(C2)/F5 canonical R, perturbed:3, p^3": rmatrix_double_c2,
}


@pytest.mark.parametrize("label", sorted(CASES))
def test_lifted_maps_match_golden(label):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert CASES[label]() == golden[label]


def test_golden_defects_contract_to_the_dense_solution(monkeypatch):
    # every defect the golden cases solve, of degree 1 (the map lifts) and 2
    # (their lifts): the contraction's answer is solve_coboundary's, bit for bit
    from hopflift import cohomology as coh

    defects = []
    real = coh._contract_obstruction
    monkeypatch.setattr(coh, "_contract_obstruction", lambda z: defects.append(z) or real(z))
    for fn in CASES.values():
        fn()
    assert sum(z.degree == 1 for z in defects) >= len(CASES) and {z.degree for z in defects} == {1, 2}
    for z in defects:
        got, want = coh.vec_cochain(real(z)), coh.vec_cochain(coh.solve_coboundary(z))
        assert got.dtype == want.dtype and np.array_equal(got, want)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_map_golden.py --record")
    digests = {label: fn() for label, fn in CASES.items()}
    with open(GOLDEN, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
