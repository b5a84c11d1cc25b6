"""VERIFIED by construction: a presentation is VERIFIED because verify_hopf
passed on it, or because dual, dual_coopposite or reduce_presentation derived
it from a VERIFIED one.

The error paths that once rested on re-verifying a derived presentation are
pinned first: theta, lift_rmatrix (through dualcop_state) and the CLI `dual`
still refuse an unverified input that fails the axioms with
InternalAxiomFailure, and still take an unverified copy of a valid one.
verify_hopf of every derived presentation of the corpus and of the golden
lifts is the oracle of the inherited mark; a wrong inverse of the dual
antipode is refused by dual_coopposite's one check, S* (S*)^-1 = I.
"""

import json
import os

import numpy as np
import pytest

from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import tensorcalc as tc
from hopflift.acceptance import full_corpus
from hopflift.cli import main
from hopflift.coeffring import make_ring
from hopflift.errors import InternalAxiomFailure

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lift_golden.json")
# the lifts behind lift_golden.json: (generator name, p, m, precision), each with three strategies
GOLDEN_BASES = (("D4", 3, 1, 4), ("D4.dual", 5, 1, 4), ("Q8", 7, 1, 4), ("C2xC2", 5, 1, 4), ("S3", 7, 1, 10), ("C3", 2, 2, 4))
GOLDEN_STRATEGIES = ("canonical", "perturbed:3", "perturbed:17")
CORPUS = full_corpus(max_double_dim=16)
F5 = make_ring(5)
C2 = hc.generate("C2", F5)
R1 = tc.MultiMap(F5, 0, 2, 2, 2, np.array([3, 3, 3, 2], dtype=np.int64).reshape(4, 1, 1))


def unverified(H):
    """H's tensors, not marked VERIFIED."""
    return hc.HopfPresentation(H.ring, H.dim, *H.tensors())


def with_wrong_mul(H):
    """H, unverified, with one coefficient of m moved by 1; the antipode stays
    invertible."""
    coeffs = H.mul.coeffs.copy()
    coeffs[0, -1, 0] = (coeffs[0, -1, 0] + 1) % H.ring.q
    mul = tc.MultiMap(H.ring, 2, 1, H.dim, H.dim, coeffs)
    return hc.HopfPresentation(H.ring, H.dim, mul, H.unit, H.comul, H.counit, H.antipode)


# ---------------------------------------------------------------------------
# pinned error paths


def test_theta_refuses_an_unverified_presentation_that_fails_the_axioms():
    broken = with_wrong_mul(C2)
    assert not hc.verify_hopf(broken).all_pass
    with pytest.raises(InternalAxiomFailure, match=r"^presentation fails axioms: \["):
        hc.theta(broken, R1)


def test_lift_rmatrix_refuses_a_current_that_fails_the_axioms():
    good = lf.lift(C2, 3, "perturbed:5")
    state = lf.LiftState(C2, 3, with_wrong_mul(good.current), [])
    assert not hc.verify_hopf(state.current).all_pass
    with pytest.raises(InternalAxiomFailure, match=r"^presentation fails axioms: \["):
        lf.lift_rmatrix(C2, R1, state)


def test_theta_and_lift_rmatrix_take_an_unverified_copy_of_a_valid_presentation():
    th = hc.theta(unverified(C2), R1)
    assert th.verified and th.map == hc.theta(C2, R1).map
    good = lf.lift(C2, 3, "perturbed:5")
    out = lf.lift_rmatrix(C2, R1, lf.LiftState(C2, 3, unverified(good.current), []))
    assert out.quasitriangular and out.R == lf.lift_rmatrix(C2, R1, good).R


def test_cli_dual_refuses_a_presentation_that_fails_the_axioms(tmp_path, capsys):
    """broken.json of the README: C2/F5 with S(g) = 1."""
    assert main(["gen", "C2", "--p", "5", "-o", str(tmp_path / "c2.json")]) == 0
    obj = json.loads((tmp_path / "c2.json").read_text())
    obj["S"][1] = [[1], [0]]
    (tmp_path / "broken.json").write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["dual", str(tmp_path / "broken.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "InternalAxiomFailure: presentation fails axioms: ['antipode_left', 'antipode_right']\n"


# ---------------------------------------------------------------------------
# the inherited mark against its oracle


def assert_verified_by_oracle(H):
    assert H.verified and hc.verify_hopf(H).all_pass


@pytest.mark.parametrize("H", [H for _, H in CORPUS], ids=[label for label, _ in CORPUS])
def test_duals_of_the_corpus_inherit_verified(H):
    assert H.verified
    assert_verified_by_oracle(hc.dual(H))
    assert_verified_by_oracle(hc.dual_coopposite(H))


def golden_label(name, p, m, n):
    return f"{name}/F{p**m} p^{n}"


def test_the_golden_lifts_are_those_of_lift_golden_json():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(golden_label(*b) for b in GOLDEN_BASES)
    assert all(sorted(k for k in v if not k.startswith("reconcile")) == sorted(GOLDEN_STRATEGIES) for v in golden.values())


@pytest.mark.parametrize("name,p,m,n", GOLDEN_BASES, ids=[golden_label(*b) for b in GOLDEN_BASES])
def test_derivations_of_the_golden_lifts_inherit_verified(name, p, m, n):
    base = hc.generate(name, make_ring(p, 1, m))
    for strategy in GOLDEN_STRATEGIES:
        state = lf.lift(base, n, strategy)
        assert state.current.verified
        assert_verified_by_oracle(hc.dual(state.current))
        assert_verified_by_oracle(hc.dual_coopposite(state.current))
        for k in range(1, n):
            reduced = hc.reduce_presentation(state.current, base.ring.at_precision(k))
            assert_verified_by_oracle(reduced)
        dstate = lf.dualcop_state(state)
        assert_verified_by_oracle(dstate.base)
        assert_verified_by_oracle(dstate.current)


def test_derivations_of_an_unverified_presentation_are_unverified():
    """Nothing is checked on the way: the dual of a presentation that fails
    the axioms is returned, unmarked, as that of a valid unverified one."""
    for H in (unverified(C2), with_wrong_mul(C2)):
        assert not hc.dual(H).verified and hc.dual(hc.dual(H)) == H
        assert not hc.dual_coopposite(H).verified
        assert not hc.reduce_presentation(H, F5).verified
    assert hc.verify_hopf(hc.dual(unverified(C2))).all_pass


def test_verified_marks_once():
    assert hc.verified(C2) is C2
    marked = hc.verified(unverified(C2))
    assert marked.verified and marked == C2
    with pytest.raises(InternalAxiomFailure, match=r"^presentation fails axioms: \["):
        hc.verified(with_wrong_mul(C2))
    with pytest.raises(InternalAxiomFailure, match=r"^presentation fails axioms: \["):
        hc.make_presentation(F5, *with_wrong_mul(C2).tensors())


@pytest.mark.parametrize("H", [C2, hc.generate("S3", make_ring(7)), lf.lift(C2, 3, "perturbed:5").current],
                         ids=["C2/F5", "S3/F7", "C2/Z125"])
def test_dual_coopposite_refuses_a_wrong_inverse(monkeypatch, H):
    real = hc.matrix_inverse

    def wrong(desc, a):
        out = real(desc, a).copy()
        out[0, 0, 0] = (out[0, 0, 0] + 1) % desc.q
        return out

    monkeypatch.setattr(hc, "matrix_inverse", wrong)
    for source in (H, unverified(H)):
        with pytest.raises(InternalAxiomFailure):
            hc.dual_coopposite(source)


def test_lift_rmatrix_runs_no_verify_hopf_on_verified_inputs(monkeypatch):
    D, RD = hc.drinfeld_double(C2)
    cases = [(C2, R1, lf.lift(C2, 3, "perturbed:5")), (D, RD, lf.lift(D, 3, "perturbed:3"))]
    calls = []
    real = hc.verify_hopf
    monkeypatch.setattr(hc, "verify_hopf", lambda H: calls.append(H) or real(H))
    for H, R, state in cases:
        assert lf.lift_rmatrix(H, R, state).quasitriangular
    assert calls == []
