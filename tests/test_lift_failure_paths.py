"""Failure paths of reconcile and lift_morphism on a state that is not a lift
of its base: the exception types the library raises and the CLI reports."""

import pytest

from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift import tensorcalc as tc
from hopflift.cli import main
from hopflift.coeffring import make_ring
from hopflift.errors import InternalAxiomFailure, NotDivisible

F5 = make_ring(5)
C2 = hc.generate("C2", F5)
# C2/F5 again, with the group identity as the second basis vector
C2_SWAPPED = hc.group_algebra(F5, [[1, 0], [0, 1]])


def _states():
    """A lift of C2 to p^3, and a state claiming C2 as its base whose current
    lifts the swapped presentation instead, so it does not reduce to C2."""
    good = lf.lift(C2, 3, "perturbed:3")
    bad = lf.LiftState(C2, 3, lf.lift(C2_SWAPPED, 3, "perturbed:5").current, [])
    assert C2_SWAPPED != C2
    assert hc.reduce_presentation(bad.current, F5) != C2
    return good, bad


def test_reconcile_refuses_a_state_that_does_not_reduce_to_its_base():
    good, bad = _states()
    with pytest.raises(InternalAxiomFailure):
        lf.reconcile(good, bad)
    with pytest.raises(InternalAxiomFailure):
        lf.reconcile(bad, good)


def test_lift_identity_refuses_a_state_that_does_not_reduce_to_its_base():
    good, bad = _states()
    with pytest.raises(NotDivisible):
        lf.lift_morphism(hc.identity_morphism(C2), good, bad)
    with pytest.raises(NotDivisible):
        lf.lift_morphism(hc.identity_morphism(C2), bad, good)


def test_reconcile_checks_the_antipodes():
    """A state whose antipode alone is moved by p: the identity intertwines
    the products, coproducts, units and counits, but not the antipodes."""
    good = lf.lift(C2, 3, "perturbed:3")
    cur = good.current
    moved = tc.MultiMap(cur.ring, 1, 1, 2, 2, (cur.antipode.coeffs + F5.p) % cur.ring.q)
    bad = lf.LiftState(C2, 3, hc.HopfPresentation(cur.ring, 2, cur.mul, cur.unit, cur.comul, cur.counit, moved), [])
    with pytest.raises(InternalAxiomFailure):
        lf.reconcile(good, bad)


def test_cli_reconcile_refuses_a_state_that_does_not_reduce_to_its_base(tmp_path, capsys):
    good, bad = _states()
    paths = []
    for name, state in (("good.json", good), ("bad.json", bad)):
        path = tmp_path / name
        path.write_text(ser.dumps(ser.liftstate_to_json(state)))
        paths.append(str(path))
    for argv in (paths, paths[::-1]):
        out_file = tmp_path / "eta.json"
        code = main(["reconcile", *argv, "-o", str(out_file)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("InternalAxiomFailure: ")
        assert captured.out == "" and not out_file.exists()
