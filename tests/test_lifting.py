import sys

import numpy as np
import pytest

from hopflift import _arrays as ra
from hopflift import coeffring as cr
from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import tensorcalc as tc
from hopflift._linalg import FieldSolver
from hopflift.errors import CocycleUnsolvable, DifferentBaseOrPrecision, NotACocycle, NotSemisimpleOrCosemisimple

F5 = cr.make_ring(5)
F7 = cr.make_ring(7)
C2 = hc.generate("C2", F5)
C3_7 = hc.generate("C3", F7)


def r_matrix(ring, dim, entries):
    arr = np.array(entries, dtype=np.int64).reshape(dim * dim, 1)[:, :, None]
    return tc.MultiMap(ring, 0, 2, dim, dim, arr % ring.q)


R0 = r_matrix(F5, 2, [1, 0, 0, 0])
R1 = r_matrix(F5, 2, [3, 3, 3, 2])


class TestInitialLift:
    def test_canonical_is_digit_lift(self):
        mul, comul = lf.initial_lift(C2, "canonical")
        assert mul.ring.q == 25
        assert np.array_equal(mul.coeffs, C2.mul.coeffs)

    def test_perturbed_differs_by_multiples_of_p(self):
        mul, comul = lf.initial_lift(C2, "perturbed:1")
        cm, cc = lf.initial_lift(C2, "canonical")
        assert not np.any((mul.coeffs - cm.coeffs) % 5)
        assert not np.any((comul.coeffs - cc.coeffs) % 5)

    def test_rejects_non_semisimple(self):
        with pytest.raises(NotSemisimpleOrCosemisimple):
            lf.initial_lift(hc.generate("C3", cr.make_ring(3)))


class TestObstruction:
    def test_canonical_obstruction_zero(self):
        mul, comul = lf.initial_lift(C2, "canonical")
        rep = lf.obstruction(mul, comul, C2)
        assert rep.is_zero and rep.cocycle_ok

    def test_perturbed_obstruction_is_cocycle(self):
        mul, comul = lf.initial_lift(C2, "perturbed:1")
        rep = lf.obstruction(mul, comul, C2)
        assert not rep.is_zero
        assert rep.cocycle_ok

    def test_canonical_s3_zero(self):
        S3 = hc.generate("S3", F7)
        mul, comul = lf.initial_lift(S3, "canonical")
        assert lf.obstruction(mul, comul, S3).is_zero

    def test_homogeneity_under_extension_change(self):
        # c((m',D') + p^n (u,v)) = c(m',D') + d_total(ubar, vbar): the precise
        # well-definedness statement behind "unique modulo p"
        mul, comul = lf.initial_lift(C2, "perturbed:9")
        desc = mul.ring
        rng = np.random.default_rng(123)
        u = np.asarray(rng.integers(0, 5, size=mul.coeffs.shape), dtype=np.int64)
        v = np.asarray(rng.integers(0, 5, size=comul.coeffs.shape), dtype=np.int64)
        mul_b = tc.MultiMap(desc, 2, 1, 2, 2, (mul.coeffs + 5 * u) % 25)
        comul_b = tc.MultiMap(desc, 1, 2, 2, 2, (comul.coeffs + 5 * v) % 25)
        c1 = lf.obstruction(mul, comul, C2).c
        c2 = lf.obstruction(mul_b, comul_b, C2).c
        ctx = coh.make_context(C2)
        y = coh.TotalCochain(
            ctx,
            1,
            {
                (1, 0): tc.MultiMap(F5, 2, 1, 2, 2, u % 5),
                (0, 1): tc.MultiMap(F5, 1, 2, 2, 2, v % 5),
            },
        )
        assert c2 == c1 + coh.d_total(y)


class TestCorrectAndAntipode:
    def test_zero_obstruction_passthrough(self):
        mul, comul = lf.initial_lift(C2, "canonical")
        rep = lf.obstruction(mul, comul, C2)
        m2, d2, u2, e2 = lf.correct(mul, comul, rep, C2)
        assert m2 == mul and d2 == comul
        assert u2.coeffs[:, 0, 0].tolist() == [1, 0]
        assert e2.coeffs[0, :, 0].tolist() == [1, 1]

    def test_perturbed_correction_exact(self):
        for base, seed in [(C2, 1), (C3_7, 3)]:
            mul, comul = lf.initial_lift(base, f"perturbed:{seed}")
            rep = lf.obstruction(mul, comul, base)
            m2, d2, u2, e2 = lf.correct(mul, comul, rep, base)
            assert lf.obstruction(m2, d2, base).is_zero

    def test_antipode_canonical(self):
        mul, comul = lf.initial_lift(C2, "canonical")
        rep = lf.obstruction(mul, comul, C2)
        m2, d2, u2, e2 = lf.correct(mul, comul, rep, C2)
        s = lf.solve_antipode(m2, d2, u2, e2)
        assert s.coeffs[:, :, 0].tolist() == [[1, 0], [0, 1]]  # S(g) = g

    def test_antipode_reduces_to_base(self):
        mul, comul = lf.initial_lift(C2, "perturbed:5")
        rep = lf.obstruction(mul, comul, C2)
        m2, d2, u2, e2 = lf.correct(mul, comul, rep, C2)
        s = lf.solve_antipode(m2, d2, u2, e2)
        assert np.array_equal(s.coeffs % 5, C2.antipode.coeffs)


class TestLift:
    def test_canonical_c2_to_625(self):
        st = lf.lift(C2, 4, "canonical")
        assert st.current.ring.q == 625 and st.current.verified
        assert all(r["obstruction_support"] == 0 for r in st.transcript)

    def test_perturbed_c2(self):
        st = lf.lift(C2, 4, "perturbed:7")
        assert st.current.verified
        assert hc.reduce_presentation(st.current, F5) == C2
        assert any(r["correction_applied"] for r in st.transcript)

    def test_perturbed_s3(self):
        st = lf.lift(hc.generate("S3", F7), 3, "perturbed:2")
        assert st.current.verified and st.current.ring.q == 343

    def test_antipode_squares_to_identity_at_every_precision(self):
        st = lf.lift(C2, 4, "perturbed:11")
        for k in range(2, 5):
            pres = st.at_precision(k)
            s2 = ra.tensordot(pres.ring, pres.antipode.coeffs, pres.antipode.coeffs, ([1], [0]))
            assert np.array_equal(s2, ra.eye(pres.ring, 2))

    @pytest.mark.parametrize("strategy", ["canonical", "perturbed:5"])
    def test_c2_f7_to_precision_11(self, strategy):
        # 7^11 > 2^31: the scalar contractions of the unit and counit checks
        # take the object-dtype path of _arrays.tensordot
        base = hc.generate("C2", F7)
        st = lf.lift(base, 11, strategy)
        assert st.current.ring.q == 7**11
        assert hc.verify_hopf(st.current).all_pass
        assert hc.reduce_presentation(st.current, F7) == base

    def test_at_precision_levels_verified(self):
        st = lf.lift(C3_7, 3, "perturbed:1")
        for k in (1, 2, 3):
            pres = st.at_precision(k)
            assert hc.verify_hopf(pres).all_pass


class TestReconcile:
    def test_self_is_identity(self):
        st = lf.lift(C2, 3, "canonical")
        eta = lf.reconcile(st, st)
        assert np.array_equal(eta.coeffs, ra.eye(st.current.ring, 2))

    def test_canonical_vs_perturbed(self):
        a = lf.lift(C2, 3, "canonical")
        b = lf.lift(C2, 3, "perturbed:7")
        eta = lf.reconcile(a, b)
        assert not np.any((eta.coeffs - ra.eye(a.current.ring, 2)) % 5)

    def test_two_seeds_c3(self):
        a = lf.lift(C3_7, 2, "perturbed:1")
        b = lf.lift(C3_7, 2, "perturbed:2")
        lf.reconcile(a, b)  # raises on any exactness failure

    def test_roundtrip_composition(self):
        a = lf.lift(C2, 3, "perturbed:1")
        b = lf.lift(C2, 3, "perturbed:2")
        eta_ab = lf.reconcile(a, b)
        eta_ba = lf.reconcile(b, a)
        comp = tc.compose(eta_ba, eta_ab)
        assert not np.any((comp.coeffs - ra.eye(a.current.ring, 2)) % 5)

    def test_mismatched_precision_rejected(self):
        a = lf.lift(C2, 2)
        b = lf.lift(C2, 3)
        with pytest.raises(DifferentBaseOrPrecision):
            lf.reconcile(a, b)


class TestLiftMorphism:
    def test_identity(self):
        st = lf.lift(C2, 3, "canonical")
        out = lf.lift_morphism(hc.identity_morphism(C2), st, st)
        assert np.array_equal(out.map.coeffs, tc.identity_map(st.current.ring, 2).coeffs)

    def test_inclusion_c2_c4(self):
        C4 = hc.generate("C4", F5)
        inc = np.zeros((4, 2, 1), dtype=np.int64)
        inc[0, 0, 0] = 1
        inc[2, 1, 0] = 1
        phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
        a = lf.lift(C2, 3, "canonical")
        b = lf.lift(C4, 3, "canonical")
        out = lf.lift_morphism(phi, a, b)
        assert out.verified and np.array_equal(out.map.coeffs, inc % 125)

    def test_counit_unit_composite(self):
        eps1 = tc.compose(C3_7.unit, C3_7.counit)
        phi = hc.make_morphism(C3_7, C3_7, eps1)
        st = lf.lift(C3_7, 2, "canonical")
        out = lf.lift_morphism(phi, st, st)
        assert np.array_equal(out.map.coeffs, eps1.coeffs)

    def test_functoriality(self):
        C4 = hc.generate("C4", F5)
        inc = np.zeros((4, 2, 1), dtype=np.int64)
        inc[0, 0, 0] = 1
        inc[2, 1, 0] = 1
        phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
        proj = np.zeros((2, 4, 1), dtype=np.int64)
        for k in range(4):
            proj[k % 2, k, 0] = 1
        psi = hc.make_morphism(C4, C2, tc.MultiMap(F5, 1, 1, 4, 2, proj))
        a = lf.lift(C2, 3, "perturbed:3")
        b = lf.lift(C4, 3, "perturbed:4")
        lphi = lf.lift_morphism(phi, a, b)
        lpsi = lf.lift_morphism(psi, b, a)
        lcomp = lf.lift_morphism(hc.compose_morphisms(psi, phi), a, a)
        assert tc.compose(lpsi.map, lphi.map) == lcomp.map

    def test_reduction_to_base(self):
        st = lf.lift(C2, 4, "perturbed:9")
        out = lf.lift_morphism(hc.identity_morphism(C2), st, st)
        assert np.array_equal(out.map.coeffs % 5, tc.identity_map(F5, 2).coeffs)


class TestLiftRMatrix:
    def test_r0(self):
        st = lf.lift(C2, 2, "canonical")
        out = lf.lift_rmatrix(C2, R0, st)
        assert out.R.coeffs[:, 0, 0].tolist() == [1, 0, 0, 0]
        assert out.quasitriangular and out.triangular

    def test_r1_exact_value(self):
        st = lf.lift(C2, 2, "canonical")
        out = lf.lift_rmatrix(C2, R1, st)
        assert out.R.coeffs[:, 0, 0].tolist() == [13, 13, 13, 12]
        assert out.quasitriangular and out.triangular
        assert np.array_equal(out.R.coeffs % 5, R1.coeffs)

    def test_double_canonical_r(self):
        D, RD = hc.drinfeld_double(C2)
        st = lf.lift(D, 2, "canonical")
        out = lf.lift_rmatrix(D, RD, st)
        assert out.quasitriangular

    def test_lifted_triangular_u_squares_to_one(self):
        st = lf.lift(C2, 3, "perturbed:5")
        out = lf.lift_rmatrix(C2, R1, st)
        u, fixed, sq = hc.drinfeld_u(st.current, out.R)
        assert fixed and sq


class TestDoubleCommutesWithLifting:
    def test_double_of_lift_reconciles_with_lift_of_double(self):
        D_base, _ = hc.drinfeld_double(C2)
        lift_of_double = lf.lift(D_base, 2, "canonical")
        lifted_c2 = lf.lift(C2, 2, "canonical")
        double_of_lift, _ = hc.drinfeld_double(lifted_c2.current)
        state = lf.LiftState(D_base, 2, double_of_lift, [])
        assert hc.reduce_presentation(double_of_lift, F5) == D_base
        lf.reconcile(lift_of_double, state)  # raises unless an exact iso exists


def test_lift_never_assembles_degree1_differential(monkeypatch):
    base = hc.generate("S3", F7)
    degrees = []
    real = coh.dtotal_matrix

    def spy(ctx, n):
        degrees.append(n)
        return real(ctx, n)

    coh._CACHE.clear()
    monkeypatch.setattr(coh, "dtotal_matrix", spy)
    st = lf.lift(base, 3, "perturbed:4")
    assert degrees == [0]
    monkeypatch.setattr(coh, "dtotal_matrix", real)
    dense_rank = coh._solver_for(coh.make_context(base), 1).rank
    assert [r["solver_rank"] for r in st.transcript] == [dense_rank, dense_rank]
    coh._CACHE.clear()


def test_oversized_modulus_refused_up_front(monkeypatch):
    from hopflift.errors import UnsupportedModulus

    base = hc.generate("C2", cr.make_ring(3))

    def admitted(_):
        raise AssertionError("the base was examined before the modulus was refused")

    monkeypatch.setattr(lf, "_admit_base", admitted)
    with pytest.raises(UnsupportedModulus):
        lf.lift(base, 40)  # 3^40 > 2^62


def _hensel_factorizations(monkeypatch):
    """Record each FieldSolver built for a Hensel system: the kind of a base
    system factored by lifting._hensel_solver, or "fresh" for one factored
    inside hensel_solve_array."""
    kinds = []
    real = FieldSolver.__init__

    def spy(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_name == "_hensel_solver":
                kinds.append(frame.f_locals["kind"])
                break
            if frame.f_code.co_name == "hensel_solve_array":
                kinds.append("fresh")
                break
            frame = frame.f_back
        real(self, *args, **kwargs)

    monkeypatch.setattr(FieldSolver, "__init__", spy)
    return kinds


def test_hensel_systems_factored_once_per_base(monkeypatch):
    base = hc.generate("D4", cr.make_ring(3))
    coh._CACHE.clear()
    kinds = _hensel_factorizations(monkeypatch)
    cold = lf.lift(base, 4, "perturbed:1")
    assert sorted(kinds) == ["antipode", "counit", "unit"]
    kinds.clear()
    warm = lf.lift(base, 4, "perturbed:2")
    assert kinds == []
    lf.reconcile(cold, warm)
    lf.reconcile(warm, cold)
    assert kinds == []
    # the factors live in the context cache: emptying it makes the next lift cold
    coh._CACHE.clear()
    kinds.clear()
    again = lf.lift(base, 4, "perturbed:1")
    assert sorted(kinds) == ["antipode", "counit", "unit"]
    assert again.current == cold.current
    coh._CACHE.clear()


def test_seeded_levels_match_full_solves():
    """Each level's unit, counit and antipode equal full Hensel solves from zero."""
    base = hc.generate("S3", F7)
    st = lf.lift(base, 5, "perturbed:3")
    for k in range(2, 6):
        pres = st.at_precision(k)
        desc = pres.ring
        N = pres.dim
        M, D, U, E, S = hc._legs(pres)
        u0 = tc.map_digit_lift(base.unit, desc).coeffs.reshape(N, 1)
        e0 = tc.map_digit_lift(base.counit, desc).coeffs.reshape(N, 1)
        assert np.array_equal(cr.hensel_solve_array(desc, lf._unit_system(desc, M, u0), u0), U)
        assert np.array_equal(cr.hensel_solve_array(desc, lf._counit_system(desc, D, e0), e0), E)
        rhs = ra.elem_mul(desc, U[:, None, :], E[None, :, :]).reshape(N * N, 1)
        full = cr.hensel_solve_array(desc, lf._antipode_system(desc, M, D), rhs)
        assert np.array_equal(full.reshape(N, N, 1), S)


def test_admission_verdict_cached_per_context(monkeypatch):
    base = hc.generate("C3", F7)
    calls = []
    real = hc.is_cosemisimple

    def spy(H):
        calls.append(H)
        return real(H)

    coh._CACHE.clear()
    monkeypatch.setattr(hc, "is_cosemisimple", spy)
    lf.lift(base, 2)
    lf.lift(base, 3, "perturbed:1")
    assert len(calls) == 1
    coh._CACHE.clear()
    lf.lift(base, 2)
    assert len(calls) == 2
    coh._CACHE.clear()


def _tampered(state, seed):
    """state with p * noise added to its product: no longer a lift of anything."""
    cur = state.current
    desc = cur.ring
    noise = np.random.default_rng(seed).integers(0, desc.p, size=cur.mul.coeffs.shape)
    mul = tc.MultiMap(desc, 2, 1, cur.dim, cur.dim, (cur.mul.coeffs + desc.p * noise) % desc.q)
    return lf.LiftState(state.base, state.precision, hc.HopfPresentation(desc, cur.dim, mul, *cur.tensors()[1:]), [])


def test_failed_degree1_solve_diagnosed(monkeypatch):
    """reconcile and lift_morphism test closedness only after a failed solve:
    a non-closed cochain still raises NotACocycle, a closed one CocycleUnsolvable."""
    C4 = hc.generate("C4", F5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
    a, b = lf.lift(C2, 3, "canonical"), lf.lift(C2, 3, "perturbed:7")
    la, lb = lf.lift(C2, 3, "perturbed:1"), lf.lift(C4, 3, "perturbed:2")
    assert a.current != b.current
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(coh, "solve_coboundary", lambda z, _cocycle_checked=False: None)
        with pytest.raises(NotACocycle):
            lf.reconcile(a, _tampered(b, 1))
        with pytest.raises(NotACocycle):
            lf.lift_morphism(phi, la, _tampered(lb, 2))
    with pytest.raises(CocycleUnsolvable):
        lf.reconcile(a, b)
    with pytest.raises(CocycleUnsolvable):
        lf.lift_morphism(phi, la, lb)


def test_admit_base_names_failing_axioms():
    from hopflift.errors import AxiomsViolated

    S = C2.antipode.coeffs.copy()
    S[1, 1, 0] = 0  # S(g) = 0
    broken = hc.HopfPresentation(F5, 2, C2.mul, C2.unit, C2.comul, C2.counit, tc.MultiMap(F5, 1, 1, 2, 2, S))
    with pytest.raises(AxiomsViolated, match="^base fails the Hopf axioms antipode_left, antipode_right$"):
        lf.lift(broken, 3)
    assert issubclass(AxiomsViolated, NotSemisimpleOrCosemisimple)
    # an unverified base that passes every axiom keeps the refusal it had
    with pytest.raises(NotSemisimpleOrCosemisimple, match="VERIFIED") as exc:
        lf.lift(hc.HopfPresentation(F5, 2, *C2.tensors()), 3)
    assert type(exc.value) is NotSemisimpleOrCosemisimple


@pytest.mark.parametrize(
    "fails, lift_error",
    [
        (["multiplicative"], "PostAxiomFailure"),
        (["comultiplicative", "unital"], "PostAxiomFailure"),
        (["counital"], "UnitCompatibilityFailure"),
    ],
)
def test_failed_map_certificate_raises_stage_exception(monkeypatch, fails, lift_error):
    """The one certificate of a lifted map: (co)multiplicative failures raise
    PostAxiomFailure before (co)unit ones raise UnitCompatibilityFailure; in
    reconcile every failure is an InternalAxiomFailure."""
    from hopflift import errors

    st = lf.lift(C2, 3, "perturbed:3")
    monkeypatch.setattr(hc, "morphism_failures", lambda phi: list(fails))
    with pytest.raises(getattr(errors, lift_error)):
        lf.lift_morphism(hc.identity_morphism(C2), st, st)
    with pytest.raises(errors.InternalAxiomFailure):
        lf.reconcile(st, st)


def test_zero_defect_levels_solve_nothing(monkeypatch):
    """A level whose defect pair is zero has the zero cochain as its coboundary
    solution, so no solve runs: reconcile of a lift with itself solves nothing,
    and two different lifts still solve at their nonzero levels."""
    st = lf.lift(C2, 4, "perturbed:3")
    calls = []
    real = coh.solve_coboundary
    monkeypatch.setattr(coh, "solve_coboundary", lambda *a, **k: calls.append(1) or real(*a, **k))
    eta = lf.reconcile(st, st)
    assert calls == []
    assert np.array_equal(eta.coeffs, ra.eye(st.current.ring, 2))
    lf.lift_morphism(hc.identity_morphism(C2), st, st)
    assert calls == []
    lf.reconcile(st, lf.lift(C2, 4, "perturbed:5"))
    assert calls
    # a comultiplication moved by p^2 noise alone: level 1 is zero and skipped,
    # level 2 has a zero multiplicative but a nonzero comultiplicative defect
    cur = st.current
    noise = np.random.default_rng(2).integers(0, 5, size=cur.comul.coeffs.shape)
    comul = tc.MultiMap(cur.ring, 1, 2, 2, 2, (cur.comul.coeffs + 25 * noise) % cur.ring.q)
    moved = hc.HopfPresentation(cur.ring, 2, cur.mul, cur.unit, comul, cur.counit, cur.antipode)
    del calls[:]
    with pytest.raises(NotACocycle):
        lf.reconcile(st, lf.LiftState(C2, 4, moved, []))
    assert len(calls) == 1
