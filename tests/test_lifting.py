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

    def test_rejects_non_cosemisimple(self):
        # the functions on C3 over F3 form a semisimple algebra that is not cosemisimple
        with pytest.raises(NotSemisimpleOrCosemisimple):
            lf.initial_lift(hc.dual(hc.generate("C3", cr.make_ring(3))))

    def test_cold_lift_factors_each_integral_once(self, monkeypatch):
        # admission decides semisimplicity by the separability idempotent the
        # contraction keeps: a cold lift factors the left integrals of A and
        # of its dual once each
        base = hc.generate("D4", cr.make_ring(3))
        monkeypatch.setattr(coh, "_CACHE", type(coh._CACHE)())
        calls = []
        real = hc.integral
        monkeypatch.setattr(hc, "integral", lambda H: calls.append(H) or real(H))
        lf.lift(base, 4, "perturbed:1")
        assert calls == [base, hc.dual(base)]

    def test_cold_lift_makes_three_factorizations(self, monkeypatch):
        # both idempotents contract the obstruction, so a cold lift factors the
        # two integrals and d_0 (its rows reversed), and nothing of the reduced complex
        from hopflift import _linalg

        monkeypatch.setattr(coh, "_CACHE", type(coh._CACHE)())
        shapes = []
        real = _linalg.FieldSolver.__init__

        def record(self, desc, marr, rank_only=False):
            shapes.append(marr.shape[:2])
            real(self, desc, marr, rank_only)

        monkeypatch.setattr(_linalg.FieldSolver, "__init__", record)
        for name in ("_dc_ad_solver", "_ad_solver", "_dc_ad_matrix", "_reduced_dim"):
            monkeypatch.setattr(coh, name, lambda *args, name=name: pytest.fail(f"a lift called {name}"))
        state = lf.lift(hc.generate("D4", cr.make_ring(3)), 4, "perturbed:1")
        assert state.transcript[0]["correction_applied"]
        assert shapes == [(64, 8), (64, 8), (1024, 64)]


class TestObstruction:
    def test_canonical_obstruction_zero(self):
        mul, comul = lf.initial_lift(C2, "canonical")
        rep = lf.obstruction(mul, comul, C2)
        assert rep.is_zero and coh.is_cocycle(rep)

    def test_perturbed_obstruction_is_cocycle(self):
        mul, comul = lf.initial_lift(C2, "perturbed:1")
        rep = lf.obstruction(mul, comul, C2)
        assert not rep.is_zero
        assert coh.is_cocycle(rep)

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
        c1 = lf.obstruction(mul, comul, C2)
        c2 = lf.obstruction(mul_b, comul_b, C2)
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
        s = lf.solve_antipode(m2, d2, C2)
        assert s.coeffs[:, :, 0].tolist() == [[1, 0], [0, 1]]  # S(g) = g

    def test_antipode_reduces_to_base(self):
        mul, comul = lf.initial_lift(C2, "perturbed:5")
        rep = lf.obstruction(mul, comul, C2)
        m2, d2, u2, e2 = lf.correct(mul, comul, rep, C2)
        s = lf.solve_antipode(m2, d2, C2)
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

    @pytest.mark.parametrize("name, p, n", [("C2", 7, 22), ("C3", 2, 62)], ids=["C2/F7^22", "C3/F2^62"])
    def test_perturbed_lift_at_the_int64_edge(self, name, p, n):
        # q = 7^22 and 2^62 lie just below MAX_MODULUS: obstruction subtracts,
        # divides and reduces its defects in place in int64 at every level
        base = hc.generate(name, cr.make_ring(p))
        st = lf.lift(base, n, "perturbed:3")
        assert st.current.verified and st.current.ring.q == p**n
        assert any(r["correction_applied"] for r in st.transcript)
        assert hc.reduce_presentation(st.current, base.ring) == base

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
    real = coh._assemble

    def spy(ctx, n):
        degrees.append(n)
        return real(ctx, n)

    coh._CACHE.clear()
    monkeypatch.setattr(coh, "_assemble", spy)
    st = lf.lift(base, 3, "perturbed:4")
    assert degrees == [0]
    monkeypatch.setattr(coh, "_assemble", real)
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


def _solver_builders(monkeypatch):
    """Record each FieldSolver built: "cohomology" when a cohomology function
    is on the stack, "admission" under lifting._admit_base, else the module of
    the code that built it."""
    builders = []
    real = FieldSolver.__init__

    def spy(self, *args, **kwargs):
        frame = sys._getframe(1)
        caller = frame.f_globals["__name__"]
        while frame is not None:
            if frame.f_globals["__name__"] == coh.__name__:
                caller = "cohomology"
                break
            if frame.f_code.co_name == "_admit_base":
                caller = "admission"
                break
            frame = frame.f_back
        builders.append(caller)
        real(self, *args, **kwargs)

    monkeypatch.setattr(FieldSolver, "__init__", spy)
    return builders


def test_hensel_systems_factored_once_per_base(monkeypatch):
    """No lift stage factors a system of its own: unit, counit and antipode
    come from Newton steps.  A cold lift builds only cohomology's solvers and
    those of the admission verdict; then a reconcile, which contracts with
    the idempotents the lift built, a warm lift and two more reconciles build
    none."""
    base = hc.generate("D4", cr.make_ring(3))
    coh._CACHE.clear()
    builders = _solver_builders(monkeypatch)
    cold = lf.lift(base, 4, "perturbed:1")
    assert "cohomology" in builders and set(builders) <= {"cohomology", "admission"}
    builders.clear()
    lf.reconcile(cold, lf.lift(base, 4, "perturbed:2"))
    assert builders == []
    warm = lf.lift(base, 4, "perturbed:3")
    lf.reconcile(cold, warm)
    lf.reconcile(warm, cold)
    assert builders == []
    coh._CACHE.clear()


# the Hensel systems of unit, counit and antipode: the linear oracle of the
# Newton steps of lifting.correct and lifting.solve_antipode


def _unit_system(desc, m_legs, u0):
    """u |-> m(u (x) u0) as a matrix [a, b]."""
    return ra.tensordot(desc, m_legs, u0, ([2], [0]))


def _counit_system(desc, d_legs, e0):
    """f |-> (f (x) e0) Delta as a matrix [x, u]."""
    return ra.transpose(ra.tensordot(desc, d_legs, e0, ([1], [0])), (1, 0))


def _antipode_system(desc, m_legs, d_legs):
    """S |-> m(S (x) I)Delta as a matrix [(a, x), (w, u)]."""
    N = m_legs.shape[0]
    t = ra.tensordot(desc, d_legs, m_legs, ([1], [2]))  # D[u,v,x] M[a,w,v] -> [u,x,a,w]
    return ra.transpose(t, (2, 1, 3, 0)).reshape(N * N, N * N, desc.m)


def _hensel_oracle(pres, base):
    """Unit, counit and antipode of pres's (m, Delta) by full Hensel solves:
    m(u (x) u0) = u0 and (e (x) e0) Delta = e0 for u0, e0 the digit lifts of
    the base's, then m(S (x) I)Delta = u e."""
    desc, N = pres.ring, pres.dim
    M, D = hc._legs(pres)[:2]
    u0 = tc.map_digit_lift(base.unit, desc).coeffs.reshape(N, desc.m)
    e0 = tc.map_digit_lift(base.counit, desc).coeffs.reshape(N, desc.m)
    U = cr.hensel_solve_array(desc, _unit_system(desc, M, u0), u0)
    E = cr.hensel_solve_array(desc, _counit_system(desc, D, e0), e0)
    rhs = ra.elem_mul(desc, U[:, None, :], E[None, :, :]).reshape(N * N, desc.m)
    S = cr.hensel_solve_array(desc, _antipode_system(desc, M, D), rhs).reshape(N, N, desc.m)
    return U, E, S


def test_seeded_levels_match_full_solves():
    """Each level's unit, counit and antipode equal full Hensel solves from zero."""
    for name, p, m, n in (("S3", 7, 1, 5), ("D4", 3, 1, 4), ("C3", 2, 2, 4)):
        base = hc.generate(name, cr.make_ring(p, 1, m))
        st = lf.lift(base, n, "perturbed:3")
        for k in range(2, n + 1):
            pres = st.at_precision(k)
            for got, want in zip(hc._legs(pres)[2:], _hensel_oracle(pres, base)):
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, k)


@pytest.mark.parametrize("name, p, m", [("S3", 7, 1), ("C3", 2, 2)], ids=["S3/F7", "C3/F4"])
def test_standalone_stages_refine_from_the_base(name, p, m):
    """correct and solve_antipode on an exact p^4 lift (zero obstruction),
    seeded with the base: two Newton steps give the lift's tensors."""
    base = hc.generate(name, cr.make_ring(p, 1, m))
    cur = lf.lift(base, 4, "perturbed:5").current
    report = lf.obstruction(cur.mul, cur.comul, base)
    assert report.is_zero
    mul, comul, unit, counit = lf.correct(cur.mul, cur.comul, report, base)
    assert (mul, comul, unit, counit) == (cur.mul, cur.comul, cur.unit, cur.counit)
    assert lf.solve_antipode(mul, comul, base) == cur.antipode
    # each tensor has a nonzero digit past p^2, which one step from the base cannot reach
    assert all(np.any(t.coeffs // p**2) for t in (cur.unit, cur.counit, cur.antipode))


def test_admission_verdict_cached_per_context(monkeypatch):
    # admission reads the separability idempotents of the base and of its dual,
    # once per context, and never builds a fresh dual through is_cosemisimple
    base = hc.generate("C3", F7)
    calls = []
    real = hc.separability_idempotent

    def spy(H):
        calls.append(H)
        return real(H)

    coh._CACHE.clear()
    monkeypatch.setattr(hc, "separability_idempotent", spy)
    monkeypatch.setattr(hc, "is_cosemisimple", lambda H: pytest.fail("admission called is_cosemisimple"))
    lf.lift(base, 2)
    lf.lift(base, 3, "perturbed:1")
    assert calls == [base, hc.dual(base)]
    coh._CACHE.clear()
    lf.lift(base, 2)
    assert len(calls) == 4
    coh._CACHE.clear()


def test_one_context_object_per_digest(monkeypatch):
    """make_context returns one object per digest, which keeps the memo, and
    is the only caller of ComplexContext.digest: a warm reconcile digests once
    per make_context call.  Emptying _CACHE makes the next lift cold."""
    base = hc.generate("S3", F7)
    coh._CACHE.clear()
    s1, s2 = lf.lift(base, 3, "perturbed:1"), lf.lift(base, 3, "perturbed:2")
    assert coh.make_context(base) is coh.make_context(base)
    lf.reconcile(s1, s2)
    made, digests = [], []
    real_make, real_digest = coh.make_context, coh.ComplexContext.digest
    monkeypatch.setattr(coh, "make_context", lambda *a, **k: made.append(a) or real_make(*a, **k))
    monkeypatch.setattr(coh.ComplexContext, "digest", lambda self: digests.append(self) or real_digest(self))
    lf.reconcile(s1, s2)
    assert made and len(digests) == len(made)
    calls = []
    real_idempotent = hc.separability_idempotent
    monkeypatch.setattr(hc, "separability_idempotent", lambda H: calls.append(H) or real_idempotent(H))
    lf.lift(base, 3, "perturbed:3")
    assert calls == []
    coh._CACHE.clear()
    lf.lift(base, 3, "perturbed:3")
    assert calls == [base, hc.dual(base)]
    coh._CACHE.clear()


def _tampered(state, seed):
    """state with p * noise added to its product: no longer a lift of anything."""
    cur = state.current
    desc = cur.ring
    noise = np.random.default_rng(seed).integers(0, desc.p, size=cur.mul.coeffs.shape)
    mul = tc.MultiMap(desc, 2, 1, cur.dim, cur.dim, (cur.mul.coeffs + desc.p * noise) % desc.q)
    return lf.LiftState(state.base, state.precision, hc.HopfPresentation(desc, cur.dim, mul, *cur.tensors()[1:]), [])


def test_failed_degree1_solve_diagnosed(monkeypatch):
    """reconcile and lift_morphism certify each contracted level by the next
    level's divisibility and the last by morphism_failures; a level that fails
    has its defect tested for closedness: a non-closed one raises NotACocycle,
    and a wrong contraction of a closed one raises CocycleUnsolvable."""
    C4 = hc.generate("C4", F5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
    a, b = lf.lift(C2, 3, "canonical"), lf.lift(C2, 3, "perturbed:7")
    la, lb = lf.lift(C2, 3, "perturbed:1"), lf.lift(C4, 3, "perturbed:2")
    assert a.current != b.current
    with pytest.raises(NotACocycle):
        lf.reconcile(a, _tampered(b, 1))
    with pytest.raises(NotACocycle):
        lf.lift_morphism(phi, la, _tampered(lb, 2))
    # 2 chi = -chi over F5 is wrong for every nonzero defect, at an inner level
    # (the next one is not divisible) and at the last (not multiplicative)
    real = coh._contract_obstruction
    for wrong_at in (1, 2):
        calls = []

        def wrong(z, wrong_at=wrong_at, calls=calls):
            calls.append(None)
            return real(z).scale(2) if len(calls) == wrong_at else real(z)

        monkeypatch.setattr(coh, "_contract_obstruction", wrong)
        with pytest.raises(CocycleUnsolvable):
            lf.reconcile(a, b)
        assert len(calls) == wrong_at
        del calls[:]
        with pytest.raises(CocycleUnsolvable):
            lf.lift_morphism(phi, la, lb)
        assert len(calls) == wrong_at


def test_warm_map_lifts_assemble_and_factor_nothing(monkeypatch):
    """Map lifts contract with the two idempotents: no map lift assembles a
    d_total matrix, and once their contexts are warm, reconcile and
    lift_morphism build no FieldSolver."""
    C4 = hc.generate("C4", F5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = inc[2, 1, 0] = 1
    phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
    D4 = hc.generate("D4", cr.make_ring(3))
    coh._CACHE.clear()
    d4 = [lf.lift(D4, 4, f"perturbed:{seed}") for seed in (1, 2)]
    c2, c4 = lf.lift(C2, 3, "perturbed:1"), lf.lift(C4, 3, "perturbed:2")
    assembled, built = [], []
    real_assemble, real_init = coh._assemble, FieldSolver.__init__
    monkeypatch.setattr(coh, "_assemble", lambda *args: assembled.append(args) or real_assemble(*args))
    monkeypatch.setattr(FieldSolver, "__init__", lambda self, *a, **k: built.append(a) or real_init(self, *a, **k))

    def map_lifts():
        return (
            lf.reconcile(*d4),
            lf.lift_morphism(hc.identity_morphism(D4), *d4).map,
            lf.lift_morphism(phi, c2, c4).map,
        )

    cold = map_lifts()
    assert assembled == []
    del built[:]
    warm = map_lifts()
    assert assembled == [] and built == []
    assert all(a == b for a, b in zip(cold, warm))
    coh._CACHE.clear()


def test_reconcile_refuses_a_base_that_is_not_semisimple():
    # two hand-made states over C3/F3, which lift would not have made: before
    # admission, reconcile of equal states had zero defects and solved nothing
    C3 = hc.generate("C3", cr.make_ring(3))
    state = lf.LiftState(C3, 2, hc.generate("C3", cr.make_ring(3, 2)), [])
    with pytest.raises(NotSemisimpleOrCosemisimple, match="A is not semisimple"):
        lf.reconcile(state, lf.LiftState(C3, 2, state.current, []))


def test_admit_base_names_failing_axioms():
    from hopflift.errors import AxiomsViolated

    S = C2.antipode.coeffs.copy()
    S[1, 1, 0] = 0  # S(g) = 0
    broken = hc.HopfPresentation(F5, 2, C2.mul, C2.unit, C2.comul, C2.counit, tc.MultiMap(F5, 1, 1, 2, 2, S))
    with pytest.raises(AxiomsViolated, match="^base fails the Hopf axioms antipode_left, antipode_right$"):
        lf.lift(broken, 3)
    assert issubclass(AxiomsViolated, NotSemisimpleOrCosemisimple)


def test_admit_base_marks_an_unverified_base(monkeypatch):
    # an unverified base that passes every axiom is verified once, and lifted;
    # the other verify_hopf is the lift's certificate over GR(5^3)
    calls = []
    real = hc.verify_hopf
    monkeypatch.setattr(hc, "verify_hopf", lambda H: calls.append(H) or real(H))
    unmarked = hc.HopfPresentation(F5, 2, *C2.tensors())
    state = lf.lift(unmarked, 3, "perturbed:2")
    monkeypatch.setattr(hc, "verify_hopf", real)
    assert [H for H in calls if H.ring == F5] == [unmarked] and len(calls) == 2 and state.base.verified
    want = lf.lift(C2, 3, "perturbed:2")
    assert state.current == want.current and state.current.verified
    phi = hc.identity_morphism(C2)
    assert lf.lift_morphism(phi, lf.lift(unmarked, 3), want).map == lf.lift_morphism(phi, lf.lift(C2, 3), want).map
    # a base over GR(p^n), n > 1, is refused with the type it had
    with pytest.raises(NotSemisimpleOrCosemisimple, match="over F_q") as exc:
        lf.lift(want.current, 3)
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
    real = coh._contract_obstruction
    monkeypatch.setattr(coh, "_contract_obstruction", lambda *a, **k: calls.append(1) or real(*a, **k))
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
