from dataclasses import replace

import numpy as np
import pytest

from hopflift import _arrays as ra
from hopflift import coeffring as cr
from hopflift import hopfcore as hc
from hopflift import tensorcalc as tc
from hopflift.errors import NotAGroup, NotSemisimple, NotSplit

F3 = cr.make_ring(3)
F5 = cr.make_ring(5)
F7 = cr.make_ring(7)
Z25 = cr.make_ring(5, 2)


def vec(ring, entries):
    out = np.zeros((len(entries), ring.m), dtype=np.int64)
    for i, e in enumerate(entries):
        out[i, 0] = e % ring.q
    return out


def r_matrix(ring, dim, entries):
    arr = np.array(entries, dtype=np.int64).reshape(dim * dim, 1)[:, :, None]
    return tc.MultiMap(ring, 0, 2, dim, dim, arr % ring.q)


def _ambient_mult_fn(H):
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)

    def mult(x, y):
        t = ra.tensordot(desc, M, x, ([1], [0]))  # [a,y]
        return ra.tensordot(desc, t, y, ([1], [0]))

    return mult


R0 = r_matrix(F5, 2, [1, 0, 0, 0])
R1 = r_matrix(F5, 2, [3, 3, 3, 2])  # (1/2)(1 + 1g + g1 - gg) over F_5


class TestVerifyHopf:
    def test_group_algebra_passes(self):
        assert hc.verify_hopf(hc.generate("C2", F5)).all_pass

    def test_broken_antipode_localized(self):
        C2 = hc.generate("C2", F5)
        bad = np.zeros((2, 2, 1), dtype=np.int64)
        bad[0, 0, 0] = 1
        bad[0, 1, 0] = 1  # S(g) = 1
        H = hc.HopfPresentation(F5, 2, C2.mul, C2.unit, C2.comul, C2.counit, tc.MultiMap(F5, 1, 1, 2, 2, bad))
        rep = hc.verify_hopf(H)
        assert rep.failing() == ["antipode_left", "antipode_right"]
        assert rep["associativity"].ok and rep["delta_multiplicative"].ok

    def test_z25_group_algebra(self):
        assert hc.verify_hopf(hc.generate("C2", Z25)).all_pass


class TestGroupAlgebra:
    def test_c2_structure(self):
        H = hc.generate("C2", F5)
        assert H.dim == 2
        assert H.mul.entry(0, (1, 1)) == F5.one  # g*g = 1
        assert H.comul.entry((1, 1), 1) == F5.one  # Delta g = g (x) g
        assert H.antipode.entry(1, 1) == F5.one  # S g = g

    def test_s3_flags(self):
        H = hc.generate("S3", F7)
        assert H.dim == 6
        assert not hc.is_commutative(H)
        assert hc.is_cocommutative(H)

    def test_c4_over_f3(self):
        assert hc.generate("C4", F3).dim == 4

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            hc.group_algebra(F5, [[0, 1], [1, 1]])


class TestDual:
    def test_dual_is_pointwise_function_algebra(self):
        d = hc.dual(hc.generate("C2", F5))
        # delta-basis pointwise product: f_i f_j = delta_ij f_i
        for i in range(2):
            for j in range(2):
                expect = F5.one if i == j else F5.zero
                assert d.mul.entry(i, (i, j)) == (expect if i == j else d.mul.entry(i, (i, j)))
                got = [d.mul.entry(k, (i, j)) for k in range(2)]
                want = [F5.zero, F5.zero]
                if i == j:
                    want[i] = F5.one
                assert got == want

    def test_biduality_exact(self):
        S3 = hc.generate("S3", F7)
        assert hc.dual(hc.dual(S3)) == S3

    def test_commutativity_flags_swap(self):
        H = hc.generate("C2xC2", F5)
        d = hc.dual(H)
        assert hc.is_commutative(d) and hc.is_cocommutative(d)  # abelian: both
        S3 = hc.generate("S3", F7)
        dS3 = hc.dual(S3)
        assert hc.is_commutative(dS3) and not hc.is_cocommutative(dS3)


class TestDouble:
    def test_double_c2_commutative(self):
        D, R = hc.drinfeld_double(hc.generate("C2", F5))
        assert D.dim == 4 and D.verified
        assert hc.is_commutative(D)
        assert R.quasitriangular and not R.triangular

    def test_double_s3(self):
        D, R = hc.drinfeld_double(hc.generate("S3", F7))
        assert D.dim == 36 and D.verified and R.quasitriangular

    def test_double_over_galois_ring(self):
        D, R = hc.drinfeld_double(hc.generate("C2", Z25))
        assert D.verified and R.quasitriangular


class TestAntipodeAndTrace:
    def test_orders(self):
        assert hc.antipode_orders(hc.generate("S3", F5)) == (2, 1)
        # S = inversion is the identity on C2, so the exact multiplicative order is 1
        assert hc.antipode_orders(hc.generate("C2", F5)) == (1, 1)
        D, _ = hc.drinfeld_double(hc.generate("S3", F7))
        assert hc.antipode_orders(D) == (2, 1)

    @pytest.mark.parametrize("cycle, want", [((1, 2, 0, 3), (3, 3)), ((1, 2, 3, 0), (4, 2))], ids=["order3", "order4"])
    def test_orders_of_permutation_antipodes(self, cycle, want):
        # an unverified presentation whose antipode permutes the basis: S^2 has
        # order ord(S) / gcd(ord(S), 2), which S^2 = I on the corpus never shows
        H = hc.generate("C4", F5)
        perm = np.zeros((4, 4, 1), dtype=np.int64)
        perm[list(cycle), range(4), 0] = 1
        P = replace(H, antipode=tc.MultiMap(F5, 1, 1, 4, 4, perm), verified=False)
        assert hc.verify_hopf(P).failing() and hc.antipode_orders(P) == want

    def test_trace_s2_equals_dim(self):
        S3 = hc.generate("S3", F7)
        assert hc.trace_s2(S3) == F7.element(6)
        F25 = cr.make_ring(5, 1, 2)
        assert hc.trace_s2(hc.generate("S3", F25)) == F25.element([1, 0])


class TestIntegralsAndSemisimplicity:
    def test_integral_c2(self):
        basis = hc.integral(hc.generate("C2", F5))
        assert len(basis) == 1
        v = basis[0].reshape(-1)
        assert v[0] == v[1] != 0  # span{1 + g}

    def test_integral_c3_f3(self):
        basis = hc.integral(hc.generate("C3", F3))
        assert len(basis) == 1
        assert basis[0].reshape(-1).tolist() == [1, 1, 1]

    def test_integral_dual(self):
        d = hc.dual(hc.generate("C2", F5))
        basis = hc.integral(d)
        assert len(basis) == 1
        # left integral of Fun(C2) is the delta function at the identity
        assert basis[0][:, 0].tolist() in ([1, 0], [0, 1])
        got = basis[0][:, 0]
        # verify the defining relation directly: a L = eps(a) L
        mult = _ambient_mult_fn(d)
        E = d.counit.coeffs.reshape(2, 1)
        for i in range(2):
            a = np.zeros((2, 1), dtype=np.int64)
            a[i, 0] = 1
            lhs = mult(a, basis[0])
            rhs = ra.elem_mul(F5, E[i], basis[0])
            assert np.array_equal(lhs, rhs)

    def test_semisimplicity(self):
        assert hc.is_semisimple(hc.generate("C2", F5))
        assert not hc.is_semisimple(hc.generate("C3", F3))
        S3 = hc.generate("S3", F7)
        assert hc.is_semisimple(S3) and hc.is_cosemisimple(S3)


class TestGrouplikes:
    def test_c2(self):
        g = hc.grouplikes(hc.generate("C2", F5))
        assert [v[:, 0].tolist() for v in g] == [[0, 1], [1, 0]]
        assert len(hc.grouplikes(hc.generate("C2", F5), central_only=True)) == 2

    def test_dual_c2_characters(self):
        g = hc.grouplikes(hc.dual(hc.generate("C2", F5)))
        assert [v[:, 0].tolist() for v in g] == [[1, 1], [1, 4]]

    def test_c2xc2_f3_central(self):
        g = hc.grouplikes(hc.generate("C2xC2", F3), central_only=True)
        assert len(g) == 4
        unit = [1, 0, 0, 0]
        nontrivial = [v for v in g if v[:, 0].tolist() != unit]
        assert len(nontrivial) == 3

    def test_unit_always_present_and_invertible(self):
        for name, ring in [("S3", F7), ("C4", F3)]:
            H = hc.generate(name, ring)
            gs = hc.grouplikes(H)
            unit = H.unit.coeffs.reshape(H.dim, ring.m)
            assert any(np.array_equal(v, unit) for v in gs)
            mult = _ambient_mult_fn(H)
            S = H.antipode.coeffs
            for v in gs:
                sv = ra.tensordot(ring, S, v, ([1], [0]))
                assert np.array_equal(mult(v, sv), unit)

    def test_grouplikes_of_group_algebra_is_group(self):
        H = hc.generate("C4", F5)
        assert len(hc.grouplikes(H)) == 4

    @pytest.mark.parametrize("name,p", [("C3.dual", 3), ("C2.dual", 2)])
    def test_unit_of_non_cosemisimple_dual(self, name, p):
        # the dual algebra F_p[C_p] is local: its one character, the counit,
        # spans a common eigenspace but no block of an idempotent splitting
        H = hc.generate(name, cr.make_ring(p))
        unit = H.unit.coeffs.reshape(H.dim, 1)
        for central_only in (False, True):
            g = hc.grouplikes(H, central_only=central_only)
            assert len(g) == 1 and g[0].dtype == unit.dtype and np.array_equal(g[0], unit)


class TestWedderburn:
    def test_s3_f7(self):
        assert hc.irreducible_dimensions(hc.generate("S3", F7)) == [1, 1, 2]

    def test_double_c2(self):
        D, _ = hc.drinfeld_double(hc.generate("C2", F5))
        assert hc.irreducible_dimensions(D) == [1, 1, 1, 1]

    def test_double_s3_f7(self):
        D, _ = hc.drinfeld_double(hc.generate("S3", F7))
        dims = hc.irreducible_dimensions(D)
        assert dims == [1, 1, 2, 2, 2, 2, 3, 3]
        assert sum(n * n for n in dims) == 36
        assert all(6 % n == 0 for n in dims)

    def test_not_semisimple_rejected(self):
        with pytest.raises(NotSemisimple):
            hc.irreducible_dimensions(hc.generate("C3", F3))

    def test_not_split_rejected(self):
        # F5[C3] = F5 x F25: the centre has one character over F5, not three
        with pytest.raises(NotSplit):
            hc.irreducible_dimensions(hc.generate("C3", F5))


class TestQuasitriangular:
    def test_r0_trivial(self):
        C2 = hc.generate("C2", F5)
        rm = hc.verify_qt(C2, R0)
        assert rm.quasitriangular and rm.triangular

    def test_r1(self):
        C2 = hc.generate("C2", F5)
        rm = hc.verify_qt(C2, R1)
        assert rm.quasitriangular and rm.triangular

    def test_not_qt(self):
        C2 = hc.generate("C2", F5)
        bad = r_matrix(F5, 2, [1, 1, 0, 0])
        rm = hc.verify_qt(C2, bad)
        assert not rm.quasitriangular and rm.failures

    def test_double_r_not_triangular(self):
        D, R = hc.drinfeld_double(hc.generate("C2", F5))
        assert R.quasitriangular and not R.triangular


class TestDrinfeldElement:
    def test_u_r0(self):
        C2 = hc.generate("C2", F5)
        u, fixed, sq = hc.drinfeld_u(C2, R0)
        assert u[:, 0].tolist() == [1, 0] and fixed and sq

    def test_u_r1_is_g(self):
        C2 = hc.generate("C2", F5)
        u, fixed, sq = hc.drinfeld_u(C2, R1)
        assert u[:, 0].tolist() == [0, 1] and fixed and sq

    def test_u_double(self):
        D, R = hc.drinfeld_double(hc.generate("C2", F5))
        u, fixed, _ = hc.drinfeld_u(D, R.R)
        assert fixed  # u = S(u)


class TestTheta:
    def test_theta_r0(self):
        C2 = hc.generate("C2", F5)
        th = hc.theta(C2, R0)
        assert th.verified
        # theta(f) = f(1) 1: matrix has only the (0, :) ... target coeff on 1-row
        assert th.map.coeffs[:, :, 0].tolist() == [[1, 0], [0, 0]]

    def test_theta_r1_sends_character_to_g(self):
        C2 = hc.generate("C2", F5)
        th = hc.theta(C2, R1)
        chi = np.array([1, 4], dtype=np.int64)
        out = th.map.coeffs[:, :, 0] @ chi % 5
        assert out.tolist() == [0, 1]

    def test_roundtrip(self):
        C2 = hc.generate("C2", F5)
        th = hc.theta(C2, R1)
        assert hc.theta_to_rmatrix(th) == R1


class TestAnalyze:
    def test_report_c2(self):
        rep = hc.analyze(hc.generate("C2", F5))
        assert rep.semisimple and rep.cosemisimple
        assert rep.commutative and rep.cocommutative
        assert rep.antipode_order == 1 and rep.antipode_sq_order == 1  # S = id on C2
        assert rep.trace_S2 == F5.element(2)
        assert rep.dim_in_k == F5.element(2)
        assert len(rep.grouplikes) == 2 and len(rep.central_grouplikes) == 2

    def test_report_c3_f3(self):
        rep = hc.analyze(hc.generate("C3", F3))
        assert not rep.semisimple
        assert rep.cosemisimple  # group algebras are always cosemisimple


def test_root_search_bound(monkeypatch):
    from hopflift.errors import FieldTooLargeForRootSearch

    monkeypatch.setenv("HOPFLIFT_ROOT_BOUND", "3")
    with pytest.raises(FieldTooLargeForRootSearch):
        hc.grouplikes(hc.generate("C2", F5))


def test_root_search_bound_counts_the_field_elements(monkeypatch):
    from hopflift.errors import FieldTooLargeForRootSearch

    # F_25 has 25 elements: over a bound of 24 although p = 5 is not
    monkeypatch.setenv("HOPFLIFT_ROOT_BOUND", "24")
    with pytest.raises(FieldTooLargeForRootSearch):
        hc.grouplikes(hc.generate("C2", cr.make_ring(5, 1, 2)))


def test_presentation_tensors_frozen_so_the_digest_stays_valid():
    H = hc.generate("S3", F7)
    digest = H.digest()
    for t in H.tensors():
        with pytest.raises(ValueError):
            t.coeffs[0, 0, 0] = 1
    # a tensor handed in as a view is copied: writing through its base changes nothing
    store = H.antipode.coeffs.copy().reshape(-1)
    view = tc.MultiMap(F7, 1, 1, 6, 6, store.reshape(6, 6, 1))
    K = hc.HopfPresentation(F7, 6, H.mul, H.unit, H.comul, H.counit, view)
    store[:] = 0
    assert K == H and K.digest() == digest
    assert hc.HopfPresentation(F7, 6, *H.tensors()).digest() == digest
