import itertools

import numpy as np
import pytest

from hopflift import coeffring as cr
from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift import tensorcalc as tc
from hopflift.errors import BudgetExceeded, NotACocycle

F5 = cr.make_ring(5)
F7 = cr.make_ring(7)

C2 = hc.generate("C2", F5)
CTX = coh.make_context(C2)


# --- independent summation oracle (naive nested loops, rebuilt from scratch) ---


def naive_d_alg(H, f_arr, p, q):
    """Literal term-by-term evaluation of the algebra differential over F_p."""
    N, P = H.dim, H.ring.q
    mul = H.mul.coeffs[..., 0].reshape(N, N, N)  # [out, x, y]
    com = H.comul.coeffs[..., 0].reshape(N, N, N)  # [u, v, x]
    k = q + 1

    def delta_k(x):  # vector over k-fold multi-indices
        vec = {(x,): 1}
        for _ in range(k - 1):
            new = {}
            for idx, c in vec.items():
                for u in range(N):
                    for v in range(N):
                        cc = c * com[u, v, idx[0]] % P
                        if cc:
                            key = (u, v) + idx[1:]
                            new[key] = (new.get(key, 0) + cc) % P
            vec = new
        return vec

    def tensor_mult(wdict, col):
        out = np.zeros(N**k, dtype=np.int64)
        for xidx, cw in wdict.items():
            for iflat in range(N**k):
                ci = col[iflat]
                if not ci:
                    continue
                idig = [(iflat // N ** (k - 1 - t)) % N for t in range(k)]
                # product of per-leg products, expanded over output indices
                outs = [(0, cw * ci % P)]
                for t in range(k):
                    nxt = []
                    for acc_idx, acc_c in outs:
                        for o in range(N):
                            c3 = acc_c * mul[o, xidx[t], idig[t]] % P
                            if c3:
                                nxt.append((acc_idx * N + o, c3))
                    outs = nxt
                for oidx, c3 in outs:
                    out[oidx] = (out[oidx] + c3) % P
        return out

    def col_of(f, in_tuple):
        flat = 0
        for a in in_tuple:
            flat = flat * N + a
        return f[:, flat]

    n_in = p + 2
    out = np.zeros((N**k, N**n_in), dtype=np.int64)
    for args in itertools.product(range(N), repeat=n_in):
        flat = 0
        for a in args:
            flat = flat * N + a
        acc = np.zeros(N**k, dtype=np.int64)
        # (-1)^{p+1} E(a1) * f(a2..)
        sgn = (-1) ** (p + 1)
        acc = (acc + sgn * tensor_mult(delta_k(args[0]), col_of(f_arr, args[1:]))) % P
        # middle terms
        for i in range(1, p + 2):
            sgn = (-1) ** (p + 1 + i)
            x, y = args[i - 1], args[i]
            for w in range(N):
                c = mul[w, x, y]
                if c:
                    merged = args[: i - 1] + (w,) + args[i + 1 :]
                    acc = (acc + sgn * c * col_of(f_arr, merged)) % P
        # - f(a1..a_{p+1}) * E(a_{p+2})
        colf = col_of(f_arr, args[:-1])
        wdict = delta_k(args[-1])
        # f * E: legwise product with f on the left
        prod = np.zeros(N**k, dtype=np.int64)
        for xidx, cw in wdict.items():
            for iflat in range(N**k):
                ci = colf[iflat]
                if not ci:
                    continue
                idig = [(iflat // N ** (k - 1 - t)) % N for t in range(k)]
                outs = [(0, cw * ci % P)]
                for t in range(k):
                    nxt = []
                    for acc_idx, acc_c in outs:
                        for o in range(N):
                            c3 = acc_c * mul[o, idig[t], xidx[t]] % P
                            if c3:
                                nxt.append((acc_idx * N + o, c3))
                    outs = nxt
                for oidx, c3 in outs:
                    prod[oidx] = (prod[oidx] + c3) % P
        acc = (acc - prod) % P
        out[:, flat] = acc
    return out


@pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_d_alg_matches_naive_oracle(p, q):
    rng = np.random.default_rng(7 + p * 10 + q)
    shape = (2 ** (q + 1), 2 ** (p + 1), 1)
    f = tc.MultiMap(F5, p + 1, q + 1, 2, 2, np.asarray(rng.integers(0, 5, size=shape), dtype=np.int64))
    got = coh.d_alg(CTX, f)
    want = naive_d_alg(C2, f.coeffs[..., 0], p, q)
    assert np.array_equal(got.coeffs[..., 0], want)


def test_d_alg_of_rank_one_eps_map():
    # eps-like rank-one map on F_5[C_2]: f(x) = eps(x) * 1
    f = tc.compose(C2.unit, C2.counit)
    got = coh.d_alg(CTX, f)
    want = naive_d_alg(C2, f.coeffs[..., 0], 0, 0)
    assert np.array_equal(got.coeffs[..., 0], want)


# --- structural identities ---


def test_identity_cochain_values():
    # the Hochschild boundary of the identity is -m; the coboundary is Delta.
    ident = tc.identity_map(F5, 2)
    assert coh.d_alg(CTX, ident) == C2.mul.scale(-1)
    assert coh.d_coalg(CTX, ident) == C2.comul
    # consistency with H^0 = 0: identity is killed by neither differential
    assert not coh.d_alg(CTX, ident).is_zero
    assert not coh.d_coalg(CTX, ident).is_zero


@pytest.mark.parametrize("name,ring", [("C2", F5), ("C3", F7)])
def test_bicomplex_identities_random(name, ring):
    H = hc.generate(name, ring)
    ctx = coh.make_context(H)
    for n in (0, 1, 2):
        for seed in range(6):
            z = coh.random_cochain(ctx, n, seed)
            for f in z.components.values():
                assert coh.d_alg(ctx, coh.d_alg(ctx, f)).is_zero
                assert coh.d_coalg(ctx, coh.d_coalg(ctx, f)).is_zero
                assert coh.d_alg(ctx, coh.d_coalg(ctx, f)) == coh.d_coalg(ctx, coh.d_alg(ctx, f))
            assert coh.d_total(coh.d_total(z)).is_zero


def test_d_total_zero_cochain():
    assert coh.d_total(coh.zero_cochain(CTX, 1)).is_zero


def test_exactness_gives_cocycles():
    gamma = coh.random_cochain(CTX, 0, 3)
    z = coh.d_total(gamma)
    assert z.degree == 1 and coh.is_cocycle(z)


def test_matrix_agrees_with_direct_application():
    # two implementation routes must agree entrywise
    H = hc.generate("C3", F7)
    ctx = coh.make_context(H)
    for n in (0, 1):
        mat = coh.dtotal_matrix(ctx, n)
        for seed in (0, 1):
            z = coh.random_cochain(ctx, n, seed)
            from hopflift import _arrays as ra

            via_matrix = ra.tensordot(ctx.ring, mat.toarray(), coh.vec_cochain(z), ([1], [0]))
            assert np.array_equal(via_matrix, coh.vec_cochain(coh.d_total(z)))


def percolumn_dtotal_matrix(ctx, n):
    """Dense matrix of d: C^n -> C^{n+1}, one d_total call per basis cochain."""
    m = ctx.ring.m
    cols = sum(size for _, _, size in coh.space_dims(ctx, n))
    rows = sum(size for _, _, size in coh.space_dims(ctx, n + 1))
    mat = np.zeros((rows, cols, m), dtype=np.int64)
    col = 0
    for p, q, size in coh.space_dims(ctx, n):
        for j in range(size):
            z = coh.zero_cochain(ctx, n)
            arr = z.components[(p, q)].coeffs.copy()
            arr.reshape(-1, m)[j, 0] = 1
            z.components[(p, q)] = tc.MultiMap(ctx.ring, p + 1, q + 1, ctx.A.dim, ctx.B.dim, arr)
            mat[:, col] = coh.vec_cochain(coh.d_total(z))
            col += 1
    return mat


def counit_unit_context():
    B = hc.dual(C2)
    return coh.make_context(C2, B, hc.make_morphism(C2, B, tc.compose(B.unit, C2.counit)))


@pytest.mark.parametrize(
    "make_ctx,n",
    [
        (lambda: coh.make_context(hc.generate("C3", F7)), 0),
        (lambda: coh.make_context(hc.generate("C3", F7)), 1),
        (lambda: coh.make_context(hc.generate("C2xC2", F5)), 2),
        (lambda: coh.make_context(hc.generate("C3", cr.make_ring(2, 1, 2))), 1),
        (counit_unit_context, 0),
        (counit_unit_context, 1),
    ],
    ids=["C3/F7-n0", "C3/F7-n1", "C2xC2/F5-n2", "C3/F4-n1", "C2-dualC2-n0", "C2-dualC2-n1"],
)
def test_sparse_assembly_matches_percolumn_oracle(make_ctx, n):
    ctx = make_ctx()
    coo = coh.dtotal_matrix(ctx, n)
    want = percolumn_dtotal_matrix(ctx, n)
    assert coo.shape == want.shape[:2]
    assert np.array_equal(coo.toarray(), want)
    # stored entries are exactly the nonzeros, in row-major order
    assert np.all(np.any(coo.vals != 0, axis=-1))
    order = np.lexsort((coo.cols, coo.rows))
    assert np.array_equal(order, np.arange(order.size))


def test_sparse_assembly_batches_agree(monkeypatch):
    # one basis cochain per batch gives the same matrix as whole components
    ctx = coh.make_context(hc.generate("C3", F7))
    whole = coh.dtotal_matrix(ctx, 1)
    coh._CACHE.clear()
    monkeypatch.setattr(coh, "_ASSEMBLY_CELLS", 1)
    single = coh.dtotal_matrix(ctx, 1)
    coh._CACHE.clear()
    for field in ("rows", "cols", "vals"):
        assert np.array_equal(getattr(whole, field), getattr(single, field))


# --- coboundary solving ---


def test_solve_coboundary_roundtrip():
    x0 = coh.random_cochain(CTX, 1, 11)
    z = coh.d_total(x0)
    x = coh.solve_coboundary(z)
    assert x is not None and coh.d_total(x) == z


def test_solve_coboundary_zero_is_zero():
    x = coh.solve_coboundary(coh.zero_cochain(CTX, 2))
    assert x is not None and x.is_zero


def test_solve_coboundary_rejects_noncocycle():
    z = coh.random_cochain(CTX, 2, 5)
    if coh.is_cocycle(z):  # vanishingly unlikely
        pytest.skip("random cochain happened to be closed")
    with pytest.raises(NotACocycle):
        coh.solve_coboundary(z)


def test_degree1_solution_deterministic():
    x0 = coh.random_cochain(CTX, 1, 21)
    z = coh.d_total(x0)
    a = coh.solve_coboundary(z)
    b = coh.solve_coboundary(z)
    assert a == b


# --- cohomology dimensions ---


@pytest.mark.parametrize(
    "H",
    [C2, hc.generate("C3", F7), hc.dual(C2)],
    ids=["C2/F5", "C3/F7", "dual(C2)/F5"],
)
def test_theorem_11_vanishing(H):
    ctx = coh.make_context(H)
    assert [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)] == [0, 0, 0]


def test_vanishing_with_nonidentity_phi():
    # phi: A -> B = dual(A), x |-> eps(x) 1 (counit-unit composite)
    B = hc.dual(C2)
    phim = tc.compose(B.unit, C2.counit)
    phi = hc.make_morphism(C2, B, phim)
    ctx = coh.make_context(C2, B, phi)
    assert coh.cohomology_dim(ctx, 0) == 0


def test_h0_tangent_space_statement():
    # only the zero map is killed by both differentials at (0,0)
    ctx = CTX
    mat = coh.dtotal_matrix(ctx, 0)
    from hopflift._linalg import FieldSolver

    assert FieldSolver(F5, mat).kernel_basis() == []


def test_budget_exceeded():
    big = hc.generate("D4", F5)  # dim 8 > default H2 budget 6
    ctx = coh.make_context(big)
    with pytest.raises(BudgetExceeded):
        coh.cohomology_dim(ctx, 2)


# --- invariants complex (Eq 1.3 cross-check) ---


def test_invariants_complex_agrees():
    for H in [C2, hc.generate("C3", F7)]:
        ctx = coh.make_context(H)
        for n in (0, 1):
            assert coh.invariants_complex_dim(ctx, n) == coh.cohomology_dim(ctx, n)


def test_invariants_complex_dim2():
    ctx = coh.make_context(C2)
    assert coh.invariants_complex_dim(ctx, 2) == coh.cohomology_dim(ctx, 2) == 0


def test_invariants_ground_field_direction():
    # B = k (dim 1 group algebra C1 is just k), phi = counit
    one = hc.group_algebra(F5, [[0]])
    phim = tc.MultiMap(F5, 1, 1, 2, 1, C2.counit.coeffs.copy())
    phi = hc.make_morphism(C2, one, phim)
    ctx = coh.make_context(C2, one, phi)
    for n in (0, 1, 2):
        assert coh.invariants_complex_dim(ctx, n) == 0
