import itertools

import numpy as np
import pytest

from hopflift import _arrays as ra
from hopflift import coeffring as cr
from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift import tensorcalc as tc
from hopflift._linalg import CooMatrix, FieldSolver
from hopflift.errors import ArityMismatch, BudgetExceeded, InternalAxiomFailure, NotACocycle, NotSemisimpleOrCosemisimple

F5 = cr.make_ring(5)
F7 = cr.make_ring(7)

C2 = hc.generate("C2", F5)
CTX = coh.make_context(C2)


# --- independent summation oracle (naive nested loops, rebuilt from scratch) ---


def naive_d_alg(H, f_arr, p, q):
    """Literal term-by-term evaluation of the algebra differential over F_p,
    in Python ints, so exact at every modulus."""
    N, P = H.dim, H.ring.q
    mul = H.mul.coeffs[..., 0].reshape(N, N, N).astype(object)  # [out, x, y]
    com = H.comul.coeffs[..., 0].reshape(N, N, N).astype(object)  # [u, v, x]
    f_arr = f_arr.astype(object)
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
        out = np.zeros(N**k, dtype=object)
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
        acc = np.zeros(N**k, dtype=object)
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
        prod = np.zeros(N**k, dtype=object)
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


@pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)])
def test_d_alg_matches_naive_oracle(p, q):
    rng = np.random.default_rng(7 + p * 10 + q)
    shape = (2 ** (q + 1), 2 ** (p + 1), 1)
    f = tc.MultiMap(F5, p + 1, q + 1, 2, 2, np.asarray(rng.integers(0, 5, size=shape), dtype=np.int64))
    got = coh.d_alg(CTX, f)
    want = naive_d_alg(C2, f.coeffs[..., 0], p, q)
    assert np.array_equal(got.coeffs[..., 0], want)


# 2^62 - 57, the largest prime below 2^62: three residues summed unreduced
# leave int64, so d_a must reduce between its terms here
F_BIG = cr.make_ring((1 << 62) - 57)


@pytest.mark.parametrize(
    "p,q,ring",
    [
        pytest.param(p, q, ring, id=f"{p}-{q}{label}")
        for ring, label in ((F5, ""), (F_BIG, "-F(2^62-57)"))
        for p, q in [(0, 0), (1, 0), (0, 1), (1, 1)]
    ],
)
def test_d_alg_matches_naive_oracle_on_noncommutative_b(p, q, ring):
    # on S3 the left and right action terms differ, unlike on C2
    S3 = hc.generate("S3", ring)
    rng = np.random.default_rng(17 + p * 10 + q)
    shape = (6 ** (q + 1), 6 ** (p + 1), 1)
    f = tc.MultiMap(ring, p + 1, q + 1, 6, 6, np.asarray(rng.integers(0, ring.q, size=shape), dtype=np.int64))
    got = coh.d_alg(coh.make_context(S3), f)
    assert np.array_equal(got.coeffs[..., 0], naive_d_alg(S3, f.coeffs[..., 0], p, q))


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


def dense_assemble(ctx, n, cells=1 << 22):
    """Matrix of d: C^n -> C^{n+1} from dense images of basis cochains, pushed
    through _d_alg_block and _d_coalg_block in batches whose image block has
    about `cells` cells."""
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    row_offset, rows_total = {}, 0
    for p, q, size in coh.space_dims(ctx, n + 1):
        row_offset[(p, q)] = rows_total
        rows_total += size
    rows, cols, vals = [], [], []
    col0 = 0
    for p, q, size in coh.space_dims(ctx, n):
        out_rows = max(nb ** (q + 1) * na ** (p + 2), nb ** (q + 2) * na ** (p + 1))
        batch = max(1, cells // out_rows)
        for j0 in range(0, size, batch):
            width = min(batch, size - j0)
            basis = np.zeros((size, width, desc.m), dtype=np.int64)
            basis[j0 + np.arange(width), np.arange(width), 0] = 1
            f = basis.reshape(nb ** (q + 1), na ** (p + 1), width, desc.m)
            # d restricted to C^{p,q} is d_a + (-1)^p d_c
            images = (((p + 1, q), 1, coh._d_alg_block), ((p, q + 1), (-1) ** p, coh._d_coalg_block))
            for comp, sign, block in images:
                img = block(ctx, f, p, q).reshape(-1, width, desc.m)
                r, c = np.nonzero(np.any(img != 0, axis=-1))
                rows.append(row_offset[comp] + r)
                cols.append(col0 + j0 + c)
                vals.append(ra.scale_int(desc, img[r, c], sign))
        col0 += size
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    order = np.lexsort((cols, rows))
    return CooMatrix((rows_total, col0), rows[order], cols[order], vals[order])


def assert_same_coo(got, want):
    assert got.shape == want.shape
    for field in ("rows", "cols", "vals"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_sparse_assembly_batches_agree():
    # the dense oracle with one basis cochain per batch gives the assembled matrix
    ctx = coh.make_context(hc.generate("C3", F7))
    assert_same_coo(coh.dtotal_matrix(ctx, 1), dense_assemble(ctx, 1, cells=1))


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
    [C2, hc.generate("C3", F7), hc.dual(C2), hc.generate("S3", F7)],
    ids=["C2/F5", "C3/F7", "dual(C2)/F5", "S3/F7"],
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
    # dim 8 > default H2 budget 6, on the reduced complex of A (F5) and of the dual context (F2)
    for big in (hc.generate("D4", F5), hc.generate("D4", cr.make_ring(2))):
        with pytest.raises(BudgetExceeded):
            coh.cohomology_dim(coh.make_context(big), 2)


# --- the reduced complex against the dense bicomplex, rank by rank ---


def dense_reduced_ranks(ctx, k):
    """rank(ad_k) and rank(d_c ad_k) from the column block (0, k-1) of
    dtotal_matrix(ctx, k-1), for a semisimple A: there ker(d_a) = ad(B^{(x) k}),
    and ker(d) = ker(d_a) n ker(d_c) has dimension rank(ad_k) - rank(d_c ad_k)."""
    mat = coh.dtotal_matrix(ctx, k - 1)
    *_, size = coh.space_dims(ctx, k - 1)[-1]
    out_dims = [s for _, _, s in coh.space_dims(ctx, k)]
    a0 = sum(out_dims[:-2])  # rows of component (1, k-1), the image of d_a
    block = mat.cols >= mat.shape[1] - size
    rows, cols, vals = mat.rows[block], mat.cols[block] - (mat.shape[1] - size), mat.vals[block]
    alg = (rows >= a0) & (rows < a0 + out_dims[-2])
    rank_d = FieldSolver(ctx.ring, CooMatrix((mat.shape[0], size), rows, cols, vals), rank_only=True).rank
    d_a = CooMatrix((out_dims[-2], size), rows[alg] - a0, cols[alg], vals[alg])
    rank_da = FieldSolver(ctx.ring, d_a, rank_only=True).rank
    return size - rank_da, rank_d - rank_da


def s3_inclusion_context():
    # C2 -> S3 over F7, g |-> the transposition (1 2), element 1 of the S3 table
    S3 = hc.generate("S3", F7)
    inc = np.zeros((6, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = inc[1, 1, 0] = 1
    C2_7 = hc.generate("C2", F7)
    return coh.make_context(C2_7, S3, hc.make_morphism(C2_7, S3, tc.MultiMap(F7, 1, 1, 2, 6, inc)))


# noncommutative B: ad != 0, so each rank below is a nonzero number to match
REDUCED_CASES = [
    ("S3/F7", lambda: coh.make_context(hc.generate("S3", F7)), 3),
    ("S3/F25", lambda: coh.make_context(hc.generate("S3", cr.make_ring(5, 1, 2))), 2),
    ("C2-S3/F7", s3_inclusion_context, 3),
]


@pytest.mark.parametrize("make_ctx,top", [c[1:] for c in REDUCED_CASES], ids=[c[0] for c in REDUCED_CASES])
def test_reduced_complex_matches_dense_ranks(make_ctx, top):
    ctx = make_ctx()
    ranks = {k: dense_reduced_ranks(ctx, k) for k in range(1, top + 1)}
    for k, (rank_ad, rank_dc_ad) in ranks.items():
        assert 0 < rank_ad < ctx.B.dim**k and rank_dc_ad > 0
        assert (coh._ad_solver(ctx, k).rank, coh._dc_ad_solver(ctx, k).rank) == (rank_ad, rank_dc_ad)
    for n in range(top):
        want = ranks[n + 1][0] - ranks[n + 1][1] - (ranks[n][1] if n else 0)
        assert coh.cohomology_dim(ctx, n) == want
        if n < 2:  # the dense d_2 of S3 is the 10 s path the reduction replaces
            assert coh._bicomplex_dim(ctx, n) == want


# --- ad_k and d_c ad_k = ad_{k+1} o d^_k from nonzeros, against the dense builders ---

SPARSE_AD_CASES = [
    ("S3/F7", lambda: coh.make_context(hc.generate("S3", F7))),
    ("D4/F3", lambda: coh.make_context(hc.generate("D4", cr.make_ring(3)))),
    ("dual(D4)/F5", lambda: coh.make_context(hc.dual(hc.generate("D4", F5)))),
    ("C3/F4", lambda: coh.make_context(hc.generate("C3", cr.make_ring(2, 1, 2)))),
    ("S3/F25", lambda: coh.make_context(hc.generate("S3", cr.make_ring(5, 1, 2)))),
    ("C2-S3/F7", s3_inclusion_context),
    ("C3/F3", lambda: coh.make_context(hc.generate("C3", cr.make_ring(3)))),
]


def assert_nonzeros_in_row_major_order(mat):
    assert mat.vals.dtype == np.int64 and np.all(np.any(mat.vals != 0, axis=-1))
    assert np.all(np.diff(mat.rows * mat.shape[1] + mat.cols) > 0)


@pytest.mark.parametrize("make_ctx", [c[1] for c in SPARSE_AD_CASES], ids=[c[0] for c in SPARSE_AD_CASES])
def test_sparse_ad_matches_dense_oracle(make_ctx):
    ctx = make_ctx()
    for k in (1, 2, 3):
        want = dense_ad_matrix(ctx, k)
        ad = coh._ad_matrix(ctx, k)
        assert_nonzeros_in_row_major_order(ad)
        got = ad.toarray()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        hat = coh._hat_differential_matrix(ctx, k - 1)
        assert_nonzeros_in_row_major_order(hat)
        assert np.array_equal(hat.toarray(), dense_hat_differential_matrix(ctx, k - 1))
        dc_ad = coh._dc_ad_matrix(ctx, k)
        assert_nonzeros_in_row_major_order(dc_ad)
        assert dc_ad.shape == (ctx.B.dim ** (k + 1) * ctx.A.dim, ctx.B.dim**k)
        # column blocks of the dense d_c ad_k, which is 134 MB at D4, k = 3
        for c0 in range(0, want.shape[1], 64):
            cols = np.arange(c0, min(c0 + 64, want.shape[1]))
            block = dense_dc_ad_columns(ctx, k, want, cols)
            sel = np.isin(dc_ad.cols, cols)
            got = np.zeros_like(block)
            got[dc_ad.rows[sel], dc_ad.cols[sel] - c0] = dc_ad.vals[sel]
            assert block.dtype == np.int64 and np.array_equal(got, block)
    for k in (1, 2):
        for side in ("left", "right"):
            dense = np.ascontiguousarray(ra.transpose(dense_mult_operator(ctx, k, side), (1, 0, 2)))
            got = ctx.mult_operator(k, side).toarray().reshape(dense.shape)
            assert got.dtype == dense.dtype and np.array_equal(got, dense)


IDENTITY_CASES = [c for c in SPARSE_AD_CASES if c[0] in ("S3/F7", "S3/F25", "C2-S3/F7", "D4/F3")]


@pytest.mark.parametrize("make_ctx", [c[1] for c in IDENTITY_CASES], ids=[c[0] for c in IDENTITY_CASES])
def test_dc_ad_identity_on_random_elements(make_ctx):
    # d_c(ad m) through the public d_coalg equals ad_{k+1}(d^_k m)
    ctx = make_ctx()
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    rng = np.random.default_rng([7, nb, desc.q])
    for k in (1, 2, 3):
        for _ in range(2):
            m = rng.integers(0, desc.q, size=(nb**k, desc.m)).astype(np.int64)
            ad_m = ra.tensordot(desc, dense_ad_matrix(ctx, k), m, ([1], [0])).reshape(nb**k, na, desc.m)
            lhs = coh.d_coalg(ctx, tc.MultiMap(desc, 1, k, na, nb, ad_m)).coeffs
            rhs = coh._ad_matrix(ctx, k + 1).dot(desc, coh._hat_differential_matrix(ctx, k - 1).dot(desc, m))
            assert lhs.any() and np.array_equal(lhs, rhs.reshape(lhs.shape))


def c3_counit_unit_context():
    # x |-> eps(x) 1 on C3/F7: not symmetric, so phi* differs from phi
    C3 = hc.generate("C3", F7)
    return coh.make_context(C3, C3, hc.make_morphism(C3, C3, tc.compose(C3.unit, C3.counit)))


# d_c is the transposed d_a of the dual context (B*, A*, phi*); the inclusion
# and the counit-unit map are the contexts where phi* is not phi
D_COALG_CASES = [c for c in SPARSE_AD_CASES if c[0] in ("S3/F7", "D4/F3", "dual(D4)/F5", "C3/F4")] + [
    ("S3/F5", lambda: coh.make_context(hc.generate("S3", F5))),
    ("C2.double/F5", lambda: coh.make_context(hc.generate("C2.double", F5))),
    ("C2-C4", lambda: inclusion_context()),
    ("C3-C3/F7", c3_counit_unit_context),
    ("S3/F(2^62-57)", lambda: coh.make_context(hc.generate("S3", F_BIG))),
]


@pytest.mark.parametrize("make_ctx", [c[1] for c in D_COALG_CASES], ids=[c[0] for c in D_COALG_CASES])
def test_d_coalg_matches_dense_oracle(make_ctx):
    ctx = make_ctx()
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    checked = 0
    for p, q in itertools.product(range(3), repeat=2):
        if nb ** (q + 2) * na ** (p + 1) > 1 << 16:
            continue
        f = np.random.default_rng([p, q, na, nb, desc.q]).integers(0, desc.q, size=(nb ** (q + 1), na ** (p + 1), 3, desc.m))
        got, want = coh._d_coalg_block(ctx, f, p, q), dense_d_coalg_block(ctx, f, p, q)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        checked += 1
    assert checked >= 5


# the assembly joins each term from nonzeros; the dense images of basis
# cochains through the two block differentials are its oracle
ASSEMBLY_CASES = [
    ("S3/F7", lambda: coh.make_context(hc.generate("S3", F7)), (0, 1)),
    ("D4/F3", lambda: coh.make_context(hc.generate("D4", cr.make_ring(3))), (0,)),
    ("dual(D4)/F5", lambda: coh.make_context(hc.dual(hc.generate("D4", F5))), (0, 1)),
    ("C3/F4", lambda: coh.make_context(hc.generate("C3", cr.make_ring(2, 1, 2))), (0, 1, 2)),
    ("S3/F25", lambda: coh.make_context(hc.generate("S3", cr.make_ring(5, 1, 2))), (0, 1)),
    ("C2.double/F5", lambda: coh.make_context(hc.generate("C2.double", F5)), (0, 1)),
    ("C2-C4", lambda: inclusion_context(), (0, 1)),
    ("C2-dualC2", counit_unit_context, (0, 1, 2)),
    ("C3-C3/F7", c3_counit_unit_context, (0, 1, 2)),
    ("C2/F5", lambda: CTX, (2,)),
    ("C3/F7", lambda: coh.make_context(hc.generate("C3", F7)), (2,)),
    ("S3/F(2^62-57)", lambda: coh.make_context(hc.generate("S3", F_BIG)), (0,)),
]


@pytest.mark.parametrize(
    "make_ctx,n",
    [(make, n) for _, make, ns in ASSEMBLY_CASES for n in ns],
    ids=[f"{label}-n{n}" for label, _, ns in ASSEMBLY_CASES for n in ns],
)
def test_dtotal_matrix_matches_dense_assembly(make_ctx, n):
    ctx = make_ctx()
    assert_same_coo(coh.dtotal_matrix(ctx, n), dense_assemble(ctx, n))


def test_dual_context_lives_in_its_parents_cache():
    # one d_coalg on a fresh context adds one entry to the LRU, not two
    coh._CACHE.clear()
    try:
        ctx = inclusion_context()
        coh.d_coalg(ctx, coh.random_cochain(ctx, 1, 0).components[(1, 0)])
        assert list(coh._CACHE) == [ctx.digest()]
        dual = ctx.dual()
        assert dual is ctx.dual() and dual.phi.verified
        assert (dual.A.dim, dual.B.dim) == (ctx.B.dim, ctx.A.dim)
    finally:
        coh._CACHE.clear()


def test_dimension_8_degree_2_from_sparse_solvers(monkeypatch):
    """cohomology_dim of D4/F3 in degrees 0-2, with the budget raised to 8.
    Every solver of ad_k and d_c ad_k gets a CooMatrix; neither a dense
    d_c ad_k nor a dense multiplication operator of B^{(x) k}, k >= 3, is built,
    here, in a cold lift of the same base or in d_total of a degree-2 cochain."""
    monkeypatch.setenv(coh.H2_BUDGET_ENV, "8")
    D4 = hc.generate("D4", cr.make_ring(3))
    ctx = coh.make_context(D4)
    na = nb = 8
    received, densified = [], []
    real_solver, real_toarray = coh.FieldSolver, CooMatrix.toarray

    def solver(desc, marr, rank_only=False):
        received.append((type(marr), tuple(marr.shape[:2])))
        return real_solver(desc, marr, rank_only)

    monkeypatch.setattr(coh, "FieldSolver", solver)
    monkeypatch.setattr(CooMatrix, "toarray", lambda self: densified.append(tuple(self.shape)) or real_toarray(self))
    coh._CACHE.clear()
    try:
        from hopflift import lifting as lf

        lf.lift(D4, 4, "perturbed:1")
        assert [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)] == [0, 0, 0]
        assert coh.is_cocycle(coh.d_total(coh.random_cochain(ctx, 1, 0)))  # d_alg on C^{0,2}
    finally:
        coh._CACHE.clear()
    ad_shapes = {(nb**k * na, nb**k) for k in (1, 2, 3)}
    dc_ad_shapes = {(nb ** (k + 1) * na, nb**k) for k in (1, 2, 3)}
    assert ad_shapes | dc_ad_shapes <= {shape for _, shape in received}
    assert all(kind is CooMatrix for kind, shape in received if shape in ad_shapes | dc_ad_shapes)
    assert not dc_ad_shapes & set(densified)
    # neither the solvers, which factor distinct rows by groups, nor the contraction densify an ad_k
    assert not {shape for shape in densified if shape in ad_shapes}


def counit_unit_map_context(a, b, p):
    """k[a] -> k[b] (or its dual, b ending in ".dual"), x |-> eps(x) 1, over F_p."""
    A, B = hc.generate(a, cr.make_ring(p)), hc.generate(b, cr.make_ring(p))
    phi = np.outer(B.unit.coeffs[..., 0], A.counit.coeffs[..., 0])[..., None]  # [b, a]
    return coh.make_context(A, B, hc.make_morphism(A, B, tc.MultiMap(A.ring, 1, 1, A.dim, B.dim, phi)))


def test_cohomology_dim_takes_the_bicomplex_only_when_neither_side_is_separable(monkeypatch):
    calls = []
    real = coh.dtotal_matrix
    monkeypatch.setattr(coh, "dtotal_matrix", lambda ctx, n: calls.append(n) or real(ctx, n))
    monkeypatch.setenv(coh.H2_BUDGET_ENV, "8")
    # A semisimple, or (p | |G|) only B cosemisimple: a reduced complex, no d_total
    for name, p in [("S3", 7), ("S3", 3), ("S3", 2), ("C6", 3), ("C3", 3), ("D4", 2)]:
        ctx = coh.make_context(hc.generate(name, cr.make_ring(p)))
        assert [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)] == [0, 0, 0]
    assert calls == []
    # k[G] -> k^G by the counit and unit, p | |G|: neither A nor B separable, and H != 0
    for a, b, p in [("C2", "C2.dual", 2), ("C3", "C3.dual", 3)]:
        ctx = counit_unit_map_context(a, b, p)
        assert not hc.is_semisimple(ctx.A) and not hc.is_cosemisimple(ctx.B)
        assert [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)] == [1, 2, 3]
        assert set(calls) == {0, 1, 2}
        calls.clear()


# p | |G|: A = B = k[G] is not semisimple but cosemisimple, so cohomology_dim
# takes the dual context's reduced complex; (name, p, top degree compared),
# the bicomplex's H^2 of D4/F2 and Q8/F2 being too slow for this suite
DUAL_ROUTE_CASES = [("S3", 2, 2), ("S3", 3, 2), ("C4", 2, 2), ("C6", 3, 2), ("C2xC2", 2, 2), ("D4", 2, 1), ("Q8", 2, 1)]


@pytest.mark.parametrize(
    "make_ctx,top",
    [(lambda name=name, p=p: coh.make_context(hc.generate(name, cr.make_ring(p))), top) for name, p, top in DUAL_ROUTE_CASES]
    + [(lambda: counit_unit_map_context("C2", "C4", 2), 2)],
    ids=[f"{name}/F{p}" for name, p, _ in DUAL_ROUTE_CASES] + ["C2-C4/F2"],
)
def test_dual_route_matches_bicomplex(make_ctx, top):
    ctx = make_ctx()
    assert coh._separability_idempotent(ctx) is None
    assert coh._separability_idempotent(ctx.dual()) is not None
    for n in range(top + 1):
        assert coh.cohomology_dim(ctx, n) == coh._bicomplex_dim(ctx, n)


def maschke_oracle(H):
    """The Maschke loop that is_semisimple used to be: some left integral has eps != 0."""
    E = H.counit.coeffs.reshape(H.dim, H.ring.m)
    return any(np.any(ra.tensordot(H.ring, E, vec, ([0], [0]))) for vec in hc.integral(H))


def test_semisimplicity_matches_maschke_oracle():
    from hopflift.acceptance import full_corpus

    groups = [hc.generate(name, cr.make_ring(p)) for name, p, _ in DUAL_ROUTE_CASES] + [hc.generate("C3", cr.make_ring(3))]
    presentations = [H for _, H in full_corpus(max_double_dim=16)] + groups + [hc.dual(H) for H in groups]
    verdicts = set()
    for H in presentations:
        verdict = (hc.is_semisimple(H), hc.is_cosemisimple(H))
        assert verdict == (maschke_oracle(H), maschke_oracle(hc.dual(H)))
        verdicts.add(verdict)
    assert verdicts == {(True, True), (False, True), (True, False)}


def test_separability_idempotent_refuses_a_non_hopf_presentation():
    # g g = 2 g leaves C2/F5 with no nonzero left integral
    mul = C2.mul.coeffs.copy()
    mul[:, 3, 0] = [0, 2]
    broken = hc.HopfPresentation(F5, 2, tc.MultiMap(F5, 2, 1, 2, 2, mul), *C2.tensors()[1:])
    assert len(hc.integral(broken)) == 0
    with pytest.raises(InternalAxiomFailure, match="not a line"):
        hc.separability_idempotent(broken)
    with pytest.raises(InternalAxiomFailure):
        coh.cohomology_dim(coh.make_context(broken), 0)


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


# --- the dense builders of ad_k, d_c ad_k, d^ and the multiplication operators:
# the oracles of the sparse ones in cohomology


def dense_mult_operator(ctx, k, side):
    """Left/right multiplication by phi^{k}(Delta_k(e_a)) on B^{(x) k}: [a, out, in]."""
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    cur = ctx.e_tensor(k).reshape((nb,) * k + (na, desc.m))
    for _ in range(k):
        cur = ra.tensordot(desc, cur, ctx.B.mul.coeffs.reshape(nb, nb, nb, desc.m), ([0], [1 if side == "left" else 2]))  # appends (o_t, i_t)
    perm = [0] + [1 + 2 * t for t in range(k)] + [2 + 2 * t for t in range(k)]
    return ra.transpose(cur, perm).reshape(na, nb**k, nb**k, desc.m)


def dense_ad_matrix(ctx, k):
    """m |-> a.m - m.a from B^{(x) k} to C^{0,k-1}: (nb^k * na, nb^k, m)."""
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    ad = ra.sub(desc, dense_mult_operator(ctx, k, "left"), dense_mult_operator(ctx, k, "right"))
    return np.ascontiguousarray(ra.transpose(ad, (1, 0, 2))).reshape(nb**k * na, nb**k, desc.m)


def dense_dc_ad_columns(ctx, k, ad, cols):
    """Columns cols of m |-> d_c(ad(m)) from B^{(x) k} to C^{0,k}, by the dense d_c."""
    na, nb, m = ctx.A.dim, ctx.B.dim, ctx.ring.m
    block = np.ascontiguousarray(ad[:, cols]).reshape(nb**k, na, len(cols), m)
    return dense_d_coalg_block(ctx, block, 0, k - 1).reshape(nb ** (k + 1) * na, len(cols), m)


def dense_coaction_operator(ctx, k, side):
    """phi(a^(1) products) paired with the legs a^(2) that f eats (left), or
    the mirror image (right): [b, f-leg, a] of shape (nb, na^k, na^k)."""
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    comul = ctx.A.comul.coeffs.reshape(na, na, na, desc.m)
    mk = tc.iterate(ctx.A, k, "product")
    cur = ra.tensordot(desc, ctx.phi.map.coeffs, mk.coeffs, ([1], [0]))  # phi o m_k: [b, u1..uk]
    cur = cur.reshape((nb,) + (na,) * k + (desc.m,))
    contract_axis = 0 if side == "left" else 1  # which Delta leg phi eats
    for _ in range(k):
        cur = ra.tensordot(desc, cur, comul, ([1], [contract_axis]))
    # axes: [b, v1, a1, v2, a2, ...] (left) or [b, u1, a1, ...] (right)
    perm = [0] + [1 + 2 * t for t in range(k)] + [2 + 2 * t for t in range(k)]
    return ra.transpose(cur, perm).reshape(nb, na**k, na**k, desc.m)


def dense_d_coalg_block(ctx, f, p, q):
    """The coalgebra differential of a block f: (nb^{q+1}, na^{p+1}, batch, m),
    term by term: the two coaction terms through dense operators of
    nb * na^{2(p+1)} cells, and the Delta_B terms on the legs of f."""
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    comul = ctx.B.comul.coeffs.reshape(nb, nb, nb, desc.m)
    f_legs = f.reshape((nb,) * (q + 1) + f.shape[1:])

    def coaction(side):
        # phi(a^(1) products) (x) f(a^(2)) (left) or f(a^(1)) (x) phi(a^(2)) (right)
        t = ra.tensordot(desc, dense_coaction_operator(ctx, p + 1, side), f, ([1], [1]))  # [b, a, o, batch]
        t = ra.transpose(t, (0, 2, 1, 3) if side == "left" else (2, 0, 1, 3))
        return t.reshape((nb ** (q + 2), na ** (p + 1)) + f.shape[2:])

    terms = [(1, coaction("left"))]
    for i in range(1, q + 2):
        t = ra.tensordot(desc, f_legs, comul, ([i - 1], [2]))  # (u, v) appended
        t = ra.moveaxis(t, [-2, -1], [i - 1, i])
        terms.append(((-1) ** i, t.reshape((nb ** (q + 2),) + f.shape[1:])))
    terms.append(((-1) ** (q + 2), coaction("right")))
    # reduced after every term, so exact in int64 for every q <= 2^62
    total = 0
    for sign, term in terms:
        total = (total + sign * term) % desc.q
    return total


def dense_hat_differential_matrix(ctx, q):
    """d: B^{(x) q+1} -> B^{(x) q+2} of the augmented coalgebra complex."""
    desc = ctx.ring
    nb = ctx.B.dim
    comul = ctx.B.comul.coeffs.reshape(nb, nb, nb, desc.m)
    ub = ctx.B.unit.coeffs.reshape(nb, desc.m)
    k = q + 1
    size_in, size_out = nb**k, nb ** (k + 1)
    mat = ra.zeros(desc, (size_out, size_in))
    eye = ra.eye(desc, size_in)
    mat = ra.add(desc, mat, ra.kron2(desc, ub.reshape(nb, 1, desc.m), eye))
    for i in range(1, k + 1):
        legs = eye.reshape((nb,) * k + (size_in, desc.m))
        t = ra.tensordot(desc, legs, comul, ([i - 1], [2]))
        t = ra.moveaxis(t, [-2, -1], [i - 1, i])
        mat = ra.add(desc, mat, ra.scale_int(desc, t.reshape(size_out, size_in, desc.m), (-1) ** i))
    term = ra.kron2(desc, eye, ub.reshape(nb, 1, desc.m))
    return ra.add(desc, mat, ra.scale_int(desc, term, (-1) ** (k + 1)))


def old_invariant_basis(ctx, k):
    """(B^{(x) k})^A as the kernel of a FieldSolver of its own."""
    return FieldSolver(ctx.ring, dense_ad_matrix(ctx, k)).kernel_basis()


def old_invariants_complex_dim(ctx, n):
    """The restricted differential solved vector by vector in the basis of the
    invariants of B^{(x) k+1}: the oracle of invariants_complex_dim."""
    desc = ctx.ring

    def restricted(qd):
        vin = old_invariant_basis(ctx, qd + 1)
        vout = old_invariant_basis(ctx, qd + 2)
        dmat = dense_hat_differential_matrix(ctx, qd)
        if not vin:
            return np.zeros((max(len(vout), 1), 0, desc.m), dtype=np.int64), 0, len(vout)
        images = [ra.tensordot(desc, dmat, v, ([1], [0])) for v in vin]
        if not vout:
            for img in images:
                if np.any(img):
                    raise InternalAxiomFailure("differential does not preserve invariants")
            return np.zeros((1, len(vin), desc.m), dtype=np.int64), len(vin), 0
        solver = FieldSolver(desc, np.stack(vout, axis=1))
        cols = []
        for img in images:
            c = solver.solve(img)
            if c is None:
                raise InternalAxiomFailure("differential does not preserve invariants")
            cols.append(c)
        return np.stack(cols, axis=1), len(vin), len(vout)

    mat_n, dim_n, _ = restricted(n)
    rank_n = FieldSolver(desc, mat_n, rank_only=True).rank if dim_n else 0
    kernel = dim_n - rank_n
    if n == 0:
        return kernel
    mat_prev, dim_prev, _ = restricted(n - 1)
    rank_prev = FieldSolver(desc, mat_prev, rank_only=True).rank if dim_prev else 0
    return kernel - rank_prev


def small_contexts():
    """The corpus of dimension <= 4, C3/F4 over F_{p^m}, and C3/F3 (A not semisimple)."""
    from hopflift.acceptance import full_corpus

    extra = [("C3/F4", hc.generate("C3", cr.make_ring(2, 1, 2))), ("C3/F3", hc.generate("C3", cr.make_ring(3)))]
    return [(label, H) for label, H in full_corpus(max_double_dim=4) if H.dim <= 4] + extra


SMALL_CONTEXTS = small_contexts()


@pytest.mark.parametrize("label,H", SMALL_CONTEXTS, ids=[label for label, _ in SMALL_CONTEXTS])
def test_invariants_complex_matches_old_oracle(label, H):
    ctx = coh.make_context(H)
    for k in (1, 2, 3, 4):
        old, new = old_invariant_basis(ctx, k), coh._ad_solver(ctx, k).kernel_basis()
        assert len(old) == len(new)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(old, new))
    assert [coh.invariants_complex_dim(ctx, n) for n in (0, 1, 2)] == [
        old_invariants_complex_dim(ctx, n) for n in (0, 1, 2)
    ]


def test_invariants_complex_checks_that_images_are_invariant(monkeypatch):
    # with ad_2 replaced by the identity, no nonzero image of d on B^A = B is invariant
    real = coh._ad_matrix
    eye = lambda k: CooMatrix.from_dense(ra.eye(F5, C2.dim**k))  # noqa: E731
    monkeypatch.setattr(coh, "_ad_matrix", lambda ctx, k: real(ctx, k) if k == 1 else eye(k))
    coh._CACHE.clear()
    try:
        with pytest.raises(InternalAxiomFailure, match="does not preserve invariants"):
            coh.invariants_complex_dim(CTX, 0)
    finally:
        coh._CACHE.clear()


# --- solves of degrees 1 and 2 by contraction (the lifting path) against the dense oracle ---

CONTRACTION_BASES = [
    ("D4", 3, 1),
    ("Q8", 7, 1),
    ("S3", 7, 1),
    ("C3", 2, 2),
    ("C2xC2", 5, 1),
    ("C2.double", 5, 1),
]


# B* != A on the duals, whose B is commutative (there the solution does not
# depend on t); D4/F5, Q8/F3 and S3/F25 need t on a noncommutative B, and
# S3/F25 and S3.dual/F25 run it over F_{p^2}
OBSTRUCTION_BASES = CONTRACTION_BASES + [
    ("S3.dual", 7, 1),
    ("D4.dual", 5, 1),
    ("S3", 5, 2),
    ("Q8", 3, 1),
    ("D4", 5, 1),
    ("S3.dual", 5, 2),
]


def assert_contracts_to_dense(z, x=None):
    """_contract_obstruction(z) is solve_coboundary(z) bit for bit (and x, when given)."""
    got, want = coh.vec_cochain(coh._contract_obstruction(z)), coh.vec_cochain(coh.solve_coboundary(z))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    if x is not None:
        assert np.array_equal(got, coh.vec_cochain(x))


@pytest.mark.parametrize("name,p,m", OBSTRUCTION_BASES, ids=[f"{n}/F{p**m}" for n, p, m in OBSTRUCTION_BASES])
def test_solve_obstruction_matches_dense(name, p, m):
    from hopflift import lifting as lf

    base = hc.generate(name, cr.make_ring(p, 1, m))
    ctx = coh.make_context(base)
    targets = []
    for seed in (1, 2, 3):
        mul, comul = lf.initial_lift(base, f"perturbed:{seed}")
        targets.append(lf.obstruction(mul, comul, base))
    targets += [coh.d_total(coh.random_cochain(ctx, 1, seed)) for seed in (4, 5)]
    for z in targets:
        assert_contracts_to_dense(z)
    con = coh._contraction(ctx)
    assert con.rank == coh._solver_for(ctx, 1).rank
    # the H^1 = 0 of Thm 1.2, which the contraction no longer certifies itself:
    # rank(ad_2) - rank(d_c ad_2) - rank(d_c ad_1) on the reduced complex
    assert coh._reduced_dim(ctx, 1) == 0


def column_homotopy(ctx, f):
    """t f = s_{B*}(f^T)^T: C^{p,q+1} -> C^{p,q}, the dual context's row homotopy on the transposed cochain."""
    dual = ctx.dual()
    out = coh._homotopy(dual, f.arity_in - 1, np.swapaxes(f.coeffs, 0, 1))
    return tc.MultiMap(ctx.ring, f.arity_in, f.arity_out - 1, ctx.A.dim, ctx.B.dim, np.swapaxes(out, 0, 1))


HOMOTOPY_BASES = [("S3", 7, 1), ("D4", 3, 1), ("Q8", 7, 1), ("S3.dual", 7, 1), ("C2.double", 5, 1), ("C3", 2, 2), ("S3", 5, 2)]


@pytest.mark.parametrize("name,p,m", HOMOTOPY_BASES, ids=[f"{n}/F{p**m}" for n, p, m in HOMOTOPY_BASES])
def test_column_homotopy_contracts_d_coalg(name, p, m):
    # the two identities behind the last column of _contract_obstruction:
    # d_c t + t d_c = id on C^{p,q}, q >= 1, and t d_a = d_a t
    ctx = coh.make_context(hc.generate(name, cr.make_ring(p, 1, m)))
    for seed, (pp, qq) in enumerate([(0, 1), (0, 2), (1, 1)]):
        f = coh.random_cochain(ctx, pp + qq, seed).components[(pp, qq)]
        assert coh.d_coalg(ctx, column_homotopy(ctx, f)) + column_homotopy(ctx, coh.d_coalg(ctx, f)) == f
    for seed, (pp, qq) in enumerate([(0, 1), (0, 2)], start=3):
        f = coh.random_cochain(ctx, pp + qq, seed).components[(pp, qq)]
        assert coh.d_alg(ctx, column_homotopy(ctx, f)) == column_homotopy(ctx, coh.d_alg(ctx, f))


def test_one_sided_context_is_refused():
    # k[C2] -> k^{C3} over F3: A is semisimple, B is not cosemisimple, and
    # H^0..2 = 0; the dense solve reaches every coboundary, the contraction
    # (which lifting's admission keeps from such a context) refuses them
    ctx = counit_unit_map_context("C2", "C3.dual", 3)
    assert coh._separability_idempotent(ctx) is not None and coh._separability_idempotent(ctx.dual()) is None
    assert [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)] == [0, 0, 0]
    for n in (1, 2):
        x = coh.random_cochain(ctx, n - 1, n)
        z = coh.d_total(x)
        assert coh.d_total(coh.solve_coboundary(z)) == z
        with pytest.raises(NotSemisimpleOrCosemisimple, match="B is not cosemisimple"):
            coh._contract_obstruction(z)
    with pytest.raises(NotSemisimpleOrCosemisimple, match="B is not cosemisimple"):
        coh._contraction(ctx)


def dense_bottom_scan(desc, d0):
    """The greedy rows of d_0 from its last row up, densely: the greedy pivot
    columns of its reversed transpose."""
    rev = FieldSolver(desc, np.ascontiguousarray(ra.transpose(d0.toarray(), (1, 0))[:, ::-1]), rank_only=True)
    return np.sort(d0.shape[0] - 1 - rev.pivot_cols)


# the two duals need real reductions in the sparse scan (dependent rows with
# fill-in), where the group algebras' rows mostly reduce in one step; C3/F4
# and S3/F25 scan the F_p regular representation
ROW_BASIS_BASES = CONTRACTION_BASES + [("D4.dual", 5, 1), ("S3.dual", 7, 1), ("S3", 5, 2)]


@pytest.mark.parametrize("name,p,m", ROW_BASIS_BASES, ids=[f"{n}/F{p**m}" for n, p, m in ROW_BASIS_BASES])
def test_d0_free_rows_match_dense_scan(name, p, m):
    ctx = coh.make_context(hc.generate(name, cr.make_ring(p, 1, m)))
    con = coh._contraction(ctx)
    d0 = coh.dtotal_matrix(ctx, 0)
    free = dense_bottom_scan(ctx.ring, d0)
    assert np.array_equal(con.free, free) and con.rank == d0.shape[0] - free.size
    # the one factorization is of d_0 itself, its rows reversed
    assert np.array_equal(con.d0_rev.M.toarray(), d0.toarray()[::-1])
    assert con.d0_rev.rank == free.size == d0.shape[1]


def inclusion_context():
    C4 = hc.generate("C4", F5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = inc[2, 1, 0] = 1
    return coh.make_context(C2, C4, hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc)))


@pytest.mark.parametrize("make_ctx", [counit_unit_context, inclusion_context], ids=["C2-dualC2", "C2-C4"])
def test_solve_obstruction_nonidentity_phi(make_ctx):
    # the idempotent lives in A and acts on B through phi
    ctx = make_ctx()
    for seed in range(3):
        assert_contracts_to_dense(coh.d_total(coh.random_cochain(ctx, 1, seed)))
    assert coh._contraction(ctx).rank == coh._solver_for(ctx, 1).rank


# degree 1, the map lifts: H^0 = 0 makes d_0 injective, so the contraction of
# d_0(x) is x itself; over F_p and F_{p^2}, with phi = id and phi != id
DEGREE1_CONTEXTS = {
    "C2/F5": lambda: CTX,
    "S3/F7": lambda: coh.make_context(hc.generate("S3", F7)),
    "D4/F3": lambda: coh.make_context(hc.generate("D4", cr.make_ring(3))),
    "Q8/F7": lambda: coh.make_context(hc.generate("Q8", F7)),
    "S3.dual/F7": lambda: coh.make_context(hc.generate("S3.dual", F7)),
    "D4.dual/F5": lambda: coh.make_context(hc.generate("D4.dual", F5)),
    "C2.double/F5": lambda: coh.make_context(hc.generate("C2.double", F5)),
    "C3/F4": lambda: coh.make_context(hc.generate("C3", cr.make_ring(2, 1, 2))),
    "S3/F25": lambda: coh.make_context(hc.generate("S3", cr.make_ring(5, 1, 2))),
    "C2-dualC2": counit_unit_context,
    "C2-C4": inclusion_context,
}


@pytest.mark.parametrize("label", sorted(DEGREE1_CONTEXTS))
def test_degree1_contraction_matches_dense(label):
    ctx = DEGREE1_CONTEXTS[label]()
    for seed in range(3):
        x = coh.random_cochain(ctx, 0, seed)
        assert_contracts_to_dense(coh.d_total(x), x)
    assert_contracts_to_dense(coh.zero_cochain(ctx, 1), coh.zero_cochain(ctx, 0))


@pytest.mark.parametrize("n", [1, 2])
def test_contract_obstruction_of_noncocycle_fails_the_check(n):
    # unchecked: a z that is not closed has no solution, and d_total of what
    # the contraction returns differs from z, which the lift certificates see
    z = coh.random_cochain(CTX, n, 5)
    assert not coh.is_cocycle(z)
    assert coh.d_total(coh._contract_obstruction(z)) != z


def test_contraction_solves_degrees_1_and_2_only():
    for n in (0, 3):
        with pytest.raises(ArityMismatch):
            coh._contract_obstruction(coh.zero_cochain(CTX, n))


def test_tampered_idempotent_raises(monkeypatch):
    # the unit is no integral: e = 1 (x) 1 has m(e) = 1 but is not central
    from hopflift.errors import InternalAxiomFailure

    H = hc.generate("C2xC2", F5)
    unit = H.unit.coeffs.reshape(H.dim, 1)
    monkeypatch.setattr(hc, "integral", lambda A: [unit])
    coh._CACHE.clear()
    try:
        with pytest.raises(InternalAxiomFailure, match="separability idempotent"):
            coh._contraction(coh.make_context(H))
    finally:
        coh._CACHE.clear()


def test_separability_idempotent_is_built_once_per_context(monkeypatch):
    # cohomology_dim in degrees 0-2 and the contraction share A's idempotent,
    # and the contraction reads B*'s too: one integral of each; a
    # non-semisimple A has none, and no contraction
    calls = []
    real = hc.integral
    monkeypatch.setattr(hc, "integral", lambda A: calls.append(A) or real(A))
    coh._CACHE.clear()
    try:
        S3 = hc.generate("S3", F7)
        s3 = coh.make_context(S3)
        assert [coh.cohomology_dim(s3, n) for n in (0, 1, 2)] == [0, 0, 0]
        coh._contraction(s3)
        coh._contraction(s3)
        assert calls == [S3, hc.dual(S3)]
        c3 = coh.make_context(hc.generate("C3", cr.make_ring(3)))
        assert coh._separability_idempotent(c3) is None
        with pytest.raises(NotSemisimpleOrCosemisimple, match="A is not semisimple"):
            coh._contraction(c3)
    finally:
        coh._CACHE.clear()


def test_tampered_dual_idempotent_raises(monkeypatch):
    # the B-side mirror of test_tampered_idempotent_raises: B*'s unit is no
    # integral, and e = 1 (x) 1 is not central in the commutative, non-scalar B*
    S3 = hc.generate("S3", F7)
    real = hc.integral
    monkeypatch.setattr(hc, "integral", lambda H: real(H) if H == S3 else [H.unit.coeffs.reshape(H.dim, 1)])
    coh._CACHE.clear()
    try:
        with pytest.raises(InternalAxiomFailure, match="separability idempotent"):
            coh._contraction(coh.make_context(S3))
    finally:
        coh._CACHE.clear()
