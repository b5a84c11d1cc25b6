"""FieldSolver's sketched path and the exact kernels at large moduli.

Oracles: the same elimination on the unsketched matrix (P = I), plain
Gauss-Jordan elimination in Python ints, and over F_{p^m} a Gauss-Jordan
elimination on [M | I] in the extension field itself, which FieldSolver's
F_p elimination of the regular representation must match bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflift import _arrays as ra
from hopflift import _linalg
from hopflift import coeffring as cr
from hopflift._linalg import CooMatrix, FieldSolver

F2 = cr.make_ring(2)
F7 = cr.make_ring(7)
F4 = cr.make_ring(2, 1, 2)
F9 = cr.make_ring(3, 1, 2)
P31 = 2147483647  # 2^31 - 1: (p - 1)^2 just below 2^62, the int64 side
P31_UP = 2147483659  # smallest prime above 2^31: object side
P32 = 4294967291  # largest prime below 2^32


def planted(desc, rows, cols, rank, seed):
    """rows x cols matrix of rank <= rank, with zero and repeated rows mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, desc.q, size=(rows, rank, desc.m)).astype(np.int64)
    b = rng.integers(0, desc.q, size=(rank, cols, desc.m)).astype(np.int64)
    mat = ra.tensordot(desc, a, b, ([1], [0]))
    mat[rng.choice(rows, size=rows // 5, replace=False)] = 0
    dup = rng.choice(rows, size=rows // 5, replace=False)
    mat[dup] = mat[rng.integers(0, rows, size=dup.size)]
    return mat


def dense_solver(desc, mat, monkeypatch):
    """The same elimination without a sketch: no seed certifies, so P = I."""
    with monkeypatch.context() as mp:
        mp.setattr(_linalg, "_SKETCH_SEEDS", ())
        return FieldSolver(desc, mat)


def assert_same(desc, sketched, dense, mat, seed):
    assert sketched.rank == dense.rank
    assert np.array_equal(sketched.pivot_cols, dense.pivot_cols)
    got, want = sketched.kernel_basis(), dense.kernel_basis()
    assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
    rng = np.random.default_rng(seed + 1)
    x0 = rng.integers(0, desc.q, size=(mat.shape[1], 3, desc.m)).astype(np.int64)
    consistent = ra.tensordot(desc, mat, x0, ([1], [0]))
    for rhs in (consistent, consistent[:, 0], np.zeros_like(consistent)):
        a, b = sketched.solve(rhs), dense.solve(rhs)
        assert a is not None and np.array_equal(a, b)
    # a tall matrix misses almost every random right-hand side
    misses = 0
    for t in range(3):
        rhs = rng.integers(0, desc.q, size=(mat.shape[0], desc.m)).astype(np.int64)
        a, b = sketched.solve(rhs), dense.solve(rhs)
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b)
        misses += a is None
    assert misses


@pytest.mark.parametrize("desc", [F2, F7, F4, F9], ids=["F2", "F7", "F4", "F9"])
@pytest.mark.parametrize("seed", range(4))
def test_sketched_matches_dense(desc, seed, monkeypatch):
    rng = np.random.default_rng([seed, desc.q, desc.m])
    cols = int(rng.integers(1, 30))
    rows = cols + _linalg._SKETCH_MARGIN + int(rng.integers(1, 120))
    rank = int(rng.integers(0, cols + 1))
    mat = planted(desc, rows, cols, rank, seed)
    sketched = FieldSolver(desc, mat)
    assert sketched._sketch is not None, "a tall input must take the sketched path"
    assert_same(desc, sketched, dense_solver(desc, mat, monkeypatch), mat, seed)
    # a CooMatrix input gives the same answers as its dense form
    coo = FieldSolver(desc, CooMatrix.from_dense(mat))
    assert coo.rank == sketched.rank and np.array_equal(coo.pivot_cols, sketched.pivot_cols)


def test_failed_certificate_falls_back_to_dense(monkeypatch):
    # row 0 is the only row with an entry in column 0; a sketch that drops it
    # loses that pivot, so ker(P.M) contains e_0 and M.e_0 != 0 fails the check
    desc = F7
    mat = planted(desc, 120, 10, 10, 3)
    mat[:, 0] = 0
    mat[0, 0] = 1
    real_sketch = _linalg._make_sketch
    calls = []

    def dropping_sketch(nrows, k, q, seed):
        calls.append(seed)
        bucket, coeff = real_sketch(nrows, k, q, seed)
        coeff = coeff.copy()
        coeff[0] = 0
        return bucket, coeff

    monkeypatch.setattr(_linalg, "_make_sketch", dropping_sketch)
    solver = FieldSolver(desc, mat)
    monkeypatch.undo()
    assert calls == list(_linalg._SKETCH_SEEDS)
    assert solver._sketch is None
    assert 0 in solver.pivot_cols
    assert_same(desc, solver, dense_solver(desc, mat, monkeypatch), mat, 3)


def test_wide_and_square_inputs_are_not_sketched():
    for rows, cols in ((10, 40), (40, 40), (40 + _linalg._SKETCH_MARGIN, 40)):
        mat = planted(F7, rows, cols, 5, rows)
        assert FieldSolver(F7, mat)._sketch is None


def test_rank_only_sketched_keeps_no_factor():
    mat = planted(F7, 200, 20, 12, 5)
    solver = FieldSolver(F7, mat, rank_only=True)
    assert solver.rank == 12 and solver._U is None
    with pytest.raises(ValueError):
        solver.kernel_basis()


# --- Python-int oracle ---


def gauss_jordan(rows, p):
    """RREF of a list of int rows over F_p; returns (pivot columns, RREF rows)."""
    rows = [[v % p for v in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots, out = [], []
    for c in range(ncols):
        hit = next((r for r in rows if r[c]), None)
        if hit is None:
            continue
        rows.remove(hit)
        inv = pow(hit[c], p - 2, p)
        hit = [v * inv % p for v in hit]
        rows = [[(v - r[c] * h) % p for v, h in zip(r, hit)] for r in rows]
        out = [[(v - o[c] * h) % p for v, h in zip(o, hit)] for o in out]
        out.append(hit)
        pivots.append(c)
    return pivots, out


@pytest.mark.parametrize("p", [P31, P31_UP, P32])
def test_field_solver_at_large_primes(p):
    desc = cr.make_ring(p)
    rng = np.random.default_rng(p % 1000)
    for rows, cols, rank in ((6, 5, 4), (90, 7, 5), (8, 12, 8)):
        a = [[int(v) for v in rng.integers(0, p, size=rank)] for _ in range(rows)]
        b = [[int(v) for v in rng.integers(0, p, size=cols)] for _ in range(rank)]
        mat = [[sum(x * y for x, y in zip(r, col)) % p for col in zip(*b)] for r in a]
        arr = np.array(mat, dtype=np.int64)[..., None]
        solver = FieldSolver(desc, arr)
        pivots, rref = gauss_jordan(mat, p)
        assert list(solver.pivot_cols) == pivots
        free = [c for c in range(cols) if c not in pivots]
        want = []
        for c in free:
            vec = [0] * cols
            vec[c] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = -rref[i][c] % p
            want.append(vec)
        assert [list(map(int, v[:, 0])) for v in solver.kernel_basis()] == want
        x0 = [int(v) for v in rng.integers(0, p, size=cols)]
        rhs = [sum(x * y for x, y in zip(r, x0)) % p for r in mat]
        _, aug = gauss_jordan([r + [v] for r, v in zip(mat, rhs)], p)
        canon = [0] * cols
        for i, pc in enumerate(pivots):
            canon[pc] = aug[i][-1]
        got = solver.solve(np.array(rhs, dtype=np.int64)[:, None])
        assert list(map(int, got[:, 0])) == canon
        if rank < rows:  # rows 0..rank of a are independent, so row 0 is needed
            bad = list(rhs)
            bad[0] = (bad[0] + 1) % p
            assert solver.solve(np.array(bad, dtype=np.int64)[:, None]) is None


def poly_mul_oracle(desc, a, b):
    """Product in Z/q[x]/(modulus) with Python ints."""
    q, m = desc.q, desc.m
    conv = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            conv[i + j] += int(a[i]) * int(b[j])
    for t in range(2 * m - 2, m - 1, -1):
        top = conv[t]
        conv[t] = 0
        for i in range(m):
            conv[t - m + i] -= top * desc.modulus[i]
    return [c % q for c in conv[:m]]


LARGE_RINGS = [
    cr.make_ring(P31),
    cr.make_ring(P31_UP),
    cr.make_ring(P32),
    cr.make_ring(7, 12),
    cr.make_ring(7, 12, 2),
    cr.make_ring(2, 40, 3),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LARGE_RINGS), st.data())
def test_kernels_exact_at_large_moduli(desc, data):
    q, m = desc.q, desc.m
    elem = st.lists(st.integers(0, q - 1), min_size=m, max_size=m)
    a, b = data.draw(elem), data.draw(elem)
    c = data.draw(st.integers(-(q**2), q**2))
    arr_a, arr_b = np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)
    assert list(map(int, ra.elem_mul(desc, arr_a, arr_b)[0])) == (
        [a[0] * b[0] % q] if m == 1 else poly_mul_oracle(desc, a, b)
    )
    assert list(map(int, ra.scale_int(desc, arr_a, c)[0])) == [v * c % q for v in a]
    x = [0] * m
    if m > 1:
        x[1] = 1
        assert list(map(int, ra.mul_x(desc, arr_a)[0])) == poly_mul_oracle(desc, a, x)
    assert int(ra.mul_mod(np.array([a[0]]), np.array([b[0]]), q)[0]) == a[0] * b[0] % q


def test_elem_mul_regression_gr_7_12():
    desc = cr.make_ring(7, 12)
    top = np.array([[desc.q - 1]], dtype=np.int64)
    assert ra.elem_mul(desc, top, top)[0, 0] == 1


EXTENSION_RINGS = [cr.make_ring(2, 1, 2), cr.make_ring(3, 1, 2), cr.make_ring(7, 12, 2), cr.make_ring(2, 40, 3)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(EXTENSION_RINGS), st.integers(0, 2**32 - 1))
def test_tensordot_extension_matches_oracle(desc, seed):
    # contraction over F_{p^m} / GR(p^n, m) against Python-int polynomial products
    rng = np.random.default_rng(seed)
    q, m = desc.q, desc.m
    a = rng.integers(0, q, size=(2, 3, 2, m), dtype=np.int64)
    b = rng.integers(0, q, size=(3, 2, m), dtype=np.int64)
    got = ra.tensordot(desc, a, b, ([1], [0]))  # [i, k, l]
    assert got.shape == (2, 2, 2, m)
    for i, k, l in np.ndindex(2, 2, 2):
        want = [0] * m
        for j in range(3):
            want = [(w + c) % q for w, c in zip(want, poly_mul_oracle(desc, a[i, j, k], b[j, l]))]
        assert list(map(int, got[i, k, l])) == want
    # a first operand expanded once by the caller gives the same bits
    assert np.array_equal(ra.tensordot(desc, a, b, ([1], [0]), ra.expand(desc, a)), got)


# --- extension-field oracle: Gauss-Jordan on [M | I] over F_{p^m} ---


def gauss_jordan_ext(desc, marr):
    """Full Gauss-Jordan over F_{p^m} on [M | I], columns left to right, the
    first unused row in original order as pivot.  Returns the pivot columns,
    the RREF rows at those columns and the row-operation trail E, so that
    x[pivots] = E b is the canonical solution of a consistent M x = b."""
    R, C = marr.shape[0], marr.shape[1]
    W = np.concatenate([marr % desc.q, ra.eye(desc, R)], axis=1)
    unused = np.ones(R, dtype=bool)
    pivot_rows, pivot_cols = [], []
    for c in range(C):
        cand = np.flatnonzero(np.any(W[:, c] != 0, axis=-1) & unused)
        if cand.size == 0:
            continue
        r = int(cand[0])
        W[r] = ra.elem_mul(desc, W[r], cr._inv_coeffs_field(desc, W[r, c])[None, :])
        mask = np.any(W[:, c] != 0, axis=-1)
        mask[r] = False
        rows = np.flatnonzero(mask)
        if rows.size:
            W[rows] = ra.sub(desc, W[rows], ra.elem_mul(desc, W[rows, c][:, None, :], W[r][None, :, :]))
        unused[r] = False
        pivot_rows.append(r)
        pivot_cols.append(c)
    piv = W[pivot_rows].reshape(len(pivot_rows), R + C, desc.m)
    return np.array(pivot_cols, dtype=np.int64), piv[:, :C], piv[:, C:]


class ExtOracle:
    """Rank, pivots, kernel and canonical solutions from gauss_jordan_ext."""

    def __init__(self, desc, marr):
        self.desc, self.marr = desc, marr % desc.q
        self.pivot_cols, self.rref, self.E = gauss_jordan_ext(desc, marr)
        self.rank = len(self.pivot_cols)

    def kernel_basis(self):
        C = self.marr.shape[1]
        out = []
        for f in np.setdiff1d(np.arange(C), self.pivot_cols):
            vec = ra.zeros(self.desc, (C,))
            vec[f, 0] = 1
            vec[self.pivot_cols] = ra.neg(self.desc, self.rref[:, f])
            out.append(vec)
        return out

    def solve(self, rhs):
        desc = self.desc
        b = rhs % desc.q
        x = ra.zeros(desc, (self.marr.shape[1],) + rhs.shape[1:-1])
        if self.rank:
            x[self.pivot_cols] = ra.tensordot(desc, self.E, b, ([1], [0]))
        return x if np.array_equal(ra.tensordot(desc, self.marr, x, ([1], [0])), b) else None


F8 = cr.make_ring(2, 1, 3)
F25 = cr.make_ring(5, 1, 2)
# F_{p^2} at p = 2^31 + 11, x^2 + 1 irreducible as p = 3 mod 4: the object-dtype side
F_P31_UP_2 = cr.make_ring(P31_UP, 1, 2, modulus=[1, 0, 1])
EXT_FIELDS = [F4, F8, F9, F25, F_P31_UP_2]
# (rows, cols): wide, square, tall but not sketched, tall and sketched
EXT_SHAPES = [(5, 14), (12, 12), (30, 9), (9 + _linalg._SKETCH_MARGIN + 40, 9)]


def ext_matrix(desc, rows, cols, kind, seed):
    if kind == "zero":
        return ra.zeros(desc, (rows, cols))
    rng = np.random.default_rng(seed)
    while kind == "full":
        mat = rng.integers(0, desc.q, size=(rows, cols, desc.m)).astype(np.int64)
        if len(gauss_jordan_ext(desc, mat)[0]) == min(rows, cols):
            return mat
    return planted(desc, rows, cols, max(1, min(rows, cols) // 2), seed)


def assert_matches_ext_oracle(desc, solver, oracle, seed):
    assert solver.rank == oracle.rank
    assert np.array_equal(solver.pivot_cols, oracle.pivot_cols)
    got, want = solver.kernel_basis(), oracle.kernel_basis()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    mat = oracle.marr
    rng = np.random.default_rng(seed + 7)
    x0 = rng.integers(0, desc.q, size=(mat.shape[1], 3, desc.m)).astype(np.int64)
    consistent = ra.tensordot(desc, mat, x0, ([1], [0]))
    random_rhs = rng.integers(0, desc.q, size=(mat.shape[0], 2, desc.m)).astype(np.int64)
    for rhs in (consistent, consistent[:, 0], np.zeros_like(consistent), random_rhs, random_rhs[:, 1]):
        a, b = solver.solve(rhs), oracle.solve(rhs)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)
    assert solver.factors(mat)
    other = mat.copy()
    other[0, 0, 0] = (other[0, 0, 0] + 1) % desc.q
    assert not solver.factors(other)


@pytest.mark.parametrize("desc", EXT_FIELDS, ids=["F4", "F8", "F9", "F25", "F_P31_UP_2"])
@pytest.mark.parametrize("shape", EXT_SHAPES, ids=["wide", "square", "tall", "sketched"])
@pytest.mark.parametrize("kind", ["zero", "full", "deficient"])
def test_extension_field_solver_matches_gauss_jordan(desc, shape, kind, monkeypatch):
    rows, cols = shape
    seed = rows * 31 + cols + desc.p * desc.m
    mat = ext_matrix(desc, rows, cols, kind, seed)
    oracle = ExtOracle(desc, mat)
    assert oracle.rank == {"zero": 0, "full": min(rows, cols)}.get(kind, oracle.rank)
    solver = FieldSolver(desc, mat)
    assert (solver._sketch is not None) == (rows > cols + _linalg._SKETCH_MARGIN)
    assert_matches_ext_oracle(desc, solver, oracle, seed)
    assert_matches_ext_oracle(desc, FieldSolver(desc, CooMatrix.from_dense(mat)), oracle, seed)
    # the failed-certificate fallback: no seed certifies, so the input itself is factored
    with monkeypatch.context() as mp:
        mp.setattr(_linalg, "_SKETCH_SEEDS", ())
        for marr in (mat, CooMatrix.from_dense(mat)):
            solver = FieldSolver(desc, marr)
            assert solver._sketch is None
            assert_matches_ext_oracle(desc, solver, oracle, seed)


def hensel_oracle(desc, marr, rhs):
    """The unique x with M x = rhs over GR(p^n, m), one p-digit per
    gauss_jordan_ext solve of the reduced system."""
    fdesc = desc.residue()
    oracle = ExtOracle(fdesc, marr % desc.p)
    x = np.zeros((marr.shape[1],) + rhs.shape[1:], dtype=np.int64)
    for k in range(desc.n):
        resid = ra.sub(desc, rhs, ra.tensordot(desc, marr, x, ([1], [0])))
        x = (x + desc.p**k * oracle.solve((resid // desc.p**k) % desc.p)) % desc.q
    return x


@pytest.mark.parametrize("desc", [cr.make_ring(2, 3, 2), cr.make_ring(5, 2, 2)], ids=["GR8_2", "GR25_2"])
@pytest.mark.parametrize("size", [1, 4, 9])
def test_extension_hensel_matches_gauss_jordan(desc, size):
    rng = np.random.default_rng([desc.p, desc.n, size])
    fdesc = desc.residue()
    while True:
        marr = rng.integers(0, desc.q, size=(size, size, desc.m)).astype(np.int64)
        if ExtOracle(fdesc, marr % desc.p).rank == size:
            break
    for shape in ((size, desc.m), (size, 3, desc.m)):
        rhs = rng.integers(0, desc.q, size=shape).astype(np.int64)
        want = hensel_oracle(desc, marr, rhs)
        assert np.array_equal(ra.tensordot(desc, marr, want, ([1], [0])), rhs)
        for solver in (None, FieldSolver(fdesc, marr % desc.p)):
            got = cr.hensel_solve_array(desc, marr, rhs, solver)
            assert got.dtype == want.dtype and np.array_equal(got, want)
