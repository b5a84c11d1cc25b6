"""FieldSolver's sketched path and the exact kernels at large moduli.

Oracles: the same elimination on the unsketched matrix (P = I), and plain
Gauss-Jordan elimination in Python ints.
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
