"""FieldSolver against dense eliminations, and the exact kernels at large moduli.

Oracles: Gauss-Jordan elimination over F_p of the regular representation,
written here in numpy and Python ints, which FieldSolver's grouped factor of
the distinct rows must match bit for bit; plain Gauss-Jordan elimination in
Python ints; and over F_{p^m} a Gauss-Jordan elimination on [M | I] in the
extension field itself.
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
P62 = (1 << 62) - 57  # largest prime below 2^62: sums of two residues need Python ints


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


def regular_fp(desc, mat):
    """The F_p matrix of mat's regular representation, from Python-int
    polynomial products: entry ((r, i), (c, j)) is coefficient i of
    mat[r, c] x^j."""
    R, C, m = mat.shape
    out = np.zeros((R * m, C * m), dtype=np.int64)
    for r, c in zip(*np.nonzero(np.any(mat != 0, axis=-1))):
        for j in range(m):
            out[r * m : r * m + m, c * m + j] = poly_mul_oracle(desc, mat[r, c], [int(t == j) for t in range(m)])
    return out


class DenseOracle:
    """Gauss-Jordan over F_p on [A | I], A the F_p matrix of the regular
    representation of the whole input: columns left to right, the first unused
    row in input order as pivot, row operations in int64 (p < 2^31), the
    solution's products in Python ints.  Gives FieldSolver's outputs as its
    docstring states them."""

    def __init__(self, desc, mat):
        p, m = desc.q, desc.m
        self.desc, self.mat = desc, mat % p
        A = regular_fp(desc, self.mat)
        R, C = A.shape
        W = np.concatenate([A, np.eye(R, dtype=np.int64)], axis=1)
        unused = np.ones(R, dtype=bool)
        rows, cols = [], []
        for c in range(C):
            cand = np.flatnonzero((W[:, c] != 0) & unused)
            if cand.size == 0:
                continue
            r = int(cand[0])
            W[r] = W[r] * pow(int(W[r, c]), p - 2, p) % p
            f = W[:, c].copy()
            f[r] = 0
            W = (W - np.outer(f, W[r]) % p) % p
            unused[r] = False
            rows.append(r)
            cols.append(c)
        self.A, self.pcols = A, np.array(cols, dtype=np.int64)
        # the F_p pivot columns come in whole blocks (c, 0..m-1)
        assert np.array_equal(self.pcols, np.repeat(self.pcols[::m], m) + np.tile(np.arange(m), len(cols) // m))
        self.pivot_rows, self.pivot_cols = np.array(rows, dtype=np.int64), self.pcols[::m] // m
        self.rank = len(self.pivot_cols)
        self.rref, self.E = W[rows, :C], W[rows, C:]

    def kernel_basis(self):
        p, m = self.desc.q, self.desc.m
        C = self.mat.shape[1]
        out = []
        for f in np.setdiff1d(np.arange(C), self.pivot_cols):
            vec = np.zeros(C * m, dtype=np.int64)
            vec[f * m] = 1
            vec[self.pcols] = -self.rref[:, f * m] % p
            out.append(vec.reshape(C, m))
        return out

    def solve(self, rhs):
        p, m = self.desc.q, self.desc.m
        R, C = self.mat.shape[:2]
        w = int(np.prod(rhs.shape[1:-1]))
        b = (rhs % p).reshape(R, w, m).swapaxes(1, 2).reshape(R * m, w).astype(object)
        x = np.zeros((C * m, w), dtype=object)
        x[self.pcols] = self.E.astype(object).dot(b) % p
        if np.any(self.A.astype(object).dot(x) % p != b):
            return None
        return np.ascontiguousarray(x.astype(np.int64).reshape(C, m, w).swapaxes(1, 2)).reshape((C,) + rhs.shape[1:])


def assert_matches_dense_oracle(desc, solver, oracle):
    assert solver.rank == oracle.rank
    assert np.array_equal(solver.pivot_cols, oracle.pivot_cols)
    assert np.array_equal(solver.pivot_rows, oracle.pivot_rows)
    if solver.rank_only:
        return
    got, want = solver.kernel_basis(), oracle.kernel_basis()
    assert len(got) == len(want) and all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want))


def block_matrix(desc, rng, kind):
    """A block-diagonal matrix of planted blocks and chains, with zero rows and
    columns added, some nonzero rows repeated and the rows and columns shuffled:
    no nonzeros ("empty"), one block ("one"), a few small blocks ("blocks"),
    small blocks over more than 64 columns, so that several groups form
    ("wide"), or many blocks of 1-6 columns in one group ("narrow")."""
    q, m = desc.q, desc.m
    small = lambda: (int(rng.integers(1, 8)), int(rng.integers(1, 12)))  # noqa: E731
    shapes = {"empty": [], "one": [(int(rng.integers(1, 25)), int(rng.integers(1, 25)))], "narrow": []}.get(kind)
    if kind == "narrow":
        # at most 60 columns: each block, chain or planted, spans at most 6
        while sum(max(c, r + 1) for r, c in shapes) <= 54:
            shapes.append((int(rng.integers(1, 6)), int(rng.integers(1, 7))))
    elif shapes is None:
        shapes = [small() for _ in range(int(rng.integers(2, 6)))]
        while kind == "wide" and sum(c for _, c in shapes) <= 64:
            shapes.append(small())
    R = sum(r for r, _ in shapes) + int(rng.integers(0, 4))
    # a chain of r rows takes r + 1 columns; the rest are zero columns
    C = sum(max(c, r + 1) for r, c in shapes) + int(rng.integers(0, 4))
    C += int(rng.integers(0, 70)) if kind == "empty" else 0
    mat = np.zeros((R, C, m), dtype=np.int64)
    r0 = c0 = 0
    for r, c in shapes:
        if rng.random() < 0.3:
            # a chain: row i joins columns i and i + 1, so that a component
            # spans many rows
            c = r + 1
            block = np.zeros((r, c, m), dtype=np.int64)
            block[np.arange(r), np.arange(r)] = block[np.arange(r), np.arange(1, c)] = 1
            block *= rng.integers(0, q, size=(r, c, m))
        else:
            rank = int(rng.integers(1, min(r, c) + 1))
            a = rng.integers(0, q, size=(r, rank, m)).astype(np.int64)
            b = rng.integers(0, q, size=(rank, c, m)).astype(np.int64)
            block = ra.tensordot(desc, a, b, ([1], [0]))
        mat[r0 : r0 + r, c0 : c0 + c] = block
        r0, c0 = r0 + r, c0 + c
    nonzero = np.flatnonzero(np.any(mat != 0, axis=(1, 2)))
    if nonzero.size:
        mat = np.concatenate([mat, mat[rng.choice(nonzero, size=int(rng.integers(1, 6)))]])
    return mat[rng.permutation(mat.shape[0])][:, rng.permutation(C)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([F2, F7, cr.make_ring(P31), F4, F9]),
    st.sampled_from(["empty", "one", "blocks", "wide", "narrow"]),
    st.integers(0, 2**32 - 1),
)
def test_grouped_factor_matches_dense_oracle(desc, kind, seed):
    rng = np.random.default_rng(seed)
    mat = block_matrix(desc, rng, kind)
    oracle = DenseOracle(desc, mat)
    for marr in (mat, CooMatrix.from_dense(mat)):
        solver = FieldSolver(desc, marr)
        assert_matches_dense_oracle(desc, solver, oracle)
        assert_matches_dense_oracle(desc, FieldSolver(desc, marr, rank_only=True), oracle)
    if kind == "wide":
        assert len(solver._groups) > 1
    if kind == "narrow":
        assert len(solver._groups) == 1
    R, C = mat.shape[:2]
    x0 = rng.integers(0, desc.q, size=(C, 2, desc.m)).astype(np.int64)
    consistent = ra.tensordot(desc, mat, x0, ([1], [0]))
    for rhs in (consistent, consistent[:, 0], np.zeros_like(consistent)):
        got, want = solver.solve(rhs), oracle.solve(rhs)
        assert got is not None and want is not None
        assert got.shape == want.shape and np.array_equal(got, want)
    # a right-hand side that differs only on a row repeating an earlier one,
    # which the factor drops
    repeats = [r for r in range(R) if np.any(mat[r]) and any(np.array_equal(mat[r], mat[s]) for s in range(r))]
    if repeats:
        bad = consistent[:, 0].copy()
        bad[repeats[-1], 0] = (bad[repeats[-1], 0] + 1) % desc.q
        assert solver.solve(bad) is None and oracle.solve(bad) is None


def test_distinct_rows_keep_the_first_of_each_repeat():
    mat = np.zeros((7, 4, 1), dtype=np.int64)
    mat[[0, 2, 5], 1] = 3  # rows 0, 2 and 5 are equal
    mat[[1, 4], 0] = 1
    mat[[1, 4], 3] = 2  # rows 1 and 4 are equal
    mat[6, [0, 3]] = 1  # row 6 has row 1's columns and other values
    coo = CooMatrix.from_dense(mat)
    keep = _linalg._distinct_rows(coo)
    assert np.unique(coo.rows[keep]).tolist() == [0, 1, 6]


def test_components_label_each_column_by_its_first_column():
    # rows join columns 5-2, 2-7, 0-3 and 3-6-1; column 4 has no entries
    pairs = [(0, 5), (0, 2), (1, 2), (1, 7), (2, 0), (2, 3), (3, 3), (3, 6), (3, 1)]
    rows, cols = (np.array(v) for v in zip(*pairs))
    assert _linalg._components(8, rows, cols).tolist() == [0, 0, 2, 0, 4, 2, 0, 2]


def test_components_pack_by_first_column_into_groups():
    # components of widths 40, 30, 20, 70 and 4 (by first column) pack as
    # [40], [30, 20], [70], [4]
    widths = [40, 30, 20, 70, 4]
    label = np.repeat(np.cumsum([0] + widths[:-1]), widths)
    assert _linalg._pack(label).tolist() == [0] * 40 + [1] * 50 + [2] * 70 + [3] * 4


@pytest.mark.parametrize("desc", [F2, F7, F4, F9], ids=["F2", "F7", "F4", "F9"])
@pytest.mark.parametrize("seed", range(4))
def test_sketched_matches_dense(desc, seed):
    # a tall input (more than 64 rows beyond its columns), with zero and
    # repeated rows, equals the dense elimination of the whole input
    rng = np.random.default_rng([seed, desc.q, desc.m])
    cols = int(rng.integers(1, 30))
    rows = cols + 64 + int(rng.integers(1, 120))
    rank = int(rng.integers(0, cols + 1))
    mat = planted(desc, rows, cols, rank, seed)
    solver, oracle = FieldSolver(desc, mat), DenseOracle(desc, mat)
    assert_matches_dense_oracle(desc, solver, oracle)
    x0 = rng.integers(0, desc.q, size=(cols, 3, desc.m)).astype(np.int64)
    consistent = ra.tensordot(desc, mat, x0, ([1], [0]))
    for rhs in (consistent, consistent[:, 0], np.zeros_like(consistent)):
        a, b = solver.solve(rhs), oracle.solve(rhs)
        assert a is not None and np.array_equal(a, b)
    # a tall matrix misses almost every random right-hand side
    misses = 0
    for _ in range(3):
        rhs = rng.integers(0, desc.q, size=(rows, desc.m)).astype(np.int64)
        a, b = solver.solve(rhs), oracle.solve(rhs)
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b)
        misses += a is None
    assert misses
    # a CooMatrix input gives the same answers as its dense form
    assert_matches_dense_oracle(desc, FieldSolver(desc, CooMatrix.from_dense(mat)), oracle)


def test_only_distinct_rows_are_factored(monkeypatch):
    # 30,000 x 300, every row a copy of one of 10 independent rows in 10
    # components: the factored blocks hold 10 rows in all
    rng = np.random.default_rng(5)
    rows, cols = 30000, 300
    dense = np.zeros((10, cols, 1), dtype=np.int64)
    for i in range(10):
        dense[i, [30 * i, 30 * i + 7, 30 * i + 13]] = rng.integers(1, 7, size=(3, 1))
    base = CooMatrix.from_dense(dense)
    pick = rng.integers(0, 10, size=rows)
    counts = np.bincount(base.rows, minlength=10)[pick]
    src = np.concatenate([np.flatnonzero(base.rows == b) for b in pick])
    mat = CooMatrix((rows, cols), np.repeat(np.arange(rows), counts), base.cols[src], base.vals[src])
    blocks = []
    real = _linalg._Echelon.__init__

    def spy(self, desc, block, rank_only, label):
        blocks.append(block.shape)
        real(self, desc, block, rank_only, label)

    monkeypatch.setattr(_linalg._Echelon, "__init__", spy)
    solver = FieldSolver(F7, mat)
    monkeypatch.undo()
    assert solver.rank == 10 and sum(r for r, _, _ in blocks) == 10
    assert len(blocks) == len(solver._groups) > 1 and max(c for _, c, _ in blocks) <= _linalg._BLOCK
    # the first occurrence of each distinct row is its pivot row
    firsts = np.sort(np.unique(pick, return_index=True)[1])
    assert np.array_equal(np.sort(solver.pivot_rows), firsts)
    want = FieldSolver(F7, base.toarray())
    assert np.array_equal(solver.pivot_cols, want.pivot_cols)
    assert all(np.array_equal(a, b) for a, b in zip(solver.kernel_basis(), want.kernel_basis(), strict=True))


@pytest.mark.parametrize(
    "desc,widths,rounds",
    # over F9 a column is two over F_p: 128 columns make two panels of 32
    # components, two columns wide each
    [(F7, [1] * 64, 1), (F9, [1] * 64, 4), (F7, [1, 4, 6], 6), (F9, [1, 4, 6], 12)],
    ids=["F7-64x1", "F9-64x1", "F7-1-4-6", "F9-1-4-6"],
)
def test_components_pivot_in_rounds(desc, widths, rounds):
    # invertible blocks on the diagonal, shuffled: one group, whose panels
    # pivot the s-th column of every component in round s
    rng = np.random.default_rng(len(widths))
    n, m = sum(widths), desc.m
    mat = np.zeros((n, n, m), dtype=np.int64)
    for w, c0 in zip(widths, np.cumsum([0] + widths[:-1])):
        # unit lower times upper with a nonzero diagonal in F_p
        lower = rng.integers(0, desc.q, size=(w, w, m)) * np.tril(np.ones((w, w), dtype=np.int64), -1)[..., None]
        upper = rng.integers(0, desc.q, size=(w, w, m)) * np.triu(np.ones((w, w), dtype=np.int64), 1)[..., None]
        lower[np.arange(w), np.arange(w), 0] = 1
        upper[np.arange(w), np.arange(w), 0] = rng.integers(1, desc.q, size=w)
        mat[c0 : c0 + w, c0 : c0 + w] = ra.tensordot(desc, lower, upper, ([1], [0]))
    mat = mat[rng.permutation(n)][:, rng.permutation(n)]
    solver = FieldSolver(desc, mat)
    assert len(solver._groups) == 1 and solver._groups[0][3].rounds == rounds and solver.rank == n
    assert_matches_dense_oracle(desc, solver, DenseOracle(desc, mat))


def test_inv_lower_by_rounds_matches_row_by_row(monkeypatch):
    # a lower triangular T whose diagonal blocks between the cuts are diagonal:
    # the inverse by rounds, one product per round after the first, is the
    # row-by-row inverse
    p, cuts = 7, [0, 3, 4, 9, 10, 16]
    rng = np.random.default_rng(4)
    n = cuts[-1]
    T = np.tril(rng.integers(0, p, size=(n, n)), -1)
    for s0, s1 in zip(cuts, cuts[1:]):
        T[s0:s1, s0:s1] = 0
    diag = rng.integers(1, p, size=n)
    invs = [pow(int(d), p - 2, p) for d in diag]
    want = _linalg._inv_lower(T, invs, p)
    assert np.array_equal(_linalg._exact_dot(T + np.diag(diag), want, p), np.eye(n, dtype=np.int64))
    calls = []
    real = _linalg._exact_dot
    monkeypatch.setattr(_linalg, "_exact_dot", lambda a, b, q: calls.append(a.shape) or real(a, b, q))
    assert np.array_equal(_linalg._inv_lower(T, invs, p, cuts), want)
    assert calls == [(s1 - s0, s0) for s0, s1 in zip(cuts[1:-1], cuts[2:])]


def test_wide_and_square_inputs_are_not_sketched(monkeypatch):
    # no shape draws random numbers: tall, square and wide inputs, dense or
    # sparse, factor and solve deterministically
    mats = [planted(F7, rows, cols, 5, rows) for rows, cols in ((10, 40), (40, 40), (200, 40), (30, 130))]

    def drawn(*args, **kwargs):
        raise AssertionError("FieldSolver drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", drawn)
    for mat in mats:
        for marr in (mat, CooMatrix.from_dense(mat)):
            solver = FieldSolver(F7, marr)
            assert solver.solve(np.zeros((mat.shape[0], 1), dtype=np.int64)) is not None


def test_rank_only_sketched_keeps_no_factor():
    # a tall rank-only input keeps its pivots and no factor to solve with
    mat = planted(F7, 200, 20, 12, 5)
    solver = FieldSolver(F7, mat, rank_only=True)
    assert solver.rank == 12 and all(not hasattr(g[3], "U") for g in solver._groups)
    with pytest.raises(ValueError):
        solver.kernel_basis()


@pytest.mark.parametrize("desc", [F7, F9], ids=["F7", "F9"])
@pytest.mark.parametrize("rows,cols,rank", [(12, 300, 12), (12, 300, 7), (40, 90, 40), (5, 5, 5)])
def test_rank_only_stops_at_full_row_rank(desc, rows, cols, rank):
    # a rank-only factor ends once every row is a pivot row; its rank, pivot
    # columns and pivot rows are those of the full factor
    mat = planted(desc, rows, cols, rank, rows + cols)
    mat[:, : cols // 2] = 0  # the pivots come late, so whole panels are left
    full, quick = FieldSolver(desc, mat), FieldSolver(desc, mat, rank_only=True)
    assert quick.rank == full.rank and np.array_equal(quick.pivot_cols, full.pivot_cols)
    assert np.array_equal(quick.pivot_rows, full.pivot_rows)
    for call in (quick.kernel_basis, lambda: quick.solve(np.zeros((rows, desc.m), dtype=np.int64))):
        with pytest.raises(ValueError, match="rank_only"):
            call()


def test_rank_only_skips_the_panels_after_the_last_pivot(monkeypatch):
    mat = np.random.default_rng(1).integers(0, 7, size=(10, 640, 1))
    panels = []
    real = _linalg._block_substitute
    monkeypatch.setattr(_linalg, "_block_substitute", lambda *a: panels.append(1) or real(*a))
    assert FieldSolver(F7, mat, rank_only=True).rank == 10
    # every row is a pivot row after the first panel of 64 columns
    assert panels == []
    FieldSolver(F7, mat)
    assert len(panels) == 9  # the U rows of each later panel


def test_fixed_operands_are_expanded_once(monkeypatch):
    # a CooMatrix keeps the regular representation of its values after the
    # first product, and so does a dense solver over F_{p^m}, m > 1
    mat = planted(F9, 20, 12, 8, 2)
    rng = np.random.default_rng(3)
    xs = [rng.integers(0, 9, size=(12, 3, 2)).astype(np.int64) for _ in range(3)]
    want = [ra.tensordot(F9, mat, x, ([1], [0])) for x in xs]
    coo, solver = CooMatrix.from_dense(mat), FieldSolver(F9, mat)
    calls = []
    real = ra.reg_rep
    monkeypatch.setattr(ra, "reg_rep", lambda desc, arr: calls.append(arr.shape) or real(desc, arr))
    assert all(np.array_equal(coo.dot(F9, x), w) for x, w in zip(xs, want))
    assert len(calls) == 1
    # over F_p the values, widened for the products, are kept the same way
    prime = CooMatrix.from_dense(planted(F7, 20, 12, 8, 1))
    prime.dot(F7, xs[0][..., :1] % 7)
    kept = vars(prime)["_kept"][0]
    assert kept.shape == (prime.vals.shape[0], 1, 1) and np.array_equal(kept.ravel(), prime.vals.ravel())
    calls.clear()
    for w in want:
        got = solver.solve(w)
        assert got is not None and np.array_equal(solver.M.dot(F9, got), w)
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F7, cr.make_ring(P31), F4, F9]), st.integers(0, 2**32 - 1), st.sampled_from([(), (3,)]))
def test_pivot_solve_meets_any_rhs_on_the_pivot_rows(desc, seed, batch):
    # any right-hand side, (R, m) or batched (R, w, m), is met on the pivot
    # rows with the free variables zero; a consistent one gets solve's
    # answer, and solve refuses exactly the ones pivot_solve misses elsewhere
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 12))
    mat = planted(desc, rows, cols, int(rng.integers(1, cols + 1)), seed)
    solver = FieldSolver(desc, mat)
    prows = np.unique(solver.pivot_rows // desc.m)
    free = np.setdiff1d(np.arange(cols), solver.pivot_cols)
    rhs = rng.integers(0, desc.q, size=(rows,) + batch + (desc.m,))
    x = solver.pivot_solve(rhs)
    assert x.shape == (cols,) + batch + (desc.m,) and not np.any(x[free])
    assert np.array_equal(solver.M.dot(desc, x)[prows], rhs[prows])
    assert (solver.solve(rhs) is None) != np.array_equal(solver.M.dot(desc, x), rhs)
    consistent = solver.M.dot(desc, rng.integers(0, desc.q, size=x.shape))
    assert np.array_equal(solver.pivot_solve(consistent), solver.solve(consistent))


# --- the greedy row basis from the bottom: the pivot rows of the reversed rows ---


def bottom_row_basis(desc, mat: CooMatrix) -> np.ndarray:
    """The greedy row basis of mat over F_{p^m} scanned from its last row up:
    the ascending indices of the rows outside the span of the rows below them.

    A sparse echelon over F_p in Python ints that visits only the nonzero
    rows and stops once the basis has one row per column: each basis row is
    kept with its lowest column as pivot and reduces a new row at that
    column.  Over F_{p^m}, m > 1, it scans the F_p regular representation,
    whose row (r, j) holds the coefficients of x^j times row r; a row is
    taken when its block (r, 0..m-1) adds to the span."""
    p, m = desc.q, desc.m
    basis = {}  # pivot column -> row, 1 at the pivot

    def insert(v):
        """Reduce the row v (column -> value) by the basis; keep what is left."""
        while v:
            c = min(v)
            row = basis.get(c)
            if row is None:
                inv = pow(v[c], p - 2, p)
                basis[c] = {k: x * inv % p for k, x in v.items()}
                return True
            f = v[c]
            for k, x in row.items():
                y = (v.get(k, 0) - f * x) % p
                if y:
                    v[k] = y
                else:
                    del v[k]
        return False

    starts = np.flatnonzero(np.diff(mat.rows, prepend=-1)).tolist()
    cols = (mat.cols[:, None] * m + np.arange(m)).tolist()
    # reg[k][j][i]: coefficient i of x^j times entry k, at F_p column cols[k][i]
    reg = ra.reg_rep(desc, mat.vals).transpose(0, 2, 1).tolist()
    found = []
    for a, b in zip(starts[::-1], (starts[1:] + [mat.rows.size])[::-1]):
        if len(basis) == mat.shape[1] * m:
            break
        fresh = [insert({c: x for ck, rk in zip(cols[a:b], reg[a:b]) for c, x in zip(ck, rk[j]) if x}) for j in range(m)]
        if fresh[0]:
            found.append(int(mat.rows[a]))
    return np.array(found[::-1], dtype=np.int64)


def dense_bottom_rows(desc, mat):
    rev = FieldSolver(desc, np.ascontiguousarray(ra.transpose(mat, (1, 0))[:, ::-1]), rank_only=True)
    return np.sort(mat.shape[0] - 1 - rev.pivot_cols)


def reversed_pivot_rows(desc, mat):
    """R - 1 - pivot_rows // m, ascending, of FieldSolver on mat with its rows
    reversed: the pivot rows of a column-greedy elimination among its first k
    rows are those of its first k rows alone, in any column order."""
    rev = FieldSolver(desc, np.ascontiguousarray(mat[::-1]), rank_only=True)
    return np.unique(mat.shape[0] - 1 - rev.pivot_rows // desc.m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F7, cr.make_ring(P31), F4, F9]), st.integers(0, 2**32 - 1))
def test_bottom_row_basis_matches_dense_scan(desc, seed):
    # planted low rank with zero and repeated rows: the reversed pivot rows
    # are the sparse echelon's rows and the dense reversed-transpose scan's
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(2, 16))
    rank = int(rng.integers(1, cols))
    mat = planted(desc, int(rng.integers(rank, 4 * rank + 8)), cols, rank, seed)
    got = reversed_pivot_rows(desc, mat)
    assert np.array_equal(got, bottom_row_basis(desc, CooMatrix.from_dense(mat)))
    assert np.array_equal(got, dense_bottom_rows(desc, mat)) and got.size < cols


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F2, F7, F4, F9]), st.integers(0, 2**32 - 1))
def test_bottom_row_basis_is_the_reversed_pivot_rows(desc, seed):
    # planted low rank with zero and repeated rows, in any order of the columns
    rng = np.random.default_rng(seed)
    cols = int(rng.integers(1, 12))
    rows = int(rng.integers(0, 30))
    mat = planted(desc, rows, cols, int(rng.integers(1, cols + 1)), seed) if rows else ra.zeros(desc, (0, cols))
    got = bottom_row_basis(desc, CooMatrix.from_dense(mat))
    assert np.array_equal(got, reversed_pivot_rows(desc, mat))
    assert np.array_equal(got, reversed_pivot_rows(desc, mat[:, rng.permutation(cols)]))


@pytest.mark.parametrize(
    "name,ring", [("D4", cr.make_ring(3)), ("D4.dual", cr.make_ring(5)), ("Q8", F7), ("S3", F7), ("C3", F4), ("S3", cr.make_ring(5, 1, 2)), ("C4.double", cr.make_ring(5))]
)
def test_bottom_row_basis_of_d0_is_the_reversed_pivot_rows(name, ring):
    from hopflift import cohomology as coh
    from hopflift import hopfcore as hc

    d0 = coh.dtotal_matrix(coh.make_context(hc.generate(name, ring)), 0)
    got = bottom_row_basis(ring, d0)
    assert got.size and np.array_equal(got, reversed_pivot_rows(ring, d0.toarray()))


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
    cr.make_ring(2, 62, 2),
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


# tensordot's dtype path for each ring, at every contraction of test_tensordot_matches_oracle
# (k m <= 9 m products per sum); a contraction over zero indices sums nothing
# and is always float64
PATH_RINGS = {
    "F7": (F7, np.float64),
    "Z/7^10": (cr.make_ring(7, 10), np.int64),
    "Z/7^12": (cr.make_ring(7, 12), object),
    "F9": (F9, np.float64),
    "GR(7^10,2)": (cr.make_ring(7, 10, 2), np.int64),
    "F_(2^31-1)^2": (cr.make_ring(P31, 1, 2), object),
    "F8": (cr.make_ring(2, 1, 3), np.float64),
    "GR(7^10,3)": (cr.make_ring(7, 10, 3), np.int64),
    "GR(2^40,3)": (cr.make_ring(2, 40, 3), object),
}


@pytest.mark.parametrize("name", PATH_RINGS)
def test_path_rings_cover_every_dtype_path(name):
    desc, dt = PATH_RINGS[name]
    assert all(ra._dtype(k * desc.m * (desc.q - 1) ** 2) is dt for k in range(1, 10))


def tensordot_oracle(desc, a, b, axa, axb):
    """sum over the contracted indices of the ring products, in Python ints."""
    na, nb = a.ndim - 1, b.ndim - 1
    axa, axb = [ax % na for ax in axa], [ax % nb for ax in axb]
    free_a = [ax for ax in range(na) if ax not in axa]
    free_b = [ax for ax in range(nb) if ax not in axb]
    ks = [a.shape[ax] for ax in axa]
    out_shape = [a.shape[ax] for ax in free_a] + [b.shape[ax] for ax in free_b]
    out = np.zeros(tuple(out_shape) + (desc.m,), dtype=np.int64)
    for cell in np.ndindex(*out_shape):
        acc = [0] * desc.m
        for j in np.ndindex(*ks):
            ia, ib = [0] * na, [0] * nb
            for ax, i in zip(free_a + axa, cell[: len(free_a)] + j):
                ia[ax] = i
            for ax, i in zip(free_b + axb, cell[len(free_a) :] + j):
                ib[ax] = i
            acc = [x + y for x, y in zip(acc, poly_mul_oracle(desc, a[tuple(ia)], b[tuple(ib)]))]
        out[cell] = [x % desc.q for x in acc]
    return out


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PATH_RINGS)), st.data())
def test_tensordot_matches_oracle(name, data):
    # random shapes, zero-length axes, logical scalars, multi-axis and empty
    # contractions, on every dtype path; a second call with the same shapes
    # and new values reuses the plan of the first
    desc, _ = PATH_RINGS[name]
    q, m = desc.q, desc.m
    na, nb = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    c = data.draw(st.integers(0, min(na, nb, 2)))
    dims = st.integers(0, 3)
    ks = data.draw(st.lists(dims, min_size=c, max_size=c))
    axa = data.draw(st.permutations(range(na)))[:c]
    axb = data.draw(st.permutations(range(nb)))[:c]
    shape_a, shape_b = data.draw(st.lists(dims, min_size=na, max_size=na)), data.draw(st.lists(dims, min_size=nb, max_size=nb))
    for i, k in enumerate(ks):
        shape_a[axa[i]], shape_b[axb[i]] = k, k
    if data.draw(st.booleans()):
        axa, axb = [ax - na for ax in axa], [ax - nb for ax in axb]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(2):
        a = rng.integers(0, q, size=tuple(shape_a) + (m,), dtype=np.int64)
        b = rng.integers(0, q, size=tuple(shape_b) + (m,), dtype=np.int64)
        want = tensordot_oracle(desc, a, b, axa, axb)
        got = ra.tensordot(desc, a, b, (axa, axb))
        assert got.dtype == np.int64 and got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 7**9, 67108859]), st.data())
def test_f64_mod_is_exact_below_2_52(q, data):
    top = (1 << 52) - 1
    edges = [0, 1, q - 1, q, top, top - top % q, top - top % q - 1]
    vals = edges + data.draw(st.lists(st.integers(0, top), max_size=50))
    vals += [n * q + s for n, s in data.draw(st.lists(st.tuples(st.integers(0, top // q), st.sampled_from([0, q - 1])), max_size=20)) if n * q + s <= top]
    got = ra.f64_mod(np.array(vals, dtype=np.float64), q)
    assert got.dtype == np.int64 and got.tolist() == [v % q for v in vals]


INT64_MOD_RINGS = [2, 81, 7**10, (1 << 31) - 1, (1 << 61) - 1]


def _int64_mod_input(size, q, seed):
    """size int64 entries in [-2^62, 2^62): the bounds, multiples of q and
    their neighbours, then random ones."""
    rng = np.random.default_rng(seed)
    edges = [-(1 << 62), -(1 << 62) + 1, (1 << 62) - 1, -1, 0, 1, q - 1, q, q + 1, -q, -q - 1, -q + 1]
    top = ((1 << 62) - 1) // q * q
    edges += [top, top - 1, -top, -top + 1, -top - 1]
    vals = rng.integers(-(1 << 62), 1 << 62, size=size, dtype=np.int64)
    vals[: min(size, len(edges))] = edges[:size]
    return vals


@pytest.mark.parametrize("q", INT64_MOD_RINGS)
@pytest.mark.parametrize("size", [1, 511, 512, 513, 1023, 1024, 1025, (1 << 16) - 1, (1 << 16) + 1, 3 << 16])
def test_int64_mod_matches_python_mod(size, q):
    r = _int64_mod_input(size, q, size)
    want = [v % q for v in r.tolist()]
    got = ra.int64_mod(r, q)
    assert got is r and got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("q", INT64_MOD_RINGS)
@pytest.mark.parametrize("shape", [(40, 60), (300, 400)], ids=["below", "above"])
def test_int64_mod_of_views_matches_python_mod(shape, q):
    # views that are not C-contiguous, on either side of the division's threshold
    base = _int64_mod_input(shape[0] * shape[1], q, 5).reshape(shape)
    for view in (base[:, ::2], base.T, base[::3, 1:-1]):
        want = [v % q for v in view.ravel().tolist()]
        got = ra.int64_mod(view, q)
        assert got.dtype == np.int64 and got.ravel().tolist() == want


def test_int64_mod_of_object_arrays_and_ints():
    q = (1 << 61) - 1
    vals = [-(1 << 80), -1, 0, q, 1 << 70]
    got = ra.int64_mod(np.array(vals, dtype=object), q)
    assert got.dtype == np.int64 and got.tolist() == [v % q for v in vals]
    assert ra.int64_mod(-(1 << 70), q).tolist() == -(1 << 70) % q


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 7**9, 67108859, (1 << 52) - 1]), st.data())
def test_f64_mod_matches_python_mod_on_both_signs(q, data):
    top = (1 << 52) - 1
    vals = [0, 1, q - 1, q, q + 1, top, top - top % q] + data.draw(st.lists(st.integers(0, top), max_size=50))
    vals += [-v for v in vals]
    got = ra.f64_mod(np.array(vals * 40, dtype=np.float64), q)
    assert got.dtype == np.int64 and got.tolist() == [v % q for v in vals * 40]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 7, 3**20, 7**9, 67108859, (1 << 52) - 1]), st.data())
def test_f64_reduce_matches_python_mod_at_the_bound(q, data):
    # both signs, as an echelon panel holds them: |r| < 2^52, at the bound and
    # at multiples of q and their neighbours
    top = (1 << 52) - 1
    edges = [0, 1, q - 1, q, q + 1, top, top - top % q, top - top % q - 1, top - top % q + 1]
    vals = edges + data.draw(st.lists(st.integers(0, top), max_size=50))
    vals += [n * q + s for n, s in data.draw(st.lists(st.tuples(st.integers(0, top // q), st.sampled_from([-1, 0, 1])), max_size=20))]
    vals = [v for v in vals if v <= top]
    vals += [-v for v in vals]
    arr = np.array(vals, dtype=np.float64)
    got = ra.f64_reduce(arr, q)
    assert got is arr and got.dtype == np.float64 and [int(v) for v in got.tolist()] == [v % q for v in vals]


@pytest.mark.parametrize("desc", [F7, F9], ids=["F7", "F9"])
@pytest.mark.parametrize("case", ["empty", "empty rows", "column blocks"])
def test_coo_dot_matches_dense_product(desc, case, monkeypatch):
    rng = np.random.default_rng(5)
    mat = rng.integers(0, desc.q, size=(30, 12, desc.m)) * (rng.random((30, 12, 1)) < 0.3)
    if case == "empty":
        mat[:] = 0
    else:
        mat[::3] = 0
    coo = CooMatrix.from_dense(mat)
    if case == "column blocks":
        # about four columns of x per block
        monkeypatch.setattr(_linalg, "_BLOCK_CELLS", 4 * coo.rows.size * desc.m**2)
    for shape in ((12, desc.m), (12, 1, desc.m), (12, 17, desc.m), (12, 0, desc.m)):
        x = rng.integers(0, desc.q, size=shape)
        assert np.array_equal(coo.dot(desc, x), ra.tensordot(desc, mat, x, ([1], [0])))


def old_block_substitute(T, blocks, B, p):
    """_block_substitute as it was: whole rows of T against an X whose
    unsolved rows are zero."""
    X = np.zeros_like(B)
    for s0, s1, inv in blocks:
        X[s0:s1] = _linalg._exact_dot(inv, (B[s0:s1] - _linalg._exact_dot(T[s0:s1], X, p)) % p, p)
    return X


@pytest.mark.parametrize("upper", [False, True], ids=["lower", "upper"])
def test_block_substitute_multiplies_only_solved_rows(upper, monkeypatch):
    p, n, cuts = 7, 10, [(0, 3), (3, 7), (7, 10)]
    rng = np.random.default_rng(2)
    T = np.tril(rng.integers(0, p, size=(n, n)), -1) + np.diag(rng.integers(1, p, size=n))
    if upper:
        T = T[::-1, ::-1].copy()  # upper triangular; its blocks are solved bottom up
        blocks = [(s0, s1, _linalg._inv_lower(T[s0:s1, s0:s1][::-1, ::-1], [pow(int(d), p - 2, p) for d in np.diag(T)[s0:s1][::-1]], p)[::-1, ::-1]) for s0, s1 in reversed(cuts)]
    else:
        blocks = [(s0, s1, _linalg._inv_lower(T[s0:s1, s0:s1], [pow(int(d), p - 2, p) for d in np.diag(T)[s0:s1]], p)) for s0, s1 in cuts]
    B = rng.integers(0, p, size=(n, 4))
    want = old_block_substitute(T, blocks, B, p)
    shapes = []
    real = _linalg._exact_dot
    monkeypatch.setattr(_linalg, "_exact_dot", lambda a, b, q: shapes.append((a.shape, b.shape)) or real(a, b, q))
    got = _linalg._block_substitute(T, blocks, B, p)
    assert np.array_equal(got, want) and np.array_equal(real(T, got, p), B)
    # each block: the product with the rows solved before it (none for the first), then its inverse
    expected = []
    for s0, s1, _ in blocks:
        done = n - s1 if upper else s0
        if done:
            expected.append(((s1 - s0, done), (done, 4)))
        expected.append(((s1 - s0, s1 - s0), (s1 - s0, 4)))
    assert shapes == expected


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
# (rows, cols): wide, square, tall, and more than 64 rows beyond its columns
EXT_SHAPES = [(5, 14), (12, 12), (30, 9), (113, 9)]


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


@pytest.mark.parametrize("desc", EXT_FIELDS, ids=["F4", "F8", "F9", "F25", "F_P31_UP_2"])
@pytest.mark.parametrize("shape", EXT_SHAPES, ids=["wide", "square", "tall", "sketched"])
@pytest.mark.parametrize("kind", ["zero", "full", "deficient"])
def test_extension_field_solver_matches_gauss_jordan(desc, shape, kind):
    rows, cols = shape
    seed = rows * 31 + cols + desc.p * desc.m
    mat = ext_matrix(desc, rows, cols, kind, seed)
    oracle = ExtOracle(desc, mat)
    assert oracle.rank == {"zero": 0, "full": min(rows, cols)}.get(kind, oracle.rank)
    assert_matches_ext_oracle(desc, FieldSolver(desc, mat), oracle, seed)
    assert_matches_ext_oracle(desc, FieldSolver(desc, CooMatrix.from_dense(mat)), oracle, seed)


def hensel_oracle(desc, marr, rhs):
    """The unique x with M x = rhs over GR(p^n, m), one p-digit per
    gauss_jordan_ext solve of the reduced system: the digit-by-digit oracle of
    hensel_solve_array, which applies Newton's inverse of M instead."""
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
        got = cr.hensel_solve_array(desc, marr, rhs)
        assert got.dtype == want.dtype and np.array_equal(got, want)
