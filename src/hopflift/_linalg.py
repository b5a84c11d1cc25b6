"""Exact linear algebra over F_{p^m}.

FieldSolver factors a matrix once (canonical greedy pivoting: columns left to
right, first unused row in original order) and then answers repeated solves,
ranks and kernels.  There is one elimination, over F_p: a left-looking panel
elimination whose bulk updates run through BLAS at dtypes with proven-exact
integer bounds.  Over F_{p^m}, m > 1, it factors the F_p matrix of the
regular representation, whose entry ((r, i), (c, j)) is coefficient i of
M[r, c] x^j.  Its greedy pivot columns come in whole blocks (c, 0..m-1), one
for each pivot column c over F_{p^m}; its canonical kernel vectors at the
free columns (f, 0) and its canonical solutions are those over F_{p^m},
written in coefficients.

A tall input (more than _SKETCH_MARGIN rows beyond its column count) is
factored through a sparse row sketch P.M with cols + _SKETCH_MARGIN rows: each
input row is added into one sketch row with a nonzero F_p coefficient.  The
sketch's kernel basis K is certified exactly by M.K = 0 on the input, which
makes ker(P.M) = ker(M); the greedy pivot columns, the kernel basis in RREF
and the canonical solution depend only on that kernel, so every output is the
one the unsketched elimination gives.  The certificate multiplies blocks of
M's nonzero rows, each product near 2^22 cells, and stops at the first
nonzero block, so it never writes the whole R x (C - rank) product.  A failed
certificate re-sketches with the next seed, and finally factors M itself
(P = I) with the same code.
The solver keeps its input in one form, a CooMatrix M, whether it was given
dense or sparse: the sketch is summed from M's entries, the certificate and
the residual check multiply M over F_{p^m}, and only the sketch, or M itself
when unsketched, is expanded to F_p.  P is kept as a row order whose
consecutive blocks of k rows are dealt to the k sketch rows, with the
coefficients in that order: a solve maps its dense right-hand side through P
by one gather into a zero-padded buffer, a scaling and a sum over the blocks,
with no sort, and keeps the exact residual check M.x = b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _arrays as ra

_BLOCK = 64
# spare sketch rows beyond the column count: they make a sketch that loses
# rank unlikely, and the exact certificate catches the rest
_SKETCH_MARGIN = 64
_SKETCH_SEEDS = (0x5EC7, 0x5EC8)
# the size of a sparse product's blocks: a column block keeps entries x w x
# m x m near it, and a certificate's row block keeps rows x w x m near it
_BLOCK_CELLS = 1 << 22
# nonzero rows that bottom_row_basis turns into Python lists at a time
_ECHELON_ROWS = 256


def _exact_dot(a, b, q):
    """a @ b for matrices of nonnegative ints < q, reduced mod q, exact: in the
    dtype _arrays chooses for sums of k (q-1)^2."""
    k = a.shape[-1] if a.ndim > 1 else a.shape[0]
    dt = ra._dtype(k * (q - 1) * (q - 1))
    return ra._mod(np.dot(a.astype(dt, copy=False), b.astype(dt, copy=False)), q)


@dataclass(frozen=True)
class CooMatrix:
    """Sparse matrix over a field: the nonzero entries in row-major order."""

    shape: tuple
    rows: np.ndarray  # (nnz,)
    cols: np.ndarray  # (nnz,)
    vals: np.ndarray  # (nnz, m), reduced and nonzero

    @classmethod
    def from_dense(cls, marr):
        rows, cols = np.nonzero(np.any(marr != 0, axis=-1))
        return cls(marr.shape[:2], rows, cols, marr[rows, cols])

    @classmethod
    def from_entries(cls, desc, shape, rows, cols, vals):
        """The matrix whose entry (r, c) is the sum of the vals at (r, c)."""
        cells, sums = ra.collect(desc.q, rows * shape[1] + cols, vals, rows.size)
        return cls(tuple(shape), cells // shape[1], cells % shape[1], sums)

    def toarray(self):
        out = np.zeros(tuple(self.shape) + (self.vals.shape[-1],), dtype=np.int64)
        out[self.rows, self.cols] = self.vals
        return out

    def matmul(self, desc, other):
        """self @ other over the field, from the nonzeros of both."""
        nz_self, nz_other = (self.cols, self.rows, self.vals), (other.rows, other.cols, other.vals)
        cells, vals = ra.join(desc, nz_self, nz_other, self.shape[1], other.shape[1])
        return CooMatrix((self.shape[0], other.shape[1]), cells // other.shape[1], cells % other.shape[1], vals)

    def _segments(self, desc):
        """What every product reuses, computed once: the values, widened to
        the dtype whose sums over one row are exact (int64 or object) and, when
        m > 1, in their regular representation (nnz, 1, m, m); the bounds of
        the rows' segments of entries (each start, then nnz); and the distinct
        rows."""
        kept = self.__dict__.get("_kept")
        if kept is None:
            bounds = np.append(np.flatnonzero(np.diff(self.rows, prepend=-1)), self.rows.size)
            per_row = int(np.diff(bounds).max()) if bounds.size > 1 else 0
            dt = ra._wide_dtype(per_row * desc.m * (desc.q - 1) ** 2)
            vals = (self.vals if desc.m == 1 else ra.reg_rep(desc, self.vals)).astype(dt, copy=False)[:, None]
            kept = (vals, bounds, self.rows[bounds[:-1]])
            object.__setattr__(self, "_kept", kept)
        return kept

    def _products(self, desc, s0, s1, xs):
        """The distinct rows s0..s1-1 (numbered in order) times xs (C, w, m),
        exact, one column block at a time: yields each block's first column
        and its reduced (s1 - s0, block, m) product.  A block has as many
        columns as keep entries x block x m x m near _BLOCK_CELLS; the
        entries' values times xs gathered at their columns, (entries, block,
        m) terms, are summed over each row's segment.  Over F_p the product
        is elementwise."""
        vals, bounds, _ = self._segments(desc)
        lo, hi = int(bounds[s0]), int(bounds[s1])
        cols, vals, starts = self.cols[lo:hi], vals[lo:hi], bounds[s0:s1] - lo
        step = max(1, _BLOCK_CELLS // max(1, (hi - lo) * desc.m * desc.m))
        for w0 in range(0, xs.shape[1], step):
            g = xs[cols, w0 : w0 + step].astype(vals.dtype, copy=False)
            if desc.m == 1:
                terms = vals * g
            else:
                # coefficient s is sum_t (v x^t)_s g_t, added one t at a time
                # so that no (entries, block, m, m) product is written
                terms = vals[..., 0] * g[:, :, None, 0]
                for t in range(1, desc.m):
                    terms += vals[..., t] * g[:, :, None, t]
            yield w0, ra.int64_mod(np.add.reduceat(terms, starts, axis=0), desc.q)

    def dot(self, desc, x):
        """self @ x over the field, exact; x is (C, m) or (C, w, m): all the
        distinct rows at once, by column blocks."""
        rows = self._segments(desc)[2]
        xs = x.reshape(x.shape[0], -1, desc.m)
        out = np.zeros((self.shape[0], xs.shape[1], desc.m), dtype=np.int64)
        for w0, prod in self._products(desc, 0, rows.size, xs):
            out[rows, w0 : w0 + prod.shape[1]] = prod
        return out.reshape((self.shape[0],) + x.shape[1:])

    def vanishes_on(self, desc, x):
        """Whether self @ x = 0, exactly.  The distinct rows are multiplied in
        blocks of _BLOCK_CELLS // (w m) rows, each by column blocks sized as
        in dot, up to the first nonzero product; a matrix without nonzeros
        vanishes at once."""
        count = self._segments(desc)[2].size
        xs = x.reshape(x.shape[0], -1, desc.m)
        step = max(1, _BLOCK_CELLS // max(1, int(np.prod(x.shape[1:]))))
        blocks = (self._products(desc, r0, min(count, r0 + step), xs) for r0 in range(0, count, step))
        return not any(np.any(prod) for block in blocks for _, prod in block)


def bottom_row_basis(desc, mat: CooMatrix) -> np.ndarray:
    """The greedy row basis of mat over F_{p^m} scanned from its last row up:
    the ascending indices of the rows outside the span of the rows below them.

    An exact sparse echelon over F_p that visits only the nonzero rows and
    stops once the basis has one row per column.  Each basis row is kept with
    its lowest column as pivot and reduces a new row at that column.  Over
    F_{p^m}, m > 1, it scans the F_p regular representation, whose row (r, j)
    holds the coefficients of x^j times row r; its greedy rows come in whole
    blocks (r, 0..m-1), as FieldSolver's pivot columns do.
    """
    p, m = desc.q, desc.m
    basis: dict[int, dict[int, int]] = {}  # pivot column -> row, 1 at the pivot

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

    # first entry of each nonzero row; the rows are read in chunks of
    # _ECHELON_ROWS from the bottom, each turned into Python lists when reached
    starts = np.flatnonzero(np.diff(mat.rows, prepend=-1))
    found, hi = [], mat.rows.size
    for first in range((starts.size - 1) // _ECHELON_ROWS * _ECHELON_ROWS, -1, -_ECHELON_ROWS):
        lo = int(starts[first])
        cols = (mat.cols[lo:hi, None] * m + np.arange(m)).tolist()
        # reg[k][j][i]: coefficient i of x^j times entry lo + k, at F_p column cols[k][i]
        reg = ra.reg_rep(desc, mat.vals[lo:hi]).transpose(0, 2, 1).tolist()
        bounds = (starts[first : first + _ECHELON_ROWS] - lo).tolist() + [hi - lo]
        for a, b in zip(bounds[-2::-1], bounds[:0:-1]):
            if len(basis) == mat.shape[1] * m:
                return np.array(found[::-1], dtype=np.int64)
            fresh = [insert({c: x for ck, rk in zip(cols[a:b], reg[a:b]) for c, x in zip(ck, rk[j]) if x}) for j in range(m)]
            if fresh[0]:
                found.append(int(mat.rows[lo + a]))
        hi = lo
    return np.array(found[::-1], dtype=np.int64)


def _inv_lower(T, invs, p):
    """Inverse over F_p of the lower triangular T whose diagonal has inverses invs
    (the diagonal of T itself is not read).  Row i of the inverse X is
    invs[i] (e_i - T[i, :i] X[:i]), so below the diagonal it is S[i, :i] X[:i]
    for S = -diag(invs) T, which is scaled once for all rows."""
    n = len(invs)
    invs = np.asarray(invs, dtype=np.int64)
    S = (-ra.mul_mod(invs[:, None], np.tril(T, -1), p)) % p
    out = np.diag(invs)
    for i in range(1, n):
        out[i, :i] = _exact_dot(S[i, :i], out[:i, :i], p)
    return out


def _block_substitute(T, blocks, B, p):
    """X with T X = B for a triangular T, given its diagonal blocks
    (s0, s1, inverse of T[s0:s1, s0:s1]) in solving order: downwards when the
    first block starts at row 0, else upwards.  Each block subtracts the
    product with the rows already solved, [:s0] going down and [s1:] going
    up; the first block has none."""
    X = np.zeros_like(B)
    down = bool(blocks) and blocks[0][0] == 0
    for s0, s1, inv in blocks:
        done = slice(0, s0) if down else slice(s1, len(B))
        acc = B[s0:s1]
        if done.stop > done.start:
            acc = (acc - _exact_dot(T[s0:s1, done], X[done], p)) % p
        X[s0:s1] = _exact_dot(inv, acc, p)
    return X


def _make_sketch(nrows, k, q, seed):
    """A sparse sketch P (k x nrows) as a row order and coefficients in that
    order: the rows are dealt round-robin in a seeded random order, so block j
    of k consecutive rows of order puts its row at position b into sketch row
    b, with the nonzero F_p coefficient drawn for that position.  Every sketch
    row gets at most ceil(nrows / k) rows and none stays empty."""
    rng = np.random.default_rng([seed, nrows, k])
    return rng.permutation(nrows), rng.integers(1, q, size=nrows)


class FieldSolver:
    """Echelon factorization of a matrix over a field descriptor (n == 1).

    ``marr`` is a dense (R, C, m) array or a CooMatrix; either is kept as the
    CooMatrix ``M``, reduced mod q, which the certificate and the residual
    check multiply.  ``rank`` and ``pivot_cols`` are over F_{p^m}.
    ``pivot_rows`` index the rows (r, i) of the factored F_p matrix: the
    regular representation of the input, or of the sketch when the input was
    sketched (the input itself when m == 1).  A rank_only solver keeps just
    these; its solve and kernel_basis raise ValueError.
    """

    def __init__(self, desc, marr, rank_only: bool = False):
        if not desc.is_field:
            raise ValueError("FieldSolver needs a field descriptor")
        self.desc = desc
        self.nrows, self.ncols = marr.shape[0], marr.shape[1]
        self.M = marr if isinstance(marr, CooMatrix) else CooMatrix.from_dense(marr % desc.q)
        self._sketch = None
        if self.nrows > self.ncols + _SKETCH_MARGIN:
            k = self.ncols + _SKETCH_MARGIN
            for seed in _SKETCH_SEEDS:
                self._sketch = order, coeff = _make_sketch(self.nrows, k, desc.q, seed)
                at = np.empty_like(order)
                at[order] = np.arange(self.nrows)  # the position of each row in order
                at = at[self.M.rows]
                terms = ra.mul_mod(coeff[at][:, None], self.M.vals, desc.q)
                cells, sums = ra.collect(desc.q, at % k * self.ncols + self.M.cols, terms, -(-self.nrows // k))
                sk = np.zeros((k * self.ncols, desc.m), dtype=np.int64)
                sk[cells] = sums
                self._factor(sk.reshape(k, self.ncols, desc.m))
                if self.M.vanishes_on(desc, self._kernel_matrix()):
                    break
            else:
                self._sketch = None
        if self._sketch is None:
            # without a sketch to certify, a rank needs no factor beyond the last pivot
            self._factor(self.M.toarray(), rank_only)
        if rank_only:
            self._U = None

    def _sketch_rhs(self, b):
        """P b for a dense b (R, ..., m): b in the sketch's row order, scaled in a
        zero-padded buffer of ceil(R / k) blocks of k rows, summed over the blocks."""
        order, coeff = self._sketch
        k = self.ncols + _SKETCH_MARGIN
        blocks = -(-self.nrows // k)
        dt = ra._wide_dtype(blocks * (self.desc.q - 1) ** 2)
        buf = np.zeros((blocks * k,) + b.shape[1:], dtype=dt)
        # mode "wrap" fills out without a buffer; order holds no index to wrap
        np.take(b.astype(dt, copy=False), order, axis=0, out=buf[: self.nrows], mode="wrap")
        buf[: self.nrows] *= coeff.reshape((-1,) + (1,) * (b.ndim - 1))
        return ra.int64_mod(buf.reshape((blocks, k) + b.shape[1:]).sum(axis=0), self.desc.q)

    def _factor(self, marr, rank_only=False):
        R, C, m = marr.shape
        if m == 1:
            self._factor_prime(marr[..., 0], rank_only)
        else:
            # the F_p matrix: entry ((r, i), (c, j)) is coefficient i of marr[r, c] x^j
            self._factor_prime(ra.reg_rep(self.desc, marr).transpose(0, 2, 1, 3).reshape(R * m, C * m), rank_only)
        # pivot column c over F_{p^m} is the F_p pivot block (c, 0..m-1)
        self.pivot_cols = self._pcols[::m] // m
        self.rank = len(self.pivot_cols)

    def _factor_prime(self, M0, rank_only=False):
        """Factor M0 over F_p; rank_only stops once every row is a pivot row
        and keeps only the pivots and the lower factor."""
        p = self.desc.q
        R, C = M0.shape
        maxr = min(R, C)
        Lam = np.zeros((R, maxr), dtype=np.int64)
        Lpp = np.zeros((maxr, maxr), dtype=np.int64)  # Lam rows of the pivot rows
        U = np.zeros((maxr, C), dtype=np.int64)
        unused = np.ones(R, dtype=bool)
        pivot_rows: list[int] = []
        pivot_cols: list[int] = []
        invs: list[int] = []
        # the pivots found in each panel form one block of the triangular factors
        tblocks = []
        # within a panel, reductions mod p are deferred when the bound
        # _BLOCK * (p-1)^2 + p stays well inside int64
        defer = p < (1 << 27)
        t = 0
        for c0 in range(0, C, _BLOCK):
            if rank_only and t == R:
                break
            c1 = min(C, c0 + _BLOCK)
            # U rows of earlier pivots on this panel (blocked forward solve),
            # then one bulk update of the panel for the unused rows; the rows
            # of used ones are never read and stay zero.
            rows = np.flatnonzero(unused)
            Wp = np.zeros((R, c1 - c0), dtype=np.int64)
            if t:
                Urows = _block_substitute(Lpp[:t, :t], tblocks, M0[pivot_rows, c0:c1], p)
                U[:t, c0:c1] = Urows
                Wp[rows] = (M0[rows, c0:c1] - _exact_dot(Lam[rows, :t], Urows, p)) % p
            else:
                Wp[rows] = M0[rows, c0:c1]
            if not Wp.any():
                # no unused row has a nonzero here: the panel has no pivot
                continue
            t0 = t
            for j in range(c1 - c0):
                col = Wp[:, j] % p
                cand = np.flatnonzero((col != 0) & unused)
                if cand.size == 0:
                    continue
                r = int(cand[0])
                inv = pow(int(col[r]), p - 2, p)
                urow = ra.mul_mod(inv, Wp[r] % p, p)
                lam = col
                lam[~unused] = 0
                lam[r] = 0
                if np.any(lam):
                    if defer:
                        Wp -= np.outer(lam, urow)
                    else:
                        Wp = (Wp - ra.mul_mod(lam[:, None], urow[None, :], p)) % p
                U[t, c0:c1] = urow
                Lam[:, t] = lam
                Lpp[t] = Lam[r]
                unused[r] = False
                pivot_rows.append(r)
                pivot_cols.append(c0 + j)
                invs.append(inv)
                t += 1
            if t > t0:
                tblocks.append((t0, t, _inv_lower(Lpp[t0:t, t0:t], invs[t0:t], p)))
        self.pivot_rows = np.array(pivot_rows, dtype=np.int64)
        self._pcols = np.array(pivot_cols, dtype=np.int64)
        self._Lpp = Lpp[:t, :t]
        self._tblocks = tblocks
        if rank_only:
            return
        self._U = U[:t]
        self._Upc = U[:t][:, self._pcols]
        # Upc is unit upper triangular: reversing both axes makes it lower
        self._ublocks = [
            (s0, s1, _inv_lower(self._Upc[s0:s1, s0:s1][::-1, ::-1], [1] * (s1 - s0), p)[::-1, ::-1])
            for s0, s1, _ in reversed(tblocks)
        ]

    def _kernel_matrix(self):
        """Canonical kernel basis as the columns of a (C, C - rank, m) array."""
        if self._U is None:
            raise ValueError("factorization was rank_only")
        m, p = self.desc.m, self.desc.q
        free = np.setdiff1d(np.arange(self.ncols), self.pivot_cols)
        # the kernel vector at free column f is the F_p one at free column (f, 0)
        K = np.zeros((self.ncols * m, free.size), dtype=np.int64)
        K[free * m, np.arange(free.size)] = 1
        if self.rank and free.size:
            xp = _block_substitute(self._Upc, self._ublocks, self._U[:, free * m], p)
            K[self._pcols] = (-xp) % p
        return np.ascontiguousarray(K.reshape(self.ncols, m, free.size).swapaxes(1, 2))

    def solve(self, rhs: np.ndarray):
        """Canonical particular solution (free variables zero) or None.

        rhs has physical shape (R, m) or (R, w, m); the result matches with R
        replaced by the column count.
        """
        if self._U is None:
            raise ValueError("factorization was rank_only")
        p, m = self.desc.q, self.desc.m
        b = rhs % p
        sb = b
        if self._sketch is not None:
            sb = self._sketch_rhs(b)
        # over F_p, row (r, i) of the right-hand side is coefficient i of sb[r]
        flat = sb.reshape(sb.shape[0], -1, m).swapaxes(1, 2).reshape(sb.shape[0] * m, -1)
        xp = np.zeros((self.ncols * m, flat.shape[1]), dtype=np.int64)
        if self.rank:
            # T beta = b on the pivot rows, Upc xp = beta
            beta = _block_substitute(self._Lpp, self._tblocks, flat[self.pivot_rows], p)
            xp[self._pcols] = _block_substitute(self._Upc, self._ublocks, beta, p)
        x = np.ascontiguousarray(xp.reshape(self.ncols, m, -1).swapaxes(1, 2))
        x = x.reshape((self.ncols,) + rhs.shape[1:])
        if np.any(self.M.dot(self.desc, x) != b):
            return None
        return x

    def kernel_basis(self):
        """Canonical kernel basis (one vector per free column, ascending)."""
        K = self._kernel_matrix()
        return [np.ascontiguousarray(K[:, j]) for j in range(K.shape[1])]
