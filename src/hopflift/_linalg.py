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
one the unsketched elimination gives.  A failed certificate re-sketches with
the next seed, and finally factors M itself (P = I) with the same code.
Sketch, certificate and residual checks run over F_{p^m} on the unexpanded
input; only the sketch, or the unsketched input, is expanded to F_p.  Solves
map the right-hand side through P and keep the exact residual check M.x = b
against the unsketched matrix.
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


def _exact_dot(a, b, q):
    """a @ b for matrices of nonnegative ints < q, reduced mod q, exact."""
    k = a.shape[-1] if a.ndim > 1 else a.shape[0]
    bound = k * (q - 1) * (q - 1)
    if bound < (1 << 24):
        r = np.dot(a.astype(np.float32), b.astype(np.float32))
        return r.astype(np.int64) % q
    if bound < (1 << 52):
        r = np.dot(a.astype(np.float64), b.astype(np.float64))
        return r.astype(np.int64) % q
    if bound < ra._I64_SAFE:
        return np.dot(a, b) % q
    return ra.int64_mod(np.dot(a.astype(object), b.astype(object)), q)


def _wide_dtype(bound):
    """int64 when sums of products stay below _exact_dot's int64 bound, else object."""
    return np.int64 if bound < ra._I64_SAFE else object


def _sum_sorted(idx, terms, n_out, q):
    """out[i] = sum of terms[j] over idx[j] == i, mod q, as int64; idx is sorted."""
    out = np.zeros((n_out,) + terms.shape[1:], dtype=np.int64)
    if idx.size:
        starts = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
        out[idx[starts]] = ra.int64_mod(np.add.reduceat(terms, starts, axis=0), q)
    return out


def _scatter(index, coeff, vals, n_out, q, count):
    """out[index[i]] += coeff[i] * vals[i] over F_q, exact; coeff are F_p
    scalars and no index occurs more than count times."""
    dt = _wide_dtype(count * (q - 1) * (q - 1))
    terms = coeff.astype(dt).reshape((-1,) + (1,) * (vals.ndim - 1)) * vals.astype(dt)
    order = np.argsort(index, kind="stable")
    return _sum_sorted(index[order], terms[order], n_out, q)


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

    def toarray(self):
        out = np.zeros(tuple(self.shape) + (self.vals.shape[-1],), dtype=np.int64)
        out[self.rows, self.cols] = self.vals
        return out

    def dot(self, desc, x):
        """self @ x over the field, exact; x is (C, m) or (C, w, m)."""
        q, m = desc.q, desc.m
        per_row = int(np.bincount(self.rows).max()) if self.rows.size else 0
        dt = _wide_dtype(per_row * m * (q - 1) * (q - 1))
        xs = x.reshape(x.shape[0], -1, m)
        lreg = ra.reg_rep(desc, self.vals).astype(dt)[:, None]  # (nnz, 1, m, m)
        # column blocks keep the (nnz, w, m, m) product near 2^22 cells
        step = max(1, (1 << 22) // max(1, self.rows.size * m * m))
        out = np.empty((self.shape[0], xs.shape[1], m), dtype=np.int64)
        for w0 in range(0, xs.shape[1], step):
            g = xs[self.cols, w0 : w0 + step].astype(dt)[:, :, None, :]
            out[:, w0 : w0 + step] = _sum_sorted(self.rows, (lreg * g).sum(-1), self.shape[0], q)
        return out.reshape((self.shape[0],) + x.shape[1:])


def _inv_lower(T, invs, p):
    """Inverse over F_p of the lower triangular T whose diagonal has inverses invs
    (the diagonal of T itself is not read)."""
    n = len(invs)
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        row = np.zeros(n, dtype=np.int64)
        row[i] = 1
        if i:
            row[:i] = (-_exact_dot(T[i, :i], out[:i, :i], p)) % p
        out[i] = ra.mul_mod(int(invs[i]), row, p)
    return out


def _block_substitute(T, blocks, B, p):
    """X with T X = B for a triangular T, given its diagonal blocks
    (s0, s1, inverse of T[s0:s1, s0:s1]) in solving order.  Rows not yet
    solved are zero in X, so the whole rows of T can be used."""
    X = np.zeros_like(B)
    for s0, s1, inv in blocks:
        acc = (B[s0:s1] - _exact_dot(T[s0:s1], X, p)) % p
        X[s0:s1] = _exact_dot(inv, acc, p)
    return X


def _make_sketch(nrows, k, q, seed):
    """Row map of a sparse sketch P (k x nrows): row r goes to sketch row
    bucket[r] with the nonzero F_p coefficient coeff[r].  The rows are dealt
    round-robin in a seeded random order, so every sketch row gets at most
    ceil(nrows / k) of them and none stays empty."""
    rng = np.random.default_rng([seed, nrows, k])
    bucket = np.empty(nrows, dtype=np.int64)
    bucket[rng.permutation(nrows)] = np.arange(nrows) % k
    return bucket, rng.integers(1, q, size=nrows)


class FieldSolver:
    """Echelon factorization of a matrix over a field descriptor (n == 1).

    ``marr`` is a dense (R, C, m) array or a CooMatrix.  ``rank`` and
    ``pivot_cols`` are over F_{p^m}.  ``pivot_rows`` index the rows (r, i) of
    the factored F_p matrix: the regular representation of the input, or of
    the sketch when the input was sketched (the input itself when m == 1).
    """

    def __init__(self, desc, marr, rank_only: bool = False):
        if not desc.is_field:
            raise ValueError("FieldSolver needs a field descriptor")
        self.desc = desc
        self.nrows, self.ncols = marr.shape[0], marr.shape[1]
        sparse = isinstance(marr, CooMatrix)
        self._sketch = None
        if self.nrows > self.ncols + _SKETCH_MARGIN:
            self.M = marr if sparse else CooMatrix.from_dense(marr % desc.q)
            for seed in _SKETCH_SEEDS:
                self._sketch = _make_sketch(self.nrows, self.ncols + _SKETCH_MARGIN, desc.q, seed)
                sk = self._apply_sketch(self.M.rows, self.M.vals, self.M.cols, self.ncols)
                self._factor(sk.reshape(-1, self.ncols, desc.m))
                if not np.any(self.M.dot(desc, self._kernel_matrix())):
                    break
            else:
                self._sketch = None
                self._factor(self.M.toarray())
        else:
            self.M = marr.toarray() if sparse else marr % desc.q
            self._factor(self.M)
        if rank_only:
            self._U = None

    def _apply_sketch(self, rows, vals, cols=0, width=1):
        """P applied to the entries vals at (rows, cols) of an R x width matrix."""
        bucket, coeff = self._sketch
        k = self.ncols + _SKETCH_MARGIN
        index = bucket[rows] * width + cols
        return _scatter(index, coeff[rows], vals, k * width, self.desc.q, -(-self.nrows // k))

    def _factor(self, marr):
        R, C, m = marr.shape
        if m == 1:
            self._factor_prime(marr[..., 0])
        else:
            # the F_p matrix: entry ((r, i), (c, j)) is coefficient i of marr[r, c] x^j
            self._factor_prime(ra.reg_rep(self.desc, marr).transpose(0, 2, 1, 3).reshape(R * m, C * m))
        # pivot column c over F_{p^m} is the F_p pivot block (c, 0..m-1)
        self.pivot_cols = self._pcols[::m] // m
        self.rank = len(self.pivot_cols)

    def _factor_prime(self, M0):
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
        self._U = U[:t]
        self._Upc = U[:t][:, self._pcols]
        self._tblocks = tblocks
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

    def _times(self, x):
        """M @ x against the unsketched input, exact."""
        desc = self.desc
        if isinstance(self.M, CooMatrix):
            return self.M.dot(desc, x)
        if desc.m == 1:
            flat = x.reshape(self.ncols, -1)
            return _exact_dot(self.M[..., 0], flat, desc.q).reshape((self.nrows,) + x.shape[1:])
        return ra.tensordot(desc, self.M, x, ([1], [0]))

    def factors(self, marr) -> bool:
        """Whether the factored input is exactly the dense (R, C, m) array marr."""
        M = self.M.toarray() if isinstance(self.M, CooMatrix) else self.M
        return M.shape == marr.shape and np.array_equal(M, marr)

    def solve(self, rhs: np.ndarray):
        """Canonical particular solution (free variables zero) or None.

        rhs has physical shape (R, m) or (R, w, m); the result matches with R
        replaced by the column count.
        """
        p, m = self.desc.q, self.desc.m
        b = rhs % p
        sb = b
        if self._sketch is not None:
            sb = self._apply_sketch(np.arange(self.nrows), b)
        # over F_p, row (r, i) of the right-hand side is coefficient i of sb[r]
        flat = sb.reshape(sb.shape[0], -1, m).swapaxes(1, 2).reshape(sb.shape[0] * m, -1)
        xp = np.zeros((self.ncols * m, flat.shape[1]), dtype=np.int64)
        if self.rank:
            # T beta = b on the pivot rows, Upc xp = beta
            beta = _block_substitute(self._Lpp, self._tblocks, flat[self.pivot_rows], p)
            xp[self._pcols] = _block_substitute(self._Upc, self._ublocks, beta, p)
        x = np.ascontiguousarray(xp.reshape(self.ncols, m, -1).swapaxes(1, 2))
        x = x.reshape((self.ncols,) + rhs.shape[1:])
        if np.any(self._times(x) != b):
            return None
        return x

    def kernel_basis(self):
        """Canonical kernel basis (one vector per free column, ascending)."""
        K = self._kernel_matrix()
        return [np.ascontiguousarray(K[:, j]) for j in range(K.shape[1])]
