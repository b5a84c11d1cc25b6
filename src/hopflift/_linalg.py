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

The input, kept as one CooMatrix M, is factored in small dense pieces with
every output unchanged.  A row equal to an earlier one is eliminated by it
and never becomes a pivot row, so only the distinct nonzero rows are kept.
Their entries join the columns into connected components (Pothen and Fan,
ACM TOMS 16(4), 1990), and the greedy column basis of a direct sum is the
union of its summands', each with its own pivot rows.  So the components,
by first column, are packed into groups of at most _BLOCK columns (a wider
component is a group of its own), and each group's rows are expanded to F_p
and factored alone, its components in rounds: round s pivots the s-th column
of each at once, an order that keeps each summand's column order and so the
greedy basis.  A solve gathers its right-hand side at the groups' pivot rows
(pivot_solve) and checks M.x = b exactly on the whole input.

The pivot rows are the greedy row basis too, the rows outside the span of
the rows above them: the reduced rows are a linear image of the input rows,
so a row in the span of earlier ones is reduced to a combination of rows
that are zero at the column being pivoted, or already pivots, and never
becomes the first unused row with a nonzero there.  So the pivot rows of a
matrix with its rows reversed are its greedy row basis from the last row up,
the rows cohomology's d_0 projection solves on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _arrays as ra

_BLOCK = 64
# the size of a sparse product's column blocks: each keeps entries x block x
# m x m near it
_BLOCK_CELLS = 1 << 22


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

    def dot(self, desc, x):
        """self @ x over the field, exact; x is (C, m) or (C, w, m).  The values
        are prepared once and kept: widened to the dtype whose sums over one
        row are exact (int64 or object) and, when m > 1, in their regular
        representation (nnz, 1, m, m).  Then all the nonzero rows at once, one
        column block of x at a time: a block has as many columns as keep
        entries x block x m x m near _BLOCK_CELLS; the entries' values times x
        gathered at their columns, (entries, block, m) terms, are summed over
        each row's segment.  Over F_p the product is elementwise."""
        if "_kept" not in self.__dict__:
            bounds = np.append(np.flatnonzero(np.diff(self.rows, prepend=-1)), self.rows.size)
            per_row = int(np.diff(bounds).max()) if bounds.size > 1 else 0
            dt = ra._wide_dtype(per_row * desc.m * (desc.q - 1) ** 2)
            vals = (self.vals if desc.m == 1 else ra.reg_rep(desc, self.vals)).astype(dt, copy=False)[:, None]
            object.__setattr__(self, "_kept", (vals, bounds, self.rows[bounds[:-1]]))
        vals, bounds, rows = self._kept
        xs = x.reshape(x.shape[0], math.prod(x.shape[1:-1]), desc.m)
        out = np.zeros((self.shape[0], xs.shape[1], desc.m), dtype=np.int64)
        step = max(1, _BLOCK_CELLS // max(1, self.rows.size * desc.m * desc.m))
        for w0 in range(0, xs.shape[1], step):
            g = xs[self.cols, w0 : w0 + step].astype(vals.dtype, copy=False)
            if desc.m == 1:
                terms = vals * g
            else:
                # coefficient s is sum_t (v x^t)_s g_t, added one t at a time
                # so that no (entries, block, m, m) product is written
                terms = vals[..., 0] * g[:, :, None, 0]
                for t in range(1, desc.m):
                    terms += vals[..., t] * g[:, :, None, t]
            out[rows, w0 : w0 + step] = ra.int64_mod(np.add.reduceat(terms, bounds[:-1], axis=0), desc.q)
        return out.reshape((self.shape[0],) + x.shape[1:])


def _inv_lower(T, invs, p, cuts=None):
    """Inverse over F_p of the lower triangular T whose diagonal has inverses invs
    (the diagonal of T itself is not read) and whose diagonal blocks between
    the cuts (0, ..., n; by default at every row) are diagonal.  Row i of the
    inverse X is invs[i] (e_i - T[i, :s0] X[:s0]) in the block s0:s1, so below
    the diagonal the block is S[s0:s1, :s0] X[:s0, :s0] for S = -diag(invs) T,
    which is scaled once for all rows."""
    invs = np.asarray(invs, dtype=np.int64)
    S = (-ra.mul_mod(invs[:, None], np.tril(T, -1), p)) % p
    out = np.diag(invs)
    cuts = range(len(invs) + 1) if cuts is None else cuts
    for s0, s1 in zip(cuts[1:-1], cuts[2:]):
        out[s0:s1, :s0] = _exact_dot(S[s0:s1, :s0], out[:s0, :s0], p)
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


def _distinct_rows(mat: CooMatrix) -> np.ndarray:
    """A mask of mat's entries that keeps each nonzero row unless it equals an
    earlier row.  A row is dropped when its entries equal those of the
    earliest row with its fingerprint: a splitmix64 hash of each entry's
    column and coefficients, summed over the row with wrap-around.  A
    fingerprint shared by unequal rows only keeps a repeated row."""
    starts = np.flatnonzero(np.diff(mat.rows, prepend=-1))
    lens = np.diff(np.append(starts, mat.rows.size))
    h = mat.cols.astype(np.uint64)
    for j in range(mat.vals.shape[1]):
        h = h * np.uint64(0x9E3779B97F4A7C15) + mat.vals[:, j].astype(np.uint64)
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1)):  # splitmix64's finalizer
        h = (h ^ (h >> np.uint64(shift))) * np.uint64(mul)
    key = np.add.reduceat(h, starts)
    order = np.argsort(key, kind="stable")
    fresh = np.diff(key[order], prepend=key[order][:1] + np.uint64(1)) != 0
    first = order[fresh][np.cumsum(fresh) - 1]  # the earliest row of each row's fingerprint
    same = (first != order) & (lens[first] == lens[order])
    rows, firsts, n = order[same], first[same], lens[order[same]]
    ramp = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    a, b = np.repeat(starts[rows], n) + ramp, np.repeat(starts[firsts], n) + ramp
    equal = (mat.cols[a] == mat.cols[b]) & np.all(mat.vals[a] == mat.vals[b], axis=1)
    drop = np.zeros(starts.size, dtype=bool)
    drop[rows[np.logical_and.reduceat(equal, np.cumsum(n) - n)]] = True
    return np.repeat(~drop, lens)


def _components(ncols, rows, cols) -> np.ndarray:
    """The first column of each column's connected component, where the
    entries of each row (rows ascending) join their columns.  Label
    propagation: each row's least label is hooked under the labels of its
    columns (np.minimum.at), then pointer jumping, until no row spans two
    labels."""
    label = np.arange(ncols)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    lens = np.diff(np.append(starts, rows.size))
    while True:
        at = label[cols]
        new = label.copy()
        np.minimum.at(new, at, np.repeat(np.minimum.reduceat(at, starts), lens))
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _pack(label) -> np.ndarray:
    """Each column's group: the components (label: each column's first
    column), by first column, packed into groups of at most _BLOCK columns; a
    wider component is a group of its own."""
    firsts = np.flatnonzero(label == np.arange(label.size))
    group, g, width = np.empty(label.size, dtype=np.int64), -1, _BLOCK
    for first, size in zip(firsts.tolist(), np.bincount(label)[firsts].tolist()):
        if width + size > _BLOCK:
            g, width = g + 1, 0
        group[first] = g
        width += size
    return group[label]


class _Echelon:
    """The greedy echelon factor over F_p of one dense (R, C, m) block, in its
    own row and column numbers: over F_p, row (r, i) and column (c, j) of the
    regular representation (the block itself when m == 1), in the connected
    components label gives.  rank_only stops once every row is a pivot row
    and keeps only the pivots.  A panel of _BLOCK columns pivots in rounds,
    round s taking the s-th column of each component there.  Components share
    no rows or columns, so a round's pivots are independent: one search, one
    rank-k update, and Lpp and Upc are diagonal within a round, which
    _inv_lower inverts at once.  rounds counts the searches."""

    def __init__(self, desc, block, rank_only, label):
        p, m = desc.q, desc.m
        R, C = block.shape[0] * m, block.shape[1] * m
        # the F_p matrix: entry ((r, i), (c, j)) is coefficient i of block[r, c] x^j
        M0 = block[..., 0] if m == 1 else ra.reg_rep(desc, block).transpose(0, 2, 1, 3).reshape(R, C)
        label = np.repeat(label, m)
        maxr = min(R, C)
        Lam = np.zeros((R, maxr), dtype=np.int64)
        Lpp = np.zeros((maxr, maxr), dtype=np.int64)  # Lam rows of the pivot rows
        U = np.zeros((maxr, C), dtype=np.int64)
        unused = np.ones(R, dtype=bool)
        pivot_rows, pivot_cols, invs = [], [], []
        # each panel's pivots form one block of the triangular factors, cut at its rounds
        tblocks, panel_cuts = [], []
        # a panel's entries are reduced mod p only when read: each of its at
        # most _BLOCK pivots subtracts products below (p-1)^2, so they are
        # exact in the dtype _arrays chooses for _BLOCK (p-1)^2 + p
        dt = ra._dtype(_BLOCK * (p - 1) ** 2 + p)
        reduce_copy = ra.f64_reduce if dt is np.float64 else np.remainder  # on copies of panel entries
        t = self.rounds = 0
        for c0 in range(0, C, _BLOCK):
            if rank_only and t == R:
                break
            c1 = min(C, c0 + _BLOCK)
            # U rows of earlier pivots on this panel (blocked forward solve),
            # then one bulk update of the panel for the unused rows; the rows
            # of used ones are never read and stay zero.
            rows = np.flatnonzero(unused)
            Wp = np.zeros((R, c1 - c0), dtype=dt)
            if t:
                Urows = _block_substitute(Lpp[:t, :t], tblocks, M0[pivot_rows, c0:c1], p)
                U[:t, c0:c1] = Urows
                Wp[rows] = (M0[rows, c0:c1] - _exact_dot(Lam[rows, :t], Urows, p)) % p
            else:
                Wp[rows] = M0[rows, c0:c1]
            if not Wp.any():
                # no unused row has a nonzero here: the panel has no pivot
                continue
            t0, cuts = t, [0]
            # each column's place among its component's columns in the panel;
            # round s takes the columns at place s
            lp, at = label[c0:c1], np.arange(c1 - c0)
            place = ((lp[:, None] == lp) & (at[:, None] > at)).sum(axis=1)
            order, ends = np.argsort(place, kind="stable"), np.cumsum(np.bincount(place)).tolist()
            for b0, b1 in zip([0] + ends, ends):
                self.rounds += 1
                js = order[b0:b1]
                cols = reduce_copy(Wp[:, js], p)
                # the first unused row with a nonzero in each column: used rows are zero mod p
                hit = cols != 0
                found = np.flatnonzero(hit.any(axis=0))
                if found.size == 0:
                    continue
                k, rs, lam = found.size, hit.argmax(axis=0)[found], cols[:, found]
                inv = [pow(int(v), p - 2, p) for v in cols[rs, found].tolist()]
                urows = reduce_copy(np.array(inv, dtype=dt)[:, None] * reduce_copy(Wp[rs], p), p)
                # every row loses its multiple of the round's pivot rows, which become zero mod p
                Wp -= np.dot(lam, urows)
                U[t : t + k, c0:c1] = urows
                Lam[:, t : t + k] = lam
                pivot_rows.extend(rs.tolist())
                pivot_cols.extend((c0 + js[found]).tolist())
                invs.extend(inv)
                t += k
                cuts.append(t - t0)
            if t > t0:
                # a pivot row's Lam row is complete once it is a pivot row
                Lpp[t0:t] = Lam[pivot_rows[t0:t]]
                unused[pivot_rows[t0:t]] = False
                tblocks.append((t0, t, _inv_lower(Lpp[t0:t, t0:t], invs[t0:t], p, cuts)))
                panel_cuts.append(cuts)
        self.pivot_rows = np.array(pivot_rows, dtype=np.int64)
        self.pcols = np.array(pivot_cols, dtype=np.int64)
        if rank_only:
            return
        self.Lpp, self.tblocks = Lpp[:t, :t], tblocks
        self.U = U[:t]
        self.Upc = self.U[:, self.pcols]
        # Upc is unit upper triangular: reversing both axes (and the rounds) makes it lower
        self.ublocks = [
            (s0, s1, _inv_lower(self.Upc[s0:s1, s0:s1][::-1, ::-1], [1] * (s1 - s0), p, [s1 - s0 - c for c in cuts[::-1]])[::-1, ::-1])
            for (s0, s1, _), cuts in zip(reversed(tblocks), reversed(panel_cuts))
        ]


class FieldSolver:
    """Echelon factorization of a matrix over a field descriptor (n == 1).

    ``marr`` is a dense (R, C, m) array or a CooMatrix, kept as the CooMatrix
    ``M`` reduced mod q.  ``rank`` and ``pivot_cols`` are over F_{p^m};
    ``pivot_rows`` are the rows (r, i) = r m + i of the input's F_p regular
    representation, in the order of their pivot columns.  A rank_only solver
    keeps just these; its solve and kernel_basis raise ValueError.
    """

    def __init__(self, desc, marr, rank_only: bool = False):
        if not desc.is_field:
            raise ValueError("FieldSolver needs a field descriptor")
        self.desc, self.rank_only = desc, rank_only
        self.nrows, self.ncols = marr.shape[0], marr.shape[1]
        self.M = marr if isinstance(marr, CooMatrix) else CooMatrix.from_dense(marr % desc.q)
        m, C = desc.m, self.ncols
        keep = _distinct_rows(self.M)
        rows, cols, vals = self.M.rows[keep], self.M.cols[keep], self.M.vals[keep]
        label = _components(C, rows, cols)
        group = np.zeros(C, dtype=np.int64) if C <= _BLOCK else _pack(label)
        # the columns and the entries of each group, in input order within it
        ngroups, egroup = int(group.max(initial=0)) + 1, group[cols]
        col_groups = np.split(np.argsort(group, kind="stable"), np.cumsum(np.bincount(group, minlength=ngroups))[:-1])
        ent_groups = np.split(np.argsort(egroup, kind="stable"), np.cumsum(np.bincount(egroup, minlength=ngroups))[:-1])
        local = np.empty(C, dtype=np.int64)  # each column's place in its group
        # per group: its pivot rows and pivot columns over F_p in input numbers, its columns, its factor
        self._groups = []
        for gcols, ent in zip(col_groups, ent_groups):
            local[gcols] = np.arange(gcols.size)
            grows, at = np.unique(rows[ent], return_inverse=True)
            block = np.zeros((grows.size, gcols.size, m), dtype=np.int64)
            block[at, local[cols[ent]]] = vals[ent]
            ech = _Echelon(desc, block, rank_only, label[gcols])
            prows = grows[ech.pivot_rows // m] * m + ech.pivot_rows % m
            self._groups.append((prows, gcols[ech.pcols // m] * m + ech.pcols % m, gcols, ech))
        pcols = np.concatenate([g[1] for g in self._groups])
        order = np.argsort(pcols, kind="stable")
        self.pivot_rows = np.concatenate([g[0] for g in self._groups])[order]
        # pivot column c over F_{p^m} is the F_p pivot block (c, 0..m-1)
        self.pivot_cols = pcols[order][::m] // m
        self.rank = len(self.pivot_cols)

    def pivot_solve(self, rhs: np.ndarray):
        """The x, free variables zero, that meets rhs on the pivot rows,
        unchecked elsewhere: solve without its exact check.

        rhs has physical shape (R, m) or (R, w, m); the result matches with R
        replaced by the column count.
        """
        if self.rank_only:
            raise ValueError("factorization was rank_only")
        p, m = self.desc.q, self.desc.m
        w = math.prod(rhs.shape[1:-1])
        bw = (rhs % p).reshape(rhs.shape[0], w, m)
        xp = np.zeros((self.ncols * m, w), dtype=np.int64)
        for prows, pcols, _, ech in self._groups:
            if pcols.size:
                # over F_p, row (r, i) of the right-hand side is coefficient i
                # of b[r]; T beta = b on the pivot rows, Upc xp = beta
                beta = _block_substitute(ech.Lpp, ech.tblocks, bw[prows // m, :, prows % m], p)
                xp[pcols] = _block_substitute(ech.Upc, ech.ublocks, beta, p)
        x = np.ascontiguousarray(xp.reshape(self.ncols, m, w).swapaxes(1, 2))
        return x.reshape((self.ncols,) + rhs.shape[1:])

    def solve(self, rhs: np.ndarray):
        """Canonical particular solution (free variables zero) or None: the
        pivot_solve x, kept when M.x = rhs exactly on every row."""
        x = self.pivot_solve(rhs)
        return x if np.array_equal(self.M.dot(self.desc, x), rhs % self.desc.q) else None

    def kernel_basis(self):
        """Canonical kernel basis (one vector per free column, ascending)."""
        if self.rank_only:
            raise ValueError("factorization was rank_only")
        m, p = self.desc.m, self.desc.q
        free = np.setdiff1d(np.arange(self.ncols), self.pivot_cols)
        # the kernel vector at free column f is the F_p one at free column (f, 0)
        K = np.zeros((self.ncols * m, free.size), dtype=np.int64)
        K[free * m, np.arange(free.size)] = 1
        for _, pcols, gcols, ech in self._groups:
            gfree = np.setdiff1d(np.arange(gcols.size), ech.pcols // m)
            if pcols.size and gfree.size:
                xp = _block_substitute(ech.Upc, ech.ublocks, ech.U[:, gfree * m], p)
                K[np.ix_(pcols, np.searchsorted(free, gcols[gfree]))] = (-xp) % p
        K = K.reshape(self.ncols, m, free.size).swapaxes(1, 2)
        return [np.ascontiguousarray(K[:, j]) for j in range(free.size)]
