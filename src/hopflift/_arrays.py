"""Integer ndarray kernels for tensors valued in F_{p^m} or GR(p^n, m).

A tensor is an int64 ndarray whose trailing axis has length m (the polynomial
coordinates of one ring element); every entry lies in [0, p^n).  Every
product in the ring is a sum of x-shifts by mul_x, whose one input is x^m
reduced by the modulus (RingDescriptor.xm_red; coeffring builds the modulus
with list polynomials): elem_mul sums b_t (a x^t), and tensordot contracts
with the regular representation reg_rep, whose column t is a x^t.  All kernels
are exact: contractions run through float64 BLAS only when the worst case
integer bound fits the mantissa (below 2^52), otherwise through int64 or
object paths, and large contractions of sparse operands through their
nonzeros alone.

A dense contraction is one np.dot of two 2-D operands.  How the operands are
transposed and reshaped, and how the product is laid out again, depends only
on the shapes, the axes and m, so it is planned once per such key (_plan,
kept in a bounded cache) and each call only transposes, converts, multiplies
and reshapes.  A float64 product becomes int64 before it is reduced mod q
(f64_mod): the cast is exact for integers below 2^52, which the float64 bound
implies.  Every int64 array is reduced by int64_mod.
"""

import functools
import math

import numpy as np

_F64_SAFE = 1 << 52
_I64_SAFE = 1 << 62
# when tensordot joins sparse operands; its docstring gives the measurement
_JOIN_MIN_MADDS = 1 << 22
_JOIN_PAIR_COST = 500
# when int64_mod divides instead of taking %, and the cells it divides at once;
# its docstring gives the measurement
_DIV_MIN_CELLS = 1024
_DIV_CHUNK = 1 << 16


def int64_mod(r, q):
    """r mod q as an int64 array; r may be an object array or a Python int.

    An int64 array r is reduced in place and returned.  From _DIV_MIN_CELLS
    cells on, a C-contiguous one is reduced as r - (r // q) q, _DIV_CHUNK
    cells at a time, so no temporary outgrows one chunk (512 KB): numpy
    divides int64 by a scalar through libdivide (Granlund and Montgomery,
    PLDI 1994), a multiply and a shift per cell, where its % divides in
    hardware.  Exact while (r // q) q fits int64: for every r >= 0, for
    r >= -2q at q <= 2^62 and r >= -3q at q <= 2^61, which bound every
    caller's sums, products and differences of residues.

    Measured by scripts/bench_one_product.py's int64_mod probe
    (BENCH_lean_level.json) on one core of a 2-core x86-64 host, in shares
    of an in-place %'s time on five moduli from 2 to 2^61 - 1: this
    division, chunk loop included, takes 0.95-1.12 at 1,024 cells, 0.53-0.62
    at 4,096 and 0.14-0.22 from 2^16 to 2^22 cells; one unchunked pass of
    r - (r // q) q takes 0.93-1.12 at 512 cells and 0.46-0.50 at 2^22 cells.
    """
    if not (isinstance(r, np.ndarray) and r.dtype == np.int64):
        return np.asarray(r % q, dtype=np.int64)
    if r.size < _DIV_MIN_CELLS or not r.flags.c_contiguous:
        r %= q
        return r
    flat = r.reshape(-1)
    for start in range(0, flat.size, _DIV_CHUNK):
        chunk = flat[start : start + _DIV_CHUNK]
        t = chunk // q
        t *= q
        chunk -= t
    return r


def mul_mod(a, b, q):
    """Elementwise a * b mod q for residues in [0, q), exact at every q.

    int64 while (q - 1)^2 < 2^62; object (Python int) arithmetic above, where
    the int64 product would wrap.
    """
    if (q - 1) * (q - 1) < _I64_SAFE:
        return int64_mod(a * b, q)
    return int64_mod(np.asarray(a).astype(object) * np.asarray(b).astype(object), q)


def zeros(desc, shape):
    return np.zeros(tuple(shape) + (desc.m,), dtype=np.int64)


def add(desc, a, b):
    return int64_mod(a + b, desc.q)


def sub(desc, a, b):
    return int64_mod(a - b, desc.q)


def neg(desc, a):
    return int64_mod(-a, desc.q)


def scale_int(desc, a, c):
    return mul_mod(a, int(c % desc.q), desc.q)


def mul_x(desc, coeffs):
    """Multiply by the generator x along the trailing axis: the top
    coefficient times x^m reduced (xm_red), plus the rest shifted up."""
    out = mul_mod(coeffs[..., -1:], desc.xm_red, desc.q)
    out[..., 1:] += coeffs[..., :-1]
    return int64_mod(out, desc.q)


def reg_rep(desc, arr):
    """Regular representation: trailing (m,) axis becomes (m, m)."""
    m = desc.m
    out = np.empty(arr.shape[:-1] + (m, m), dtype=np.int64)
    col = arr
    out[..., :, 0] = col
    for t in range(1, m):
        col = mul_x(desc, col)
        out[..., :, t] = col
    return out


def elem_mul(desc, a, b):
    """Elementwise ring product with numpy broadcasting: sum_t b_t (a x^t),
    a advanced by mul_x and the sum reduced after each add, which keeps it
    below 2 q <= 2^63."""
    m, q = desc.m, desc.q
    out = mul_mod(a, b[..., :1], q)
    for t in range(1, m):
        a = mul_x(desc, a)
        out += mul_mod(a, b[..., t : t + 1], q)
        int64_mod(out, q)
    return out


def _dtype(bound):
    """The dtype whose np.dot is exact for sums of products below bound."""
    return np.float64 if bound < _F64_SAFE else _wide_dtype(bound)


def _wide_dtype(bound):
    """The integer dtype whose sums below bound are exact: int64 below 2^62,
    else object (Python ints)."""
    return np.int64 if bound < _I64_SAFE else object


def f64_reduce(r, q):
    """r mod q, in place and as float64, for a float64 array r of integers
    with |r| < 2^52 and 1 <= q <= 2^52: r - floor(r/q) q.

    Exact: write r = n q + s, 0 <= s < q.  n is a double (|n| <= |r|), so
    fl(r/q) >= n, with equality when s = 0.  For s > 0, rounding up to n + 1
    needs n + 1 - r/q = (q - s)/q >= 1/q to be at most half the spacing of
    doubles in [n, n + 1], at most M 2^-53 with M = max(|n|, |n + 1|).  But
    M q < 2^53: M q = (n + 1) q <= r + q for r >= 0, |n| q = |r| + s for r < 0.
    So floor(fl(r/q)) = n, and n q and r - n q = s are exact in float64.
    """
    t = r / q
    np.floor(t, out=t)
    t *= q
    r -= t
    return r


def f64_mod(r, q):
    """r mod q as int64, for a float64 array r of integers with |r| < 2^52:
    the cast to int64 is exact there."""
    return int64_mod(r.astype(np.int64), q)


def _mod(r, q):
    """r mod q as int64 for a product np.dot made in the dtype _dtype chose."""
    return f64_mod(r, q) if r.dtype == np.float64 else int64_mod(r, q)


@functools.lru_cache(maxsize=1024)
def _plan(ashape, bshape, axes_a, axes_b, m):
    """How tensordot lays out a contraction of operands of these shapes as one
    2-D product: the nonnegative contracted axes of a and b, the number k of
    contracted indices, the transpose and 2-D shape of each operand, the 3-D
    shape (free a, s, free b) of the product when m > 1 (None when m = 1),
    and the result shape.

    The first operand is a when m = 1 and its regular representation when
    m > 1, with axes [logical..., s, t]: coefficient s of a x^t.  Its rows
    are (free a, s) and its columns (contracted, t); b's rows are
    (contracted, coefficient) and its columns its free axes.
    """
    na, nb = len(ashape) - 1, len(bshape) - 1
    axa = tuple(ax % na for ax in axes_a)
    axb = tuple(ax % nb for ax in axes_b)
    free_a = tuple(ax for ax in range(na) if ax not in axa)
    free_b = tuple(ax for ax in range(nb) if ax not in axb)
    k = math.prod(ashape[ax] for ax in axa)
    rows = math.prod(ashape[ax] for ax in free_a)
    cols = math.prod(bshape[ax] for ax in free_b)
    out = tuple(ashape[ax] for ax in free_a) + tuple(bshape[ax] for ax in free_b) + (m,)
    b_op = (axb + (nb,) + free_b, (k * m, cols))
    if m == 1:
        return axa, axb, k, (free_a + axa + (na,), (rows, k)), b_op, None, out
    return axa, axb, k, (free_a + (na,) + axa + (na + 1,), (rows * m, k * m)), b_op, (rows, m, cols), out


def tensordot(desc, a, b, axes):
    """Contract logical axes ``axes=(axA, axB)``; trailing m axes handled.

    Result logical axes are the free axes of ``a`` followed by those of ``b``.

    A dense contraction is one 2-D product laid out by _plan, which is kept
    per (shapes, axes, m): a transpose and reshape of each operand, fused with
    its conversion to the product's dtype, np.dot, and the reduction mod q.
    The dtype is the first of float64, int64 and object whose sums of k m
    products of residues, below k m (q-1)^2, are exact; a float64 product
    becomes int64 before it is reduced (f64_mod).

    A contraction of at least _JOIN_MIN_MADDS = 2^22 dense multiply-adds
    (k x output cells x m) counts the nonzeros of both operands; when their
    matching pairs number less than 1/_JOIN_PAIR_COST = 1/500 of the dense
    multiply-adds, it is computed by _join from the nonzeros alone (Gustavson,
    ACM TOMS 4(3), 1978).  The crossover was measured once on random operands
    over F_7 and F_9, on one core with one BLAS thread: a pair costs 120-370
    ns in the join and a dense multiply-add 0.2-1.6 ns, so the two paths
    break even at 200-500 multiply-adds per pair.  The result is the same
    array on either path.
    """
    q, m = desc.q, desc.m
    axa, axb, k, (perm_a, shape_a), (perm_b, shape_b), split, out = _plan(a.shape, b.shape, tuple(axes[0]), tuple(axes[1]), m)
    # dense multiply-adds: a.size * b.size / (k m); a logical scalar stays dense
    if a.size * b.size >= _JOIN_MIN_MADDS * k * m and a.ndim > 1 and b.ndim > 1:
        # join when pairs * cost < dense; the pairs are at most nnz(a) nnz(b),
        # and counted per key only when that bound does not decide
        cost, dense = _JOIN_PAIR_COST * k * m, a.size * b.size
        bound = np.count_nonzero(a) * np.count_nonzero(b)
        if bound * cost < dense or int(key_counts(a, axa) @ key_counts(b, axb)) * cost < dense:
            return _join(desc, a, b, axa, axb, k)
    dt = _dtype(k * m * (q - 1) * (q - 1))
    if m > 1:
        # coefficient s of a * b is sum_t (a x^t)_s b_t: only a needs its
        # regular representation, whose column axis t contracts with b's
        # coefficient axis
        a = reg_rep(desc, a)
    r = np.dot(
        a.transpose(perm_a).astype(dt, order="C", copy=False).reshape(shape_a),
        b.transpose(perm_b).astype(dt, order="C", copy=False).reshape(shape_b),
    )
    # the operands are freed before the reduction
    r = _mod(r, q)
    if split is not None:
        # (free a, s, free b) -> (free a, free b, s)
        r = r.reshape(split).transpose(0, 2, 1)
    return r.reshape(out)


def key_counts(arr, key_axes):
    """np.bincount of nonzeros(arr, key_axes)'s keys, without listing the nonzeros."""
    mask = arr[..., 0] != 0 if arr.shape[-1] == 1 else np.any(arr != 0, axis=-1)
    counts = np.count_nonzero(mask, axis=tuple(ax for ax in range(mask.ndim) if ax not in key_axes))
    order = sorted(key_axes)
    return np.asarray(counts).transpose([order.index(ax) for ax in key_axes]).ravel()


def nonzeros(arr, key_axes):
    """The nonzero entries of arr: their row-major flat index over the logical
    key_axes (in that order), over the other logical axes, and their values."""
    shape, m = arr.shape[:-1], arr.shape[-1]
    rows = arr.reshape(-1, m)
    at = np.flatnonzero(rows[:, 0] != 0 if m == 1 else np.any(rows != 0, axis=1))
    coords = np.unravel_index(at, shape)

    def flat(axes):
        if not axes:
            return np.zeros(at.size, dtype=np.intp)
        return np.ravel_multi_index([coords[ax] for ax in axes], [shape[ax] for ax in axes])

    return flat(key_axes), flat([ax for ax in range(len(shape)) if ax not in key_axes]), rows[at]


def collect(q, cells, vals, count):
    """The distinct cells, ascending, and the sums mod q of their rows of
    residues vals, without the cells whose sum is zero; no cell occurs more
    than count times.  Sums in int64 while count (q-1) < 2^62, else as Python
    ints."""
    cells, slot = np.unique(cells, return_inverse=True)
    sums = np.zeros((cells.size, vals.shape[-1]), dtype=_wide_dtype(count * (q - 1)))
    np.add.at(sums, slot.ravel(), vals.astype(sums.dtype))
    sums = int64_mod(sums, q)
    keep = np.any(sums != 0, axis=1)
    return cells[keep], sums[keep]


def join(desc, nza, nzb, k, nfree_b):
    """A contraction from nonzeros to nonzeros (Gustavson, ACM TOMS 4(3), 1978).

    nza and nzb are (key, free, vals) as nonzeros() gives them, for k
    contracted indices; nfree_b is the number of free cells of b.  Returns the
    nonzero output cells free_a * nfree_b + free_b, ascending, and their
    values, reduced mod q.  Over F_{p^m}, m > 1, products are ring products."""
    q, m = desc.q, desc.m
    ka, fa, va = nza
    kb, fb, vb = nzb
    # b's nonzeros in key order; pair j of a's nonzero i is the
    # (j - first[i])-th of those with key ka[i]
    order = np.argsort(kb, kind="stable")
    per_key = np.bincount(kb, minlength=k)
    counts = per_key[ka]
    first = np.cumsum(counts) - counts
    ia = np.repeat(np.arange(ka.size), counts)
    ib = order[np.arange(ia.size) + np.repeat((np.cumsum(per_key) - per_key)[ka] - first, counts)]
    prods = mul_mod(va[ia], vb[ib], q) if m == 1 else elem_mul(desc, va[ia], vb[ib])
    return collect(q, fa[ia] * nfree_b + fb[ib], prods, k)


def _join(desc, a, b, axa, axb, k):
    """tensordot from the nonzeros of a and b, given the nonnegative
    contracted axes and the number k of contracted indices: join() written
    into the dense, reduced, contiguous int64 array of the BLAS path."""
    free_a = [n for ax, n in enumerate(a.shape[:-1]) if ax not in axa]
    free_b = [n for ax, n in enumerate(b.shape[:-1]) if ax not in axb]
    cells, vals = join(desc, nonzeros(a, axa), nonzeros(b, axb), k, math.prod(free_b))
    out = np.zeros((math.prod(free_a + free_b), desc.m), dtype=np.int64)
    out[cells] = vals
    return out.reshape(tuple(free_a + free_b) + (desc.m,))


def kron2(desc, a, b):
    """Kronecker product of logical 2-D arrays, leftmost factor most significant."""
    r1, c1 = a.shape[0], a.shape[1]
    r2, c2 = b.shape[0], b.shape[1]
    prod = elem_mul(desc, a[:, None, :, None, :], b[None, :, None, :, :])
    return prod.reshape(r1 * r2, c1 * c2, desc.m)


def transpose(arr, perm):
    """Permute logical axes, keeping the trailing coefficient axis in place."""
    return np.transpose(arr, tuple(perm) + (arr.ndim - 1,))


def moveaxis(arr, src, dst):
    """np.moveaxis on logical axes (the trailing coefficient axis stays last)."""
    nd = arr.ndim - 1
    src = [s % nd for s in (src if isinstance(src, (list, tuple)) else [src])]
    dst = [d % nd for d in (dst if isinstance(dst, (list, tuple)) else [dst])]
    return np.moveaxis(arr, src, dst)


def one_scalar(desc):
    c = np.zeros(desc.m, dtype=np.int64)
    c[0] = 1
    return c


def eye(desc, n):
    out = zeros(desc, (n, n))
    out[np.arange(n), np.arange(n), 0] = 1
    return out


def nonzero_coords(arr):
    """Logical coordinates of nonzero entries (trailing axis collapsed), in
    row-major order; arr may be a boolean array."""
    mask = np.any(arr != 0, axis=-1)
    if mask.ndim < 2:
        return np.argwhere(mask)
    # one flat scan: np.nonzero on a many-axis mask is several times slower
    return np.column_stack(np.unravel_index(np.flatnonzero(mask), mask.shape))
