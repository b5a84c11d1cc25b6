"""Integer ndarray kernels for tensors valued in F_{p^m} or GR(p^n, m).

A tensor is an int64 ndarray whose trailing axis has length m (the polynomial
coordinates of one ring element); every entry lies in [0, p^n).  All kernels
are exact: contractions run through float64/float32 BLAS only when the worst
case integer bound fits the mantissa, otherwise through int64 or object paths,
and large contractions of sparse operands through their nonzeros alone.
"""

import math

import numpy as np

_F64_SAFE = 1 << 52
_I64_SAFE = 1 << 62
# when tensordot joins sparse operands; its docstring gives the measurement
_JOIN_MIN_MADDS = 1 << 22
_JOIN_PAIR_COST = 500


def int64_mod(r, q):
    """r mod q as an int64 array; r may be an object array or a Python int.

    An int64 array r is reduced in place and returned.
    """
    if isinstance(r, np.ndarray) and r.dtype == np.int64:
        r %= q
        return r
    return np.asarray(r % q, dtype=np.int64)


def mul_mod(a, b, q):
    """Elementwise a * b mod q for residues in [0, q), exact at every q.

    int64 while (q - 1)^2 < 2^62; object (Python int) arithmetic above, where
    the int64 product would wrap.
    """
    if (q - 1) * (q - 1) < _I64_SAFE:
        return a * b % q
    return int64_mod(np.asarray(a).astype(object) * np.asarray(b).astype(object), q)


def zeros(desc, shape):
    return np.zeros(tuple(shape) + (desc.m,), dtype=np.int64)


def reduce_(desc, arr):
    return np.asarray(arr, dtype=np.int64) % desc.q


def add(desc, a, b):
    return (a + b) % desc.q


def sub(desc, a, b):
    return (a - b) % desc.q


def neg(desc, a):
    return (-a) % desc.q


def scale_int(desc, a, c):
    return mul_mod(a, int(c % desc.q), desc.q)


def mul_x(desc, coeffs):
    """Multiply by the generator x along the trailing axis."""
    out = np.zeros_like(coeffs)
    out[..., 1:] = coeffs[..., :-1]
    top = coeffs[..., -1]
    return (out + mul_mod(top[..., None], desc.xm_red, desc.q)) % desc.q


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
    """Elementwise ring product with numpy broadcasting."""
    m, q = desc.m, desc.q
    if m == 1:
        return mul_mod(a, b, q)
    shape = np.broadcast_shapes(a.shape, b.shape)
    conv = np.zeros(shape[:-1] + (2 * m - 1,), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            conv[..., i + j] += mul_mod(a[..., i], b[..., j], q)
    conv %= q
    bound = (2 * m - 1) * (q - 1) * (q - 1)
    return int64_mod(_raw_tensordot(conv, desc.red_table, ([conv.ndim - 1], [0]), bound), q)


def _raw_tensordot(a, b, axes, bound):
    if bound < _F64_SAFE:
        r = np.tensordot(a.astype(np.float64), b.astype(np.float64), axes)
        return r.astype(np.int64)
    if bound < _I64_SAFE:
        return np.tensordot(a, b, axes)
    return np.tensordot(a.astype(object), b.astype(object), axes)


def expand(desc, a):
    """The operand form of a fixed first operand of tensordot, to pass as its
    a_reg: reg_rep(desc, a) over F_{p^m} and GR(p^n, m), m > 1; None for m = 1,
    where tensordot expands nothing."""
    return reg_rep(desc, a) if desc.m > 1 else None


def tensordot(desc, a, b, axes, a_reg=None):
    """Contract logical axes ``axes=(axA, axB)``; trailing m axes handled.

    Result logical axes are the free axes of ``a`` followed by those of ``b``.
    a_reg, when given, is expand(desc, a), kept by a caller that contracts
    the same a many times.

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
    axa = [ax % (a.ndim - 1) for ax in axes[0]]
    axb = [ax % (b.ndim - 1) for ax in axes[1]]
    k = 1
    for ax in axa:
        k *= a.shape[ax]
    # dense multiply-adds: a.size * b.size / (k m); a logical scalar stays dense
    if a.size * b.size >= _JOIN_MIN_MADDS * k * desc.m and a.ndim > 1 and b.ndim > 1:
        nza, nzb = nonzeros(a, axa), nonzeros(b, axb)
        pairs = int(np.bincount(nza[0], minlength=k) @ np.bincount(nzb[0], minlength=k))
        if pairs * _JOIN_PAIR_COST * k * desc.m < a.size * b.size:
            return _join(desc, a, b, axa, axb, k, nza, nzb)
    q = desc.q
    if desc.m == 1:
        bound = k * (q - 1) * (q - 1)
        r = _raw_tensordot(a[..., 0], b[..., 0], (axa, axb), bound)
        return int64_mod(r, q)[..., None]
    # coefficient s of a * b is sum_t (a x^t)_s b_t: only a needs its regular
    # representation, whose column axis t contracts with b's coefficient axis
    areg = reg_rep(desc, a) if a_reg is None else a_reg
    bound = k * desc.m * (q - 1) * (q - 1)
    r = _raw_tensordot(areg, b, (axa + [areg.ndim - 1], axb + [b.ndim - 1]), bound)
    # result axes: [a-free..., s, b-free...] -> [a-free..., b-free..., s]
    return np.ascontiguousarray(np.moveaxis(int64_mod(r, q), a.ndim - 1 - len(axa), -1))


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
    sums = np.zeros((cells.size, vals.shape[-1]), dtype=np.int64 if count * (q - 1) < _I64_SAFE else object)
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


def _join(desc, a, b, axa, axb, k, nza=None, nzb=None):
    """tensordot from the nonzeros of a and b (their nonzeros(), when already
    counted), given the nonnegative contracted axes and the number k of
    contracted indices: join() written into the dense, reduced, contiguous
    int64 array of the BLAS path."""
    free_a = [n for ax, n in enumerate(a.shape[:-1]) if ax not in axa]
    free_b = [n for ax, n in enumerate(b.shape[:-1]) if ax not in axb]
    nza = nonzeros(a, axa) if nza is None else nza
    nzb = nonzeros(b, axb) if nzb is None else nzb
    cells, vals = join(desc, nza, nzb, k, math.prod(free_b))
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
