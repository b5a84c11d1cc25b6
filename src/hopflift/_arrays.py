"""Integer ndarray kernels for tensors valued in F_{p^m} or GR(p^n, m).

A tensor is an int64 ndarray whose trailing axis has length m (the polynomial
coordinates of one ring element); every entry lies in [0, p^n).  All kernels
are exact: contractions run through float64/float32 BLAS only when the worst
case integer bound fits the mantissa, otherwise through int64 or object paths.
"""

import numpy as np

_F64_SAFE = 1 << 52
_I64_SAFE = 1 << 62


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


def tensordot(desc, a, b, axes):
    """Contract logical axes ``axes=(axA, axB)``; trailing m axes handled.

    Result logical axes are the free axes of ``a`` followed by those of ``b``.
    """
    axa = [ax % (a.ndim - 1) for ax in axes[0]]
    axb = [ax % (b.ndim - 1) for ax in axes[1]]
    q = desc.q
    k = 1
    for ax in axa:
        k *= a.shape[ax]
    if desc.m == 1:
        bound = k * (q - 1) * (q - 1)
        r = _raw_tensordot(a[..., 0], b[..., 0], (axa, axb), bound)
        return int64_mod(r, q)[..., None]
    areg = reg_rep(desc, a)
    breg = reg_rep(desc, b)
    bound = k * desc.m * (q - 1) * (q - 1)
    r = _raw_tensordot(areg, breg, (axa + [areg.ndim - 1], axb + [breg.ndim - 2]), bound)
    n_a_free = a.ndim - 1 - len(axa)
    # result axes: [a-free..., s, b-free..., u] -> [a-free..., b-free..., s, u]
    r = np.moveaxis(int64_mod(r, q), n_a_free, -2)
    return np.ascontiguousarray(r[..., :, 0])


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
    """Logical coordinates of nonzero entries (trailing axis collapsed)."""
    mask = np.any(arr != 0, axis=-1)
    return np.argwhere(mask)
