"""Dense multilinear maps A^{tensor i} -> B^{tensor j} over one coefficient ring.

Coefficients are stored as one dense block indexed (out multi-index, in
multi-index), multi-indices ordered lexicographically with the leftmost
tensor leg most significant.  This layout is the package-wide convention:
the JSON format, obstruction comparisons and every contraction rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _arrays as ra
from .coeffring import RingDescriptor, RingElement
from .errors import ArityMismatch, DescriptorMismatch


@dataclass(frozen=True)
class MultiMap:
    ring: RingDescriptor
    arity_in: int
    arity_out: int
    dim_in: int
    dim_out: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.dim_out**self.arity_out, self.dim_in**self.arity_in, self.ring.m)
        if self.coeffs.shape != expected:
            raise ValueError(f"coeff shape {self.coeffs.shape} != {expected}")

    @property
    def dim(self) -> int:
        if self.dim_in != self.dim_out:
            raise ValueError("map has distinct source and target dimensions")
        return self.dim_in

    def entry(self, out_idx, in_idx) -> RingElement:
        o = _flatten_index(out_idx, self.dim_out, self.arity_out)
        i = _flatten_index(in_idx, self.dim_in, self.arity_in)
        return self.ring.element(list(self.coeffs[o, i]))

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, MultiMap):
            return NotImplemented
        return (
            self.ring == other.ring
            and (self.arity_in, self.arity_out) == (other.arity_in, other.arity_out)
            and (self.dim_in, self.dim_out) == (other.dim_in, other.dim_out)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.ring, self.arity_in, self.arity_out, self.coeffs.tobytes()))

    def __add__(self, other):
        _check_same_shape(self, other)
        return self._with(ra.add(self.ring, self.coeffs, other.coeffs))

    def __sub__(self, other):
        _check_same_shape(self, other)
        return self._with(ra.sub(self.ring, self.coeffs, other.coeffs))

    def __neg__(self):
        return self._with(ra.neg(self.ring, self.coeffs))

    def scale(self, c) -> "MultiMap":
        if isinstance(c, RingElement):
            return self._with(ra.elem_mul(self.ring, self.coeffs, c.as_array()))
        return self._with(ra.scale_int(self.ring, self.coeffs, int(c)))

    def _with(self, coeffs) -> "MultiMap":
        return MultiMap(self.ring, self.arity_in, self.arity_out, self.dim_in, self.dim_out, coeffs)

    def __repr__(self):
        return f"MultiMap({self.arity_in}->{self.arity_out}, dim {self.dim_in}->{self.dim_out}, {self.ring})"


def _flatten_index(idx, dim, arity):
    if isinstance(idx, (int, np.integer)):
        idx = (int(idx),)
    if len(idx) != arity:
        raise ValueError(f"index length {len(idx)} != arity {arity}")
    flat = 0
    for t in idx:
        flat = flat * dim + int(t)
    return flat


def _check_same_shape(f: MultiMap, g: MultiMap):
    if f.ring != g.ring:
        raise DescriptorMismatch(f"{f.ring} vs {g.ring}")
    if (f.arity_in, f.arity_out, f.dim_in, f.dim_out) != (g.arity_in, g.arity_out, g.dim_in, g.dim_out):
        raise ArityMismatch(f"{f} vs {g}")


def zero_map(ring, arity_in, arity_out, dim_in, dim_out=None) -> MultiMap:
    dim_out = dim_in if dim_out is None else dim_out
    return MultiMap(ring, arity_in, arity_out, dim_in, dim_out, ra.zeros(ring, (dim_out**arity_out, dim_in**arity_in)))


def identity_map(ring, dim, arity=1) -> MultiMap:
    return MultiMap(ring, arity, arity, dim, dim, ra.eye(ring, dim**arity))


def compose(f: MultiMap, g: MultiMap) -> MultiMap:
    """f after g: MultiMap(k->j) composed with MultiMap(i->k)."""
    if f.ring != g.ring:
        raise DescriptorMismatch(f"{f.ring} vs {g.ring}")
    if f.arity_in != g.arity_out or f.dim_in != g.dim_out:
        raise ArityMismatch(f"cannot compose {f} after {g}")
    coeffs = ra.tensordot(f.ring, f.coeffs, g.coeffs, ([1], [0]))
    return MultiMap(f.ring, g.arity_in, f.arity_out, g.dim_in, f.dim_out, coeffs)


def tensor(f: MultiMap, g: MultiMap) -> MultiMap:
    """Kronecker tensor product; arities add, leftmost factor most significant."""
    if f.ring != g.ring:
        raise DescriptorMismatch(f"{f.ring} vs {g.ring}")
    if f.arity_in and g.arity_in and f.dim_in != g.dim_in:
        raise ArityMismatch("tensor factors disagree on input dimension")
    if f.arity_out and g.arity_out and f.dim_out != g.dim_out:
        raise ArityMismatch("tensor factors disagree on output dimension")
    dim_in = f.dim_in if f.arity_in else g.dim_in
    dim_out = f.dim_out if f.arity_out else g.dim_out
    coeffs = ra.kron2(f.ring, f.coeffs, g.coeffs)
    return MultiMap(f.ring, f.arity_in + g.arity_in, f.arity_out + g.arity_out, dim_in, dim_out, coeffs)


def permute(ring: RingDescriptor, dim: int, sigma) -> MultiMap:
    """Permutation operator on dim^n: input leg t lands at output position sigma(t).

    sigma is 1-based, so permute(ring, N, (2, 1)) is the swap on two legs.
    Satisfies permute(sigma) o permute(tau) = permute(sigma o tau).
    """
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")
    size = dim**n
    idx = np.arange(size)
    digits = [(idx // dim ** (n - 1 - t)) % dim for t in range(n)]
    out_flat = np.zeros(size, dtype=np.int64)
    for t in range(n):
        out_flat += digits[t] * dim ** (n - sigma[t])
    coeffs = ra.zeros(ring, (size, size))
    coeffs[out_flat, idx, 0] = 1
    return MultiMap(ring, n, n, dim, dim, coeffs)


def iterate(H, q: int, direction: str) -> MultiMap:
    """Left-nested iterated product m_q or coproduct Delta_q (q = 1 is the identity).

    Delta_k = (Delta tensor I^{k-2}) o Delta_{k-1} expands the first leg.  m_q is
    the transpose of that iteration for Delta = m^T, since m_k = m_{k-1} o (m
    tensor I^{k-2}) transposes to it."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if direction not in ("coproduct", "product"):
        raise ValueError(f"unknown direction {direction!r}")
    f = H.comul if direction == "coproduct" else H.mul
    ring, dim = f.ring, f.dim_in
    if q == 1:
        return identity_map(ring, dim)
    delta = f.coeffs if direction == "coproduct" else np.swapaxes(f.coeffs, 0, 1)
    dleg = delta.reshape((dim, dim, dim, ring.m))
    cur = delta
    for k in range(3, q + 1):
        prev = cur.reshape((dim, dim ** (k - 2), dim, ring.m))
        cur = ra.tensordot(ring, dleg, prev, ([2], [0])).reshape(dim**k, dim, ring.m)  # [o1,o2, rest, x]
    if direction == "coproduct":
        return MultiMap(ring, 1, q, dim, dim, cur)
    return MultiMap(ring, q, 1, dim, dim, np.ascontiguousarray(np.swapaxes(cur, 0, 1)))


def map_reduce_precision(f: MultiMap, target: RingDescriptor) -> MultiMap:
    if not f.ring.lift_compatible(target) or target.n > f.ring.n:
        raise DescriptorMismatch(f"cannot reduce {f.ring} to {target}")
    return MultiMap(target, f.arity_in, f.arity_out, f.dim_in, f.dim_out, f.coeffs % target.q)


def map_digit_lift(f: MultiMap, target: RingDescriptor) -> MultiMap:
    if not f.ring.lift_compatible(target) or target.n < f.ring.n:
        raise DescriptorMismatch(f"cannot digit-lift {f.ring} to {target}")
    return MultiMap(target, f.arity_in, f.arity_out, f.dim_in, f.dim_out, f.coeffs.copy())
