"""Exact arithmetic in F_{p^m} and the Galois rings GR(p^n, m).

GR(p^n, m) is the finite truncation W(F_{p^m})/p^n of the Witt vectors;
GR(p, m) = F_{p^m} and GR(p^n, 1) = Z/p^n.  Elements are length-m integer
coefficient vectors of polynomial residues, stored reduced mod (p^n, modulus).

This module is the one home of the exact primitives: the polynomial product
and division over Z and F_p, and newton_lift, the one p-adic refinement,
which inverts scalars and matrices (hensel_solve) and serves the lift's unit,
counit and antipode.  List polynomials only build the modulus (the Rabin
test) and serve arithcheck over Z; arrays compute in the ring by
_arrays.mul_x, and a field inverse is the power a^(p^m - 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _arrays as ra
from ._ntheory import is_prime, prime_factors
from .errors import (
    DescriptorMismatch,
    NotAUnit,
    NotDivisible,
    NotPrime,
    ReducibleModulus,
    SingularModP,
    UnsupportedModulus,
)

# the largest modulus q = p^n: residues are int64, and a sum of two residues
# below 2^62 still fits
MAX_MODULUS = 1 << 62


def check_modulus(p: int, n: int):
    """Refuse q = p^n > MAX_MODULUS before anything is allocated for it."""
    if p**n > MAX_MODULUS:
        raise UnsupportedModulus(f"modulus {p}^{n} exceeds 2^62")

# ---------------------------------------------------------------------------
# polynomials over Z (p=None) or F_p: plain int lists, ascending degree


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p=None):
    """Schoolbook product over Z, reduced mod p at the end when p is given."""
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    return _poly_trim(res if p is None else [x % p for x in res])


def _poly_divmod(a, f, p=None):
    """(quotient, remainder) of a by f over F_p, or over Z (p=None) for a monic f.

    Over F_p only each quotient coefficient is reduced in the loop; the
    remainder's entries grow by less than p * max|f| per step and are
    reduced once at the end."""
    df = len(f) - 1
    inv_lead = 1 if p is None else pow(f[-1], p - 2, p)
    rem = list(a)
    quot = [0] * max(0, len(rem) - df)
    for i in range(len(rem) - 1, df - 1, -1):
        c = rem[i] if p is None else rem[i] * inv_lead % p
        if c:
            quot[i - df] = c
            for j in range(df + 1):
                rem[i - df + j] -= c * f[j]
    rem = rem[:df]
    return _poly_trim(quot), _poly_trim(rem if p is None else [x % p for x in rem])


def _poly_mulmod(a, b, f, p):
    """a*b mod (f, p) with f monic."""
    return _poly_divmod(_poly_mul(a, b, p), f, p)[1]


def _poly_powmod(a, e, f, p):
    result = [1]
    base = _poly_divmod(a, f, p)[1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim([x % p for x in a]), _poly_trim([x % p for x in b])
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_sub(a, b, p):
    res = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        res[i] = x
    for i, x in enumerate(b):
        res[i] = (res[i] - x) % p
    return _poly_trim(res)


def _is_irreducible_mod_p(f, p):
    """Rabin test for a monic polynomial f over F_p."""
    m = len(f) - 1
    if m < 1:
        return False
    x = [0, 1]
    xq = _poly_powmod(x, p**m, f, p)
    if _poly_trim(_poly_sub(xq, x, p)):
        return False
    for ell in prime_factors(m):
        h = _poly_sub(_poly_powmod(x, p ** (m // ell), f, p), x, p)
        g = _poly_gcd(h, f, p)
        if len(g) - 1 > 0:
            return False
    return True


def _default_modulus(p, m):
    """Smallest monic irreducible of degree m over F_p in lex coefficient order.

    The tails (c_0, .., c_{m-1}) are counted lazily as the base-p digits of
    p^(m-1), p^(m-1) + 1, ..., so the search starts at constant term 1: for
    m >= 2 every tail with c_0 = 0 gives a multiple of x."""
    for n in range(p ** (m - 1), p**m):
        f = [n // p ** (m - 1 - i) % p for i in range(m)] + [1]
        if _is_irreducible_mod_p(f, p):
            return tuple(f)
    raise ReducibleModulus(f"no irreducible of degree {m} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingDescriptor:
    """F_{p^m} when n == 1, otherwise GR(p^n, m); modulus is None iff m == 1."""

    p: int
    n: int
    m: int
    modulus: tuple[int, ...] | None = None

    @cached_property
    def q(self) -> int:
        return self.p**self.n

    @property
    def is_field(self) -> bool:
        return self.n == 1

    @cached_property
    def xm_red(self) -> np.ndarray:
        """Coefficients of x^m mod (modulus, p^n)."""
        if self.m == 1:
            return np.zeros(1, dtype=np.int64)
        return (-np.array(self.modulus[: self.m], dtype=np.int64)) % self.q

    def residue(self) -> "RingDescriptor":
        return self.at_precision(1)

    def at_precision(self, k: int) -> "RingDescriptor":
        """GR(p^k, m): lowering reduces the modulus mod p^k, raising keeps its
        representatives."""
        if k < 1:
            raise ValueError(f"precision {k} is below 1")
        if k == self.n:
            return self
        check_modulus(self.p, k)
        mod = self.modulus
        if k < self.n and self.m > 1:
            mod = tuple(c % self.p**k for c in self.modulus)
        return RingDescriptor(self.p, k, self.m, mod)

    def lift_compatible(self, other: "RingDescriptor") -> bool:
        if (self.p, self.m) != (other.p, other.m):
            return False
        if self.m == 1:
            return True
        qmin = self.p ** min(self.n, other.n)
        return all(a % qmin == b % qmin for a, b in zip(self.modulus, other.modulus))

    # element constructors -------------------------------------------------
    def element(self, coeffs) -> "RingElement":
        if isinstance(coeffs, (int, np.integer)):
            coeffs = [int(coeffs)] + [0] * (self.m - 1)
        coeffs = [int(c) % self.q for c in coeffs]
        if len(coeffs) != self.m:
            raise ValueError(f"expected {self.m} coefficients, got {len(coeffs)}")
        return RingElement(self, tuple(coeffs))

    @property
    def zero(self) -> "RingElement":
        return self.element(0)

    @property
    def one(self) -> "RingElement":
        return self.element(1)

    def __repr__(self):
        if self.m == 1:
            return f"GR({self.p}^{self.n})" if self.n > 1 else f"F_{self.p}"
        base = f"F_{self.p}^{self.m}" if self.n == 1 else f"GR({self.p}^{self.n},{self.m})"
        return base


def make_ring(p: int, n: int = 1, m: int = 1, modulus=None) -> RingDescriptor:
    """Build a verified descriptor for F_{p^m} (n=1) or GR(p^n, m)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    check_modulus(p, n)
    q = p**n
    if m == 1:
        if modulus is not None:
            raise ValueError("modulus only applies when m > 1")
        return RingDescriptor(p, n, 1, None)
    if modulus is None:
        mod = _default_modulus(p, m)
    else:
        mod = tuple(int(c) % q for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {m}")
    if not _is_irreducible_mod_p([c % p for c in mod], p):
        raise ReducibleModulus(f"modulus {mod} is reducible mod {p}")
    return RingDescriptor(p, n, m, mod)


@dataclass(frozen=True)
class RingElement:
    ring: RingDescriptor
    coeffs: tuple[int, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _bin(self, other, fn):
        if not isinstance(other, RingElement):
            other = self.ring.element(other)
        if other.ring != self.ring:
            raise DescriptorMismatch(f"{self.ring} vs {other.ring}")
        res = fn(self.as_array(), other.as_array())
        return RingElement(self.ring, tuple(int(c) for c in res))

    def __add__(self, other):
        return self._bin(other, lambda a, b: ra.add(self.ring, a, b))

    def __sub__(self, other):
        return self._bin(other, lambda a, b: ra.sub(self.ring, a, b))

    def __mul__(self, other):
        return self._bin(other, lambda a, b: ra.elem_mul(self.ring, a, b))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, tuple(int(c) for c in ra.neg(self.ring, self.as_array())))

    def __pow__(self, e):
        result = self.ring.one
        base = self
        e = int(e)
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        if self.ring.m == 1:
            return f"{self.coeffs[0]} in {self.ring}"
        return f"{list(self.coeffs)} in {self.ring}"


def arith(op: str, a: RingElement, b: RingElement) -> RingElement:
    if a.ring != b.ring:
        raise DescriptorMismatch(f"{a.ring} vs {b.ring}")
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def _inv_coeffs_field(desc: RingDescriptor, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of a nonzero element a of F_{p^m}: a^(p^m - 2)."""
    p = desc.p
    if desc.m == 1:
        return np.array([pow(int(coeffs[0]) % p, p - 2, p)], dtype=np.int64)
    return (desc.element(list(coeffs)) ** (p**desc.m - 2)).as_array()


def newton_lift(desc: RingDescriptor, x: np.ndarray, prec: int, xax) -> np.ndarray:
    """Newton's iteration x <- 2x - xax(x), from x right mod p^prec (prec >= 1)
    until it is right mod p^n.

    xax(x) is x a x when x is to be the inverse of a; the unit u of a product
    m is the same iteration's fixed point with xax(u) = m(u (x) u).  If x* is
    the answer and x = x* + p^k d, then xax(x) = x* + 2 p^k d mod p^2k: each
    step doubles the number of correct p-digits.
    """
    while prec < desc.n:
        x = ra.sub(desc, ra.add(desc, x, x), xax(x))
        prec *= 2
    return x


def _inv_coeffs(desc: RingDescriptor, coeffs: np.ndarray) -> np.ndarray:
    """Inverse of a unit of GR(p^n, m): invert mod p, then Newton-refine."""
    if not np.any(coeffs % desc.p):
        raise NotAUnit(f"{list(coeffs)} lies in the maximal ideal of {desc}")
    a = np.asarray(coeffs, dtype=np.int64) % desc.q
    x = _inv_coeffs_field(desc.residue(), coeffs % desc.p)
    return newton_lift(desc, x, 1, lambda x: ra.elem_mul(desc, x, ra.elem_mul(desc, a, x)))


def invert(a: RingElement) -> RingElement:
    return RingElement(a.ring, tuple(int(c) for c in _inv_coeffs(a.ring, a.as_array())))


def digit_lift(a: RingElement, target: RingDescriptor) -> RingElement:
    """Canonical lift: keep the integer coefficient representatives."""
    if target.n < a.ring.n or not a.ring.lift_compatible(target):
        raise DescriptorMismatch(f"cannot digit-lift {a.ring} into {target}")
    return target.element(list(a.coeffs))


def exact_div_p(a: RingElement, k: int) -> RingElement:
    """Divide by p^k, landing in GR(p^{n-k}, m)."""
    desc = a.ring
    if not 0 < k < desc.n:
        raise ValueError(f"need 0 < k < {desc.n}")
    pk = desc.p**k
    if any(c % pk for c in a.coeffs):
        raise NotDivisible(f"{a} is not divisible by p^{k}")
    target = desc.at_precision(desc.n - k)
    return target.element([c // pk for c in a.coeffs])


# ---------------------------------------------------------------------------
# linear solving (public wrappers; algorithms live in _linalg)


@dataclass
class LinearSolution:
    particular: list[RingElement] | None
    kernel_basis: list[list[RingElement]]
    rank: int


def _to_matrix_array(desc, rows):
    out = np.zeros((len(rows), len(rows[0]) if rows else 0, desc.m), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            e = v if isinstance(v, RingElement) else desc.element(v)
            if e.ring != desc:
                raise DescriptorMismatch("matrix entries from a different ring")
            out[i, j] = e.as_array()
    return out % desc.q


def _to_vector_array(desc, vec):
    out = np.zeros((len(vec), desc.m), dtype=np.int64)
    for i, v in enumerate(vec):
        e = v if isinstance(v, RingElement) else desc.element(v)
        out[i] = e.as_array()
    return out % desc.q


def solve_field(desc: RingDescriptor, matrix, rhs) -> LinearSolution:
    """Exact Gaussian elimination over F_{p^m} with deterministic pivoting.

    Returns the canonical particular solution (free variables zero) when the
    system is consistent, the full kernel basis, and the rank.
    """
    from ._linalg import FieldSolver

    if not desc.is_field:
        raise DescriptorMismatch("solve_field requires a field descriptor (n == 1)")
    marr = _to_matrix_array(desc, matrix)
    rarr = _to_vector_array(desc, rhs)
    solver = FieldSolver(desc, marr)
    x = solver.solve(rarr)
    particular = None if x is None else [desc.element(list(c)) for c in x]
    kern = [[desc.element(list(c)) for c in vec] for vec in solver.kernel_basis()]
    return LinearSolution(particular, kern, solver.rank)


def matrix_inverse(desc: RingDescriptor, marr: np.ndarray) -> np.ndarray:
    """Inverse of a square (N, N, m) matrix over GR(p^n, m): FieldSolver's
    inverse mod p, then newton_lift with x <- 2x - x a x.  SingularModP when
    marr is not square or not invertible mod p."""
    from ._linalg import FieldSolver

    n = marr.shape[0]
    if marr.shape[1] != n:
        raise SingularModP(f"matrix of shape {marr.shape[:2]} is not square")
    fdesc = desc.residue()
    solver = FieldSolver(fdesc, marr % desc.p)
    if solver.rank < n:
        raise SingularModP(f"matrix singular mod {desc.p} (rank {solver.rank} < {n})")
    a = marr % desc.q
    x = solver.solve(ra.eye(fdesc, n))
    return newton_lift(desc, x, 1, lambda x: ra.tensordot(desc, x, ra.tensordot(desc, a, x, ([1], [0])), ([1], [0])))


def hensel_solve(desc: RingDescriptor, matrix, rhs) -> list[RingElement]:
    """Solve M x = rhs over GR(p^n, m) for a square M invertible mod p."""
    marr = _to_matrix_array(desc, matrix)
    rarr = _to_vector_array(desc, rhs)
    x = hensel_solve_array(desc, marr, rarr)
    return [desc.element(list(c)) for c in x]


def hensel_solve_array(desc: RingDescriptor, marr: np.ndarray, rarr: np.ndarray) -> np.ndarray:
    """Array form of hensel_solve, x = M^-1 rhs; rarr may be (R, m) or (R, w, m)."""
    return ra.tensordot(desc, matrix_inverse(desc, marr), rarr, ([1], [0]))
