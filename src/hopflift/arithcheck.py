"""Exact cyclotomic integer arithmetic: conjugate products and the
characteristic threshold for the semisimple-implies-cosemisimple test.

All computations are over Z (arbitrary precision) or Z[x]/(Phi_r); nothing
floating-point enters, since every verdict is a divisibility statement.  The
polynomial product, division and gcd are coeffring's, over Z and F_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._ntheory import is_prime, totient
from .coeffring import _poly_divmod, _poly_gcd, _poly_mul, _poly_trim
from .errors import DimensionTooSmall, HopfliftError, NonConstantProduct, NotPrime, NotRealAtRoot


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, trailing zeros trimmed, ascending degree."""

    coeffs: tuple[int, ...]

    @staticmethod
    def of(seq) -> "IntPolynomial":
        return IntPolynomial(tuple(_poly_trim([int(c) for c in seq])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other):
        return IntPolynomial.of(_poly_mul(self.coeffs, other.coeffs))

    def divmod_exact_monic(self, g: "IntPolynomial"):
        """Division by a monic g over Z."""
        quot, rem = _poly_divmod(self.coeffs, g.coeffs)
        return IntPolynomial.of(quot), IntPolynomial.of(rem)

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if i == 0 else (f"{c}*x^{i}" if i > 1 else f"{c}*x"))
        return " + ".join(terms)


_CYCLOTOMIC: dict[int, IntPolynomial] = {}


def cyclotomic(r: int) -> IntPolynomial:
    """Phi_r by exact division of x^r - 1 by the proper cyclotomic factors."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r in _CYCLOTOMIC:
        return _CYCLOTOMIC[r]
    xr1 = IntPolynomial.of([-1] + [0] * (r - 1) + [1])
    denom = IntPolynomial.of([1])
    for d in range(1, r):
        if r % d == 0:
            denom = denom * cyclotomic(d)
    quot, rem = xr1.divmod_exact_monic(denom)
    if not rem.is_zero:
        raise HopfliftError(f"cyclotomic division left a remainder at r={r}")
    _CYCLOTOMIC[r] = quot
    return quot


def _fold_mod_xr1(coeffs, r, l=1):
    """P(x^l) mod x^r - 1 for P = coeffs, as r coefficients."""
    out = [0] * r
    for i, c in enumerate(coeffs):
        out[i * l % r] += c
    return out


def _mod_phi(coeffs, phi: IntPolynomial):
    return IntPolynomial.of(coeffs).divmod_exact_monic(phi)[1]


def conjugate_product(P, r: int) -> int:
    """N = product of P(zeta^l) over l coprime to r, l < r/2, computed exactly
    in Z[x]/(Phi_r).

    Requires r > 2 and the realness certificate a_l = a_{r-l} for the
    coefficients of P mod x^r - 1; symmetric inputs make the product
    Galois-stable, hence an integer.
    """
    if r <= 2:
        raise ValueError("conjugate products need r > 2 (empty index set otherwise)")
    coeffs = P.coeffs if isinstance(P, IntPolynomial) else [int(c) for c in P]
    folded = _fold_mod_xr1(coeffs, r)
    for l in range(1, r):
        if folded[l] != folded[r - l]:
            raise NotRealAtRoot(f"coefficient symmetry fails at degree {l}: P(zeta) may not be real")
    phi = cyclotomic(r)
    prod = IntPolynomial.of([1])
    for l in range(1, (r + 1) // 2):
        if math.gcd(l, r) != 1:
            continue
        prod = prod * _mod_phi(_fold_mod_xr1(folded, r, l), phi)
        prod = _mod_phi(prod.coeffs, phi)
    if prod.degree > 0:
        raise NonConstantProduct(f"conjugate product is not rational: {prod}")
    n_val = prod.coeffs[0] if prod.coeffs else 0
    d_sum = sum(abs(c) for c in folded)
    phi_r = totient(r)
    if n_val and abs(n_val) ** 2 > d_sum**phi_r:
        raise HopfliftError(f"|N| = {abs(n_val)} exceeds the bound D^(phi/2); internal bug")
    return n_val


@dataclass
class LemmaReport:
    r: int
    D: int
    phi_r: int
    bound: int
    N: int
    p: int
    p_exceeds_bound: bool
    p_coprime_to_r: bool
    p_divides_N: bool
    gcd_with_cyclotomic_trivial: bool | None
    conclusion: str  # nonvanishing-guaranteed | inapplicable | not-guaranteed


def _gcd_route(coeffs, r, p) -> bool:
    """gcd(P mod p, Phi_r mod p) over F_p is constant iff P misses every
    primitive r-th root of unity in the algebraic closure (valid for p not
    dividing r, which keeps Phi_r separable)."""
    phi = cyclotomic(r)
    a = [c % p for c in coeffs]
    b = [c % p for c in phi.coeffs]
    g = _poly_gcd(a, b, p)
    return len(g) <= 1


def lemma41(P, r: int, p: int) -> LemmaReport:
    """Full nonvanishing report: the integer-product route plus the
    independent gcd route; both must agree whenever the hypotheses hold.
    Needs r > 2 (conjugate_product's ValueError) and a prime p (NotPrime),
    over whose field the gcd route works."""
    coeffs = P.coeffs if isinstance(P, IntPolynomial) else [int(c) for c in P]
    n_val = conjugate_product(coeffs, r)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    folded = _fold_mod_xr1(coeffs, r)
    d_sum = sum(abs(c) for c in folded)
    phi_r = totient(r)
    bound = _integer_half_power(d_sum, phi_r)
    p_coprime = math.gcd(p, r) == 1
    exceeds = p > bound
    divides = n_val % p == 0
    gcd_trivial = _gcd_route(folded, r, p) if p_coprime else None
    if not p_coprime:
        conclusion = "inapplicable"
    elif exceeds and not divides:
        conclusion = "nonvanishing-guaranteed"
    else:
        conclusion = "not-guaranteed"
    if conclusion == "nonvanishing-guaranteed" and not gcd_trivial:
        raise HopfliftError("N-route and gcd-route disagree; one of them is buggy")
    return LemmaReport(
        r=r,
        D=d_sum,
        phi_r=phi_r,
        bound=bound,
        N=n_val,
        p=p,
        p_exceeds_bound=exceeds,
        p_coprime_to_r=p_coprime,
        p_divides_N=divides,
        gcd_with_cyclotomic_trivial=gcd_trivial,
        conclusion=conclusion,
    )


def _integer_half_power(base: int, phi: int) -> int:
    """D^(phi/2) exactly when phi is even; integer floor of the square root
    of D^phi otherwise (comparisons then square both sides)."""
    if phi % 2 == 0:
        return base ** (phi // 2)
    return math.isqrt(base**phi)


def kaplansky_threshold(d: int):
    """(d^(phi(d)/2), phi(d)): characteristics above the threshold make
    semisimplicity and cosemisimplicity equivalent in dimension d."""
    if d <= 2:
        raise DimensionTooSmall("the threshold is defined for dimensions d > 2")
    phi = totient(d)
    return d ** (phi // 2), phi
