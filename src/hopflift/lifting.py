"""Deformation lifting from F_q to GR(p^n, m), one p-digit at a time.

Each level digit-lifts the pair (m, Delta), measures the failure of the
bialgebra axioms (an exact degree-2 cochain after division by p^k), and kills
it with a coboundary over the residue field (contracted with the separability
idempotents of the base and of its dual, no factorization of d_1).  Levels
carry the pair alone: the unit, counit and antipode, which the final pair
determines, are recovered once by Newton's iteration from those of the base,
ceil(log2 n) steps each and no linear solve.  A level changes only digit k of
the pair, which fixes the other three tensors, so one verify_hopf of the
final presentation, with its reduction mod p, certifies the whole lift.
Morphisms lift digit by digit by the same contraction in degree 1, with one
certificate per lifted map; reconciling two lifts of one base is the lift of
its identity morphism, and R-matrices lift through their theta morphism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import _arrays as ra
from . import cohomology as coh
from . import hopfcore as hc
from . import tensorcalc as tc
from .coeffring import check_modulus, newton_lift
from .errors import (
    AxiomsViolated,
    CoboundaryUnsolvable,
    CocycleUnsolvable,
    DifferentBaseOrPrecision,
    InternalAxiomFailure,
    NotACocycle,
    NotDivisible,
    NotSemisimpleOrCosemisimple,
    PostAxiomFailure,
    RightAntipodeFailure,
    TriangularityLost,
    UnitCompatibilityFailure,
)
from .hopfcore import HopfMorphism, HopfPresentation
from .tensorcalc import MultiMap


@dataclass
class LiftState:
    base: HopfPresentation
    precision: int
    current: HopfPresentation
    transcript: list = field(default_factory=list)

    def at_precision(self, k: int) -> HopfPresentation:
        if k == self.precision:
            return self.current
        return hc.reduce_presentation(self.current, self.base.ring.at_precision(k))


def parse_strategy(strategy):
    """'canonical' or 'perturbed:SEED' / ('perturbed', seed)."""
    if strategy == "canonical":
        return ("canonical", None)
    if isinstance(strategy, tuple) and strategy[0] == "perturbed":
        return ("perturbed", int(strategy[1]))
    if isinstance(strategy, str) and strategy.startswith("perturbed"):
        seed = strategy.split(":", 1)[1] if ":" in strategy else "0"
        return ("perturbed", int(seed))
    raise ValueError(f"unknown strategy {strategy!r}")


def _admit_base(base: HopfPresentation) -> HopfPresentation:
    """base marked VERIFIED, once admitted: over a field, semisimple and cosemisimple."""
    try:
        base = hc.verified(base)
    except InternalAxiomFailure as exc:
        raise AxiomsViolated(f"base fails the Hopf axioms {', '.join(exc.failing)}") from exc
    if not base.ring.is_field:
        raise NotSemisimpleOrCosemisimple("base must be a presentation over F_q")
    coh._require_idempotents(coh.make_context(base))  # the contraction reads both from this context
    return base


def _raw_extension(mul: MultiMap, comul: MultiMap, strategy, level: int):
    """Digit-lift (m, Delta) to precision level+1; perturbed adds p^level noise at level 1."""
    target = mul.ring.at_precision(level + 1)
    mul = tc.map_digit_lift(mul, target)
    comul = tc.map_digit_lift(comul, target)
    kind, seed = parse_strategy(strategy)
    if kind == "perturbed" and level == 1:
        n = mul.dim_out
        rng = np.random.default_rng([seed, level, 0xC0C])
        p = target.p
        noise_m = np.asarray(rng.integers(0, p, size=mul.coeffs.shape), dtype=np.int64)
        noise_d = np.asarray(rng.integers(0, p, size=comul.coeffs.shape), dtype=np.int64)
        mul = MultiMap(target, 2, 1, n, n, ra.int64_mod(mul.coeffs + p**level * noise_m, target.q))
        comul = MultiMap(target, 1, 2, n, n, ra.int64_mod(comul.coeffs + p**level * noise_d, target.q))
    return mul, comul


def initial_lift(base: HopfPresentation, strategy="canonical"):
    """Raw (m', Delta') over GR(p^2, m) extending the base structure."""
    base = _admit_base(base)
    return _raw_extension(base.mul, base.comul, strategy, 1)


def _digit(d: np.ndarray, k: int, p: int) -> np.ndarray:
    """Digit k of a defect d, a difference of two residues mod p^(k+1):
    (d / p^k) mod p, or NotDivisible unless p^k divides d.

    One floor division: quot = d // p^k lies in (-p, p), since |d| <
    p^(k+1), so quot mod p is quot plus p where quot is negative (where
    quot >> 63 is -1, not 0).
    """
    pk = p**k
    quot = d // pk
    if not np.array_equal(quot * pk, d):
        raise NotDivisible(f"tensor not divisible by p^{k}")
    quot += (quot >> 63) & p
    return quot


def obstruction(mul: MultiMap, comul: MultiMap, base: HopfPresentation) -> coh.TotalCochain:
    """The degree-2 cochain c = a(m', Delta')/p^n mod p, unchecked: lift
    tests its closedness only to diagnose a failed certificate.

    Components: the (2,0) associativity, (1,1) compatibility and (0,2)
    coassociativity defects of hc._structure_residuals, each written into one
    buffer a block at a time: subtracted into its slices and replaced by its
    digit n (_digit, NotDivisible unless p^n divides it).
    """
    desc = mul.ring
    n = desc.n - 1
    N = mul.dim_out
    m_legs = mul.coeffs.reshape(N, N, N, desc.m)
    d_legs = comul.coeffs.reshape(N, N, N, desc.m)
    comps = {}
    residuals = hc._structure_residuals(desc, m_legs, d_legs)
    # in the order of _structure_residuals: associativity, coassociativity, compatibility
    for ((p, q), ai, ao), blocks in zip((((2, 0), 3, 1), ((0, 2), 1, 3), ((1, 1), 2, 2)), residuals):
        c = np.empty((N**ao, N**ai, desc.m), dtype=np.int64)
        for lead, lhs, rhs in blocks:
            block = np.subtract(lhs, rhs, out=c.reshape(N, N, N, N, desc.m)[lead])
            del lhs, rhs
            block[...] = _digit(block, n, desc.p)
        comps[(p, q)] = MultiMap(base.ring, ai, ao, N, N, c)
    return coh.TotalCochain(coh.make_context(base), 2, comps)


def correct(mul: MultiMap, comul: MultiMap, c: coh.TotalCochain):
    """The pair (mul'', comul'') over GR(p^(k+1), m): mul and comul less p^k
    times the contraction of their obstruction c, a coboundary over the
    residue field.

    Uncertified here: lift certifies the final pair, with the unit, counit
    and antipode that _complete recovers from it, by one verify_hopf.
    """
    if c.is_zero:
        return mul, comul
    desc = mul.ring
    N = mul.dim_out
    x = coh._contract_obstruction(c)
    pn = desc.p ** (desc.n - 1)
    mul2 = MultiMap(desc, 2, 1, N, N, ra.int64_mod(mul.coeffs - pn * x.components[(1, 0)].coeffs, desc.q))
    comul2 = MultiMap(desc, 1, 2, N, N, ra.int64_mod(comul.coeffs - pn * x.components[(0, 1)].coeffs, desc.q))
    return mul2, comul2


# ---------------------------------------------------------------------------
# unit, counit and antipode by Newton's iteration
#
# Once (m, Delta) is a bialgebra mod p^n, its unit, counit and antipode are
# unique and agree mod p with those of the base; each step of newton_lift
# doubles the number of right p-digits, so ceil(log2 n) steps reach p^n.


def _unit_square(desc, m_legs, u):
    """m(u (x) u)."""
    return ra.tensordot(desc, ra.tensordot(desc, m_legs, u, ([2], [0])), u, ([1], [0]))


def _counit_square(desc, d_legs, e):
    """(e (x) e) Delta."""
    return ra.tensordot(desc, e, ra.tensordot(desc, e, d_legs, ([0], [0])), ([0], [0]))


def solve_antipode(mul: MultiMap, comul: MultiMap, base: HopfPresentation) -> MultiMap:
    """The antipode: the convolution inverse S of the identity, by Newton
    steps S <- 2S - S * I * S with f * g = m(f (x) g)Delta, seeded with the
    antipode of base, which mul and comul lift.

    The convolution unit, unit o counit, stays implicit in the step.  The
    output is unchecked here: lift certifies it by verify_hopf.
    """
    desc = mul.ring
    N = mul.dim_out
    m_legs = mul.coeffs.reshape(N, N, N, desc.m)
    d_legs = comul.coeffs.reshape(N, N, N, desc.m)

    def sis(s):
        return hc._convolution(desc, m_legs, d_legs, hc._convolution(desc, m_legs, d_legs, s, None), s)

    return MultiMap(desc, 1, 1, N, N, newton_lift(desc, base.antipode.coeffs, base.ring.n, sis))


def _complete(mul: MultiMap, comul: MultiMap, base: HopfPresentation) -> HopfPresentation:
    """The presentation of the pair (mul, comul), which lifts base's: its unit
    and counit by the Newton steps u <- 2u - m(u (x) u) and
    e <- 2e - (e (x) e)Delta from base's, and its antipode by solve_antipode.
    Unchecked: _certify tests it."""
    desc = mul.ring
    N = mul.dim_out
    m_legs = mul.coeffs.reshape(N, N, N, desc.m)
    d_legs = comul.coeffs.reshape(N, N, N, desc.m)
    u0, e0 = (t.coeffs.reshape(N, desc.m) for t in (base.unit, base.counit))
    unit = newton_lift(desc, u0, base.ring.n, lambda u: _unit_square(desc, m_legs, u))
    counit = newton_lift(desc, e0, base.ring.n, lambda e: _counit_square(desc, d_legs, e))
    unit_map = MultiMap(desc, 0, 1, N, N, unit.reshape(N, 1, desc.m))
    counit_map = MultiMap(desc, 1, 0, N, N, counit.reshape(1, N, desc.m))
    return HopfPresentation(desc, N, mul, unit_map, comul, counit_map, solve_antipode(mul, comul, base))


_STRUCTURE_AXIOMS = {"associativity", "coassociativity", "delta_multiplicative"}
_UNIT_COUNIT_AXIOMS = {"unit", "counit", "counit_multiplicative", "delta_unit", "counit_unit"}


def _certificate_error(failing: list[str], c: coh.TotalCochain) -> Exception:
    """The exception of the stage whose output fails the certificate:
    the coboundary solve (axioms of m and Delta alone), the unit and counit
    solves, then the antipode solve, in pipeline order.  Only here is the
    obstruction c tested for closedness."""
    if _STRUCTURE_AXIOMS.intersection(failing):
        if not coh.is_cocycle(c):
            return NotACocycle("obstruction cochain is not closed")
        return CoboundaryUnsolvable(
            f"obstruction is not a coboundary; H^2(A) = 0 is violated (corrected pair fails {failing})"
        )
    if _UNIT_COUNIT_AXIOMS.intersection(failing):
        return PostAxiomFailure(f"recovered unit and counit fail {failing}")
    if "antipode_right" in failing:
        return RightAntipodeFailure("left antipode does not satisfy the right identity")
    return InternalAxiomFailure(f"presentation fails axioms: {failing}")


def _certify(pres: HopfPresentation, c: coh.TotalCochain | None, base: HopfPresentation) -> HopfPresentation:
    """pres marked verified, once verify_hopf passes (all ten axioms, residual
    exactly zero) and it reduces to base mod p; else the exception of the stage
    that made the failing tensor (_certificate_error, with pres's obstruction c)."""
    failing = hc.verify_hopf(pres).failing()
    if failing:
        raise _certificate_error(failing, c)
    if hc.reduce_presentation(pres, base.ring) != base:
        raise InternalAxiomFailure("lift does not reduce to its base mod p")
    return HopfPresentation(pres.ring, pres.dim, *pres.tensors(), verified=True)


def lift(base: HopfPresentation, n: int, strategy="canonical") -> LiftState:
    """Iterate raw-extension / obstruction / correct on (m, Delta) up to p^n,
    then recover unit, counit and antipode once (_complete).

    The lift has one exact certificate, _certify of the final presentation.
    It certifies every level: a level changes only digit k of (m, Delta), and
    the unit, counit and antipode are unique given the final pair.  A wrong
    pair at level k is not a bialgebra mod p^(k+1), so level k+1's
    obstruction raises NotDivisible; level k's pair is then completed and
    certified with its own obstruction, to raise its stage's exception.
    """
    check_modulus(base.ring.p, n)
    base = _admit_base(base)
    if n < 1:
        raise ValueError("precision must be >= 1")
    mul, comul, c = base.mul, base.comul, None
    transcript = []
    for level in range(1, n):
        t0 = time.perf_counter()
        raw_mul, raw_comul = _raw_extension(mul, comul, strategy, level)
        try:
            level_c = obstruction(raw_mul, raw_comul, base)
        except NotDivisible:
            _certify(_complete(mul, comul, base), c, base)
            raise
        c = level_c
        mul, comul = correct(raw_mul, raw_comul, c)
        solver_rank = None
        if not c.is_zero:
            solver_rank = coh._contraction(c.context).rank
        transcript.append(
            {
                "level": level,
                "precision": level + 1,
                "obstruction_support": int(sum(f.coeffs.any(axis=-1).sum() for f in c.components.values())),
                "correction_applied": not c.is_zero,
                "solver_rank": solver_rank,
                "seconds": round(time.perf_counter() - t0, 6),
            }
        )
    return LiftState(base, n, _certify(_complete(mul, comul, base), c, base) if n > 1 else base, transcript)


# ---------------------------------------------------------------------------
# lifting maps: morphisms, reconciliation (the identity) and R-matrices


def _defect_error(z: coh.TotalCochain) -> Exception:
    """The exception of a solved map level that fails its certificate, as _certificate_error's."""
    if not coh.is_cocycle(z):
        return NotACocycle("morphism defect cochain is not closed")
    return CocycleUnsolvable("defect cocycle is not a coboundary; H^1(A,B,phi) = 0 is violated")


def _lift_map(phi: HopfMorphism, lift_a: LiftState, lift_b: LiftState):
    """The map lift_a.current -> lift_b.current reducing to phi, one digit per
    level, with its certificate.

    Level k digit-lifts the map, takes digit k of its multiplicative and
    comultiplicative defects (_digit: NotDivisible unless p^k divides them), and
    subtracts p^k times their unchecked contraction chi, so it changes digit
    k only; a zero defect pair has chi = 0 and solves nothing.  An exact chi
    is what makes the next level's defects divisible and the final map
    (co)multiplicative, so those tests certify each solved level, and one
    that fails raises _defect_error of its defect.  Returns the map and the
    names of the failed checks ("reduction" for the reduction to phi).
    """
    for state in (lift_a, lift_b):
        _admit_base(state.base)  # the contraction needs both idempotents
    n = lift_a.precision
    na, nb = phi.source.dim, phi.target.dim
    fring = lift_a.base.ring
    ctx = coh.make_context(phi.source, phi.target, phi)
    fmap = phi.map.coeffs
    # only mul and comul enter the defects: their legs are reduced per level
    legs = hc._legs(lift_a.current)[:2] + hc._legs(lift_b.current)[:2]
    solved = None  # the last solved level's defect: a zero defect pair leaves the map exact
    for k in range(1, n):
        desc = fring.at_precision(k + 1)
        # fmap, reduced mod p^k < desc.q, is read as its own digit lift
        sides = hc._morphism_residuals(desc, fmap, *(ra.int64_mod(leg.copy(), desc.q) for leg in legs))
        try:
            digit_m, digit_d = (_digit(lhs - rhs, k, desc.p) for lhs, rhs in sides)
        except NotDivisible:
            if solved is not None:
                raise _defect_error(solved) from None
            raise NotDivisible(f"morphism defect not divisible by p^{k}") from None
        if not (digit_m.any() or digit_d.any()):
            continue
        comps = {
            (1, 0): MultiMap(fring, 2, 1, na, nb, digit_m.reshape(nb, na * na, fring.m)),
            (0, 1): MultiMap(fring, 1, 2, na, nb, digit_d.reshape(nb * nb, na, fring.m)),
        }
        solved = coh.TotalCochain(ctx, 1, comps)
        chi = coh._contract_obstruction(solved)
        fmap = ra.int64_mod(fmap - desc.p**k * chi.components[(0, 0)].coeffs, desc.q)
    desc = fring.at_precision(n)
    out = MultiMap(desc, 1, 1, na, nb, fmap % desc.q)
    fails = hc.morphism_failures(HopfMorphism(lift_a.current, lift_b.current, out))
    if solved is not None and {"multiplicative", "comultiplicative"}.intersection(fails):
        raise _defect_error(solved)
    if np.any(ra.sub(fring, out.coeffs % fring.p, phi.map.coeffs)):
        fails.append("reduction")
    return out, fails


def reconcile(s1: LiftState, s2: LiftState) -> MultiMap:
    """Exact Hopf isomorphism eta: s1.current -> s2.current with eta = id mod p.

    eta is the lift of the identity morphism of the admitted base (uniqueness
    of lifts is the H^1 = 0 case of lifting morphisms).  A map that is I mod p
    is invertible, so no inverse is formed; besides the map lift's
    certificate, eta is checked to intertwine the antipodes.  Every other
    failure after the level solves raises InternalAxiomFailure.
    """
    if s1.base != s2.base or s1.precision != s2.precision:
        raise DifferentBaseOrPrecision("reconcile needs the same base and precision")
    try:
        eta, fails = _lift_map(hc.identity_morphism(s1.base), s1, s2)
    except NotDivisible as exc:
        raise InternalAxiomFailure(f"the lifts differ: {exc}") from exc
    desc = eta.ring
    s_l = ra.tensordot(desc, eta.coeffs, s1.current.antipode.coeffs, ([1], [0]))
    s_r = ra.tensordot(desc, s2.current.antipode.coeffs, eta.coeffs, ([1], [0]))
    if np.any(s_l != s_r):
        fails.append("antipode")
    if fails:
        raise InternalAxiomFailure(f"eta fails {fails}")
    return eta


def lift_morphism(phi: HopfMorphism, lift_a: LiftState, lift_b: LiftState) -> HopfMorphism:
    """The unique Hopf morphism between the lifts reducing to phi mod p.

    A failed certificate raises _defect_error's exception for a solved
    level, else PostAxiomFailure for the (co)multiplicative checks, else
    UnitCompatibilityFailure for the (co)unit ones (never silently
    repaired), else InternalAxiomFailure for the reduction to phi.
    """
    if not phi.verified:
        raise InternalAxiomFailure("phi must be VERIFIED")
    if phi.source != lift_a.base or phi.target != lift_b.base:
        raise DifferentBaseOrPrecision("phi must connect the two lift bases")
    if lift_a.precision != lift_b.precision:
        raise DifferentBaseOrPrecision("lift states must share the precision")
    out, fails = _lift_map(phi, lift_a, lift_b)
    for names, error in (
        ({"multiplicative", "comultiplicative"}, PostAxiomFailure),
        ({"unital", "counital"}, UnitCompatibilityFailure),
        ({"reduction"}, InternalAxiomFailure),
    ):
        if names.intersection(fails):
            raise error(f"lifted morphism fails {fails}")
    return HopfMorphism(lift_a.current, lift_b.current, out, verified=True)


def dualcop_state(state: LiftState) -> LiftState:
    """The dual-co-opposite lift: dualcop commutes with reduction mod p^k.  Base
    and current pass through hc.verified; the results are VERIFIED by derivation."""
    base = hc.dual_coopposite(hc.verified(state.base))
    current = hc.dual_coopposite(hc.verified(state.current))
    return LiftState(base, state.precision, current, [])


def lift_rmatrix(H: HopfPresentation, rmat, lift_a: LiftState) -> hc.RMatrix:
    """Lift a quasitriangular structure through its theta morphism (Thm 2.2 route)."""
    R = rmat.R if isinstance(rmat, hc.RMatrix) else rmat
    if H != lift_a.base:
        raise DifferentBaseOrPrecision("R-matrix host must be the lift base")
    if R.dim_out != H.dim:
        raise DifferentBaseOrPrecision(f"R-matrix of dimension {R.dim_out} does not match its host of dimension {H.dim}")
    checked = rmat if isinstance(rmat, hc.RMatrix) and rmat.quasitriangular else hc.verify_qt(H, R)
    if not checked.quasitriangular:
        raise InternalAxiomFailure("input R-matrix is not quasitriangular")
    th = hc.theta(H, R)
    dstate = dualcop_state(lift_a)
    if th.source != dstate.base:
        raise InternalAxiomFailure("theta source does not match the dual-co-opposite base")
    th_bar = lift_morphism(th, dstate, lift_a)
    r_bar = hc.theta_to_rmatrix(th_bar)
    out = hc.verify_qt(lift_a.current, r_bar)
    if not out.quasitriangular:
        raise InternalAxiomFailure("lifted R-matrix fails quasitriangularity")
    if np.any(ra.sub(H.ring, r_bar.coeffs % H.ring.p, R.coeffs)):
        raise InternalAxiomFailure("lifted R-matrix does not reduce to R")
    if checked.triangular and not out.triangular:
        raise TriangularityLost("triangularity was not preserved by the lift")
    return out
