"""Deformation lifting from F_q to GR(p^n, m), one p-digit at a time.

Each level digit-lifts the current structure, measures the failure of the
bialgebra axioms (an exact degree-2 cochain after division by p^k), kills it
with a coboundary over the residue field (contracted with the base's
separability idempotent, no factorization of d_1), then recovers unit, counit
and antipode by Hensel-solving linear systems whose reductions mod p are
invertible (those reductions are the base's, factored once per base; each
level solves one new digit).  One verify_hopf of the new presentation, with
its reduction mod p, certifies each level.  Morphisms lift digit by digit
from degree-1 coboundary solves, with one certificate per lifted map;
reconciling two lifts of one base is the lift of its identity morphism, and
R-matrices lift through their theta morphism.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import _arrays as ra
from . import cohomology as coh
from . import hopfcore as hc
from . import tensorcalc as tc
from ._linalg import FieldSolver
from .coeffring import check_modulus, exact_div_p_array, hensel_solve_array
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


@dataclass
class ObstructionReport:
    c: coh.TotalCochain
    _cocycle_ok: bool | None = None

    @property
    def cocycle_ok(self) -> bool:
        """d_total(c) = 0; evaluated lazily, only to diagnose a failed level
        (lift certifies a level by verify_hopf of its result instead)."""
        if self._cocycle_ok is None:
            self._cocycle_ok = coh.is_cocycle(self.c)
        return self._cocycle_ok

    @property
    def is_zero(self) -> bool:
        return self.c.is_zero

    @property
    def support(self) -> int:
        return sum(f.coeffs.any(axis=-1).sum() for f in self.c.components.values())


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


def _base_cache(base: HopfPresentation):
    """The context cache of base: per-base facts of the lifting are kept there."""
    return coh._cache(coh.make_context(base))


def _admit_base(base: HopfPresentation):
    if not base.verified:
        failing = hc.verify_hopf(base).failing()
        if failing:
            raise AxiomsViolated(f"base fails the Hopf axioms {', '.join(failing)}")
    if not base.verified or not base.ring.is_field:
        raise NotSemisimpleOrCosemisimple("base must be a VERIFIED presentation over F_q")
    if not _base_cache(base).memo("admitted", lambda: hc.is_semisimple(base) and hc.is_cosemisimple(base)):
        raise NotSemisimpleOrCosemisimple(
            "vanishing of the obstruction cohomology needs a semisimple and cosemisimple base"
        )


def _raw_extension(current: HopfPresentation, strategy, level: int):
    """Digit-lift (m, Delta) to precision level+1; perturbed adds p^level noise at level 1."""
    target = current.ring.at_precision(level + 1)
    mul = tc.map_digit_lift(current.mul, target)
    comul = tc.map_digit_lift(current.comul, target)
    kind, seed = parse_strategy(strategy)
    if kind == "perturbed" and level == 1:
        n = current.dim
        rng = np.random.default_rng([seed, level, 0xC0C])
        p = target.p
        noise_m = np.asarray(rng.integers(0, p, size=mul.coeffs.shape), dtype=np.int64)
        noise_d = np.asarray(rng.integers(0, p, size=comul.coeffs.shape), dtype=np.int64)
        mul = MultiMap(target, 2, 1, n, n, (mul.coeffs + p**level * noise_m) % target.q)
        comul = MultiMap(target, 1, 2, n, n, (comul.coeffs + p**level * noise_d) % target.q)
    return mul, comul


def initial_lift(base: HopfPresentation, strategy="canonical"):
    """Raw (m', Delta') over GR(p^2, m) extending the base structure."""
    _admit_base(base)
    return _raw_extension(base, strategy, 1)


def obstruction(mul: MultiMap, comul: MultiMap, base: HopfPresentation) -> ObstructionReport:
    """The degree-2 cochain c = a(m', Delta')/p^n mod p, with its cocycle check.

    Components: the (2,0) associativity, (1,1) compatibility and (0,2)
    coassociativity defects of hc._structure_residuals.
    """
    desc = mul.ring
    n = desc.n - 1
    N = mul.dim_out
    m_legs = mul.coeffs.reshape(N, N, N, desc.m)
    d_legs = comul.coeffs.reshape(N, N, N, desc.m)
    a1, a3, a2 = (ra.sub(desc, lhs, rhs) for lhs, rhs in hc._structure_residuals(desc, m_legs, d_legs))

    ctx = coh.make_context(base)
    comps = {}
    for (p, q), arr, ai, ao in (
        ((2, 0), a1.reshape(N, N**3, desc.m), 3, 1),
        ((1, 1), a2.reshape(N**2, N**2, desc.m), 2, 2),
        ((0, 2), a3.reshape(N**3, N, desc.m), 1, 3),
    ):
        if n > 0:
            _, divided = exact_div_p_array(desc, arr, n)
        else:
            divided = arr
        comps[(p, q)] = MultiMap(base.ring, ai, ao, N, N, divided % base.ring.p)
    return ObstructionReport(coh.TotalCochain(ctx, 2, comps))


# ---------------------------------------------------------------------------
# the Hensel systems of unit, counit and antipode
#
# Their matrices reduce mod p to the base's own, so each is factored once per
# base (held in the base's context cache), and a level seeded with the values
# of the level below, which they agree with mod p^k, solves one new digit.


def _unit_system(desc, m_legs, u0):
    """u |-> m(u (x) u0) as a matrix [a, b]."""
    return ra.tensordot(desc, m_legs, u0, ([2], [0]))


def _counit_system(desc, d_legs, e0):
    """f |-> (f (x) e0) Delta as a matrix [x, u]."""
    return ra.transpose(ra.tensordot(desc, d_legs, e0, ([1], [0])), (1, 0))


def _antipode_system(desc, m_legs, d_legs):
    """S |-> m(S (x) I)Delta as a matrix [(a, x), (w, u)]."""
    N = m_legs.shape[0]
    t = ra.tensordot(desc, d_legs, m_legs, ([1], [2]))  # D[u,v,x] M[a,w,v] -> [u,x,a,w]
    return ra.transpose(t, (2, 1, 3, 0)).reshape(N * N, N * N, desc.m)


def _hensel_solver(base: HopfPresentation, kind: str):
    """FieldSolver of the base's matrix of one Hensel system ("unit", "counit"
    or "antipode"), factored once per base."""

    def build():
        desc = base.ring
        M, D, U, E, _ = hc._legs(base)
        system = {
            "unit": lambda: _unit_system(desc, M, U),
            "counit": lambda: _counit_system(desc, D, E),
            "antipode": lambda: _antipode_system(desc, M, D),
        }[kind]
        return FieldSolver(desc, system())

    return _base_cache(base).memo(("hensel", kind), build)


def _hensel(desc, marr, rhs, kind: str, base: HopfPresentation | None, previous: HopfPresentation | None):
    """Solve the Hensel system of the tensor `kind` with the base's factor of
    it, seeded by that tensor of previous (the base by default), a solution
    mod p^k; without a base, factor and solve every digit."""
    if base is None:
        return hensel_solve_array(desc, marr, rhs)
    previous = base if previous is None else previous
    x0 = getattr(previous, kind).coeffs.reshape(marr.shape[1], desc.m)
    return hensel_solve_array(desc, marr, rhs, _hensel_solver(base, kind), (x0, previous.ring.n))


def correct(
    mul: MultiMap,
    comul: MultiMap,
    report: ObstructionReport,
    base: HopfPresentation,
    previous: HopfPresentation | None = None,
):
    """Kill the obstruction with a coboundary, then recover unit and counit.

    Returns (mul'', comul'', unit'', counit'').  This stage is uncertified:
    lift certifies its output, with the antipode, by one verify_hopf of the
    new presentation.  previous is the presentation that mul and comul
    digit-lift (the base by default): its unit and counit seed the Hensel
    solves.
    """
    desc = mul.ring
    n = desc.n - 1
    N = mul.dim_out
    if report.is_zero:
        mul2, comul2 = mul, comul
    else:
        x = coh._contract_obstruction(report.c)
        if x is None:
            if not report.cocycle_ok:
                raise NotACocycle("obstruction cochain is not closed")
            raise CoboundaryUnsolvable("obstruction is not a coboundary; H^2(A) = 0 is violated")
        mu = x.components[(1, 0)]
        delta = x.components[(0, 1)]
        pn = desc.p**n
        mul2 = MultiMap(desc, 2, 1, N, N, (mul.coeffs - pn * mu.coeffs) % desc.q)
        comul2 = MultiMap(desc, 1, 2, N, N, (comul.coeffs - pn * delta.coeffs) % desc.q)

    m_legs = mul2.coeffs.reshape(N, N, N, desc.m)
    d_legs = comul2.coeffs.reshape(N, N, N, desc.m)
    # unit: the square subsystem m''(u (x) u0) = u0, u0 any lift of the base
    # unit (only its reduction matters); counit: (eps'' (x) eps0) Delta'' = eps0
    u0 = tc.map_digit_lift(base.unit, desc).coeffs.reshape(N, desc.m)
    unit2 = _hensel(desc, _unit_system(desc, m_legs, u0), u0, "unit", base, previous)
    e0 = tc.map_digit_lift(base.counit, desc).coeffs.reshape(N, desc.m)
    counit2 = _hensel(desc, _counit_system(desc, d_legs, e0), e0, "counit", base, previous)
    unit_map = MultiMap(desc, 0, 1, N, N, unit2.reshape(N, 1, desc.m))
    counit_map = MultiMap(desc, 1, 0, N, N, counit2.reshape(1, N, desc.m))
    return mul2, comul2, unit_map, counit_map


def solve_antipode(
    mul: MultiMap,
    comul: MultiMap,
    unit: MultiMap,
    counit: MultiMap,
    base: HopfPresentation | None = None,
    previous: HopfPresentation | None = None,
) -> MultiMap:
    """Solve T(S) = m(S (x) I)Delta = unit o counit by Hensel lifting.

    T is invertible mod p because convolution by the identity is invertible
    in any Hopf algebra (its inverse is convolution by the base antipode).
    With the base given, T mod p is factored once per base, and the antipode
    of previous (the base by default) seeds the solve.  The left identity is
    exact by the solve; the right one is not checked here: lift certifies the
    output with one verify_hopf of the new presentation.
    """
    desc = mul.ring
    N = mul.dim_out
    m_legs = mul.coeffs.reshape(N, N, N, desc.m)
    d_legs = comul.coeffs.reshape(N, N, N, desc.m)
    u_vec = unit.coeffs.reshape(N, desc.m)
    e_vec = counit.coeffs.reshape(N, desc.m)
    rhs = ra.elem_mul(desc, u_vec[:, None, :], e_vec[None, :, :]).reshape(N * N, desc.m)
    s_vec = _hensel(desc, _antipode_system(desc, m_legs, d_legs), rhs, "antipode", base, previous)
    return MultiMap(desc, 1, 1, N, N, s_vec.reshape(N, N, desc.m))


_STRUCTURE_AXIOMS = {"associativity", "coassociativity", "delta_multiplicative"}
_UNIT_COUNIT_AXIOMS = {"unit", "counit", "counit_multiplicative", "delta_unit", "counit_unit"}


def _certificate_error(failing: list[str], report: ObstructionReport) -> Exception:
    """The exception of the stage whose output fails a level's certificate:
    the coboundary solve (axioms of m and Delta alone), the unit and counit
    solves, then the antipode solve, in pipeline order."""
    if _STRUCTURE_AXIOMS.intersection(failing):
        if not report.cocycle_ok:
            return NotACocycle("obstruction cochain is not closed")
        return CoboundaryUnsolvable(
            f"obstruction is not a coboundary; H^2(A) = 0 is violated (corrected pair fails {failing})"
        )
    if _UNIT_COUNIT_AXIOMS.intersection(failing):
        return PostAxiomFailure(f"recovered unit and counit fail {failing}")
    if "antipode_right" in failing:
        return RightAntipodeFailure("left antipode does not satisfy the right identity")
    return InternalAxiomFailure(f"presentation fails axioms: {failing}")


def lift(base: HopfPresentation, n: int, strategy="canonical") -> LiftState:
    """Iterate raw-extension / obstruction / correct / solve_antipode up to p^n.

    Each level has one exact certificate: verify_hopf of the new presentation
    (all ten axioms, residual exactly zero) and its reduction mod p equal to
    the base.  A failing axiom raises the exception of the stage that made it
    (_certificate_error).
    """
    check_modulus(base.ring.p, n)
    _admit_base(base)
    if n < 1:
        raise ValueError("precision must be >= 1")
    current = base
    transcript = []
    for level in range(1, n):
        t0 = time.perf_counter()
        mul, comul = _raw_extension(current, strategy, level)
        report = obstruction(mul, comul, base)
        mul2, comul2, unit2, counit2 = correct(mul, comul, report, base, current)
        s_map = solve_antipode(mul2, comul2, unit2, counit2, base, current)
        pres = HopfPresentation(mul2.ring, base.dim, mul2, unit2, comul2, counit2, s_map)
        axioms = hc.verify_hopf(pres)
        if not axioms.all_pass:
            raise _certificate_error(axioms.failing(), report)
        current = HopfPresentation(pres.ring, pres.dim, *pres.tensors(), verified=True)
        if hc.reduce_presentation(current, base.ring) != base:
            raise InternalAxiomFailure("lift does not reduce to its base mod p")
        solver_rank = None
        if not report.is_zero:
            solver_rank = coh._contraction(coh.make_context(base)).rank
        transcript.append(
            {
                "level": level,
                "precision": level + 1,
                "obstruction_support": int(report.support),
                "correction_applied": not report.is_zero,
                "solver_rank": solver_rank,
                "seconds": round(time.perf_counter() - t0, 6),
            }
        )
    return LiftState(base, n, current, transcript)


# ---------------------------------------------------------------------------
# lifting maps: morphisms, reconciliation (the identity) and R-matrices


def _lift_map(phi: HopfMorphism, lift_a: LiftState, lift_b: LiftState):
    """The map lift_a.current -> lift_b.current reducing to phi, one digit per
    level, with its certificate.

    Level k digit-lifts the map, divides its multiplicative and
    comultiplicative defects by p^k (NotDivisible if they are not), and
    subtracts p^k times the coboundary solution chi of that defect pair, so
    it changes digit k only; a zero defect pair has chi = 0 and solves
    nothing.  The final map reduced mod p^(k+1) is therefore the map of level
    k, and one morphism_failures of the final map, with its reduction to phi,
    certifies every level.  Returns the map and the names of the failed
    checks ("reduction" for the reduction to phi).
    """
    n = lift_a.precision
    na, nb = phi.source.dim, phi.target.dim
    fring = lift_a.base.ring
    ctx = coh.make_context(phi.source, phi.target, phi)
    fmap = phi.map.coeffs
    # only mul and comul enter the defects: their legs are reduced per level
    legs = hc._legs(lift_a.current)[:2] + hc._legs(lift_b.current)[:2]
    for k in range(1, n):
        desc = fring.at_precision(k + 1)
        f = fmap % desc.q  # digit lift
        sides = hc._morphism_residuals(desc, f, *(leg % desc.q for leg in legs))
        defect_m, defect_d = (ra.sub(desc, lhs, rhs) for lhs, rhs in sides)
        pk = desc.p**k
        if np.any(defect_m % pk) or np.any(defect_d % pk):
            raise NotDivisible(f"morphism defect not divisible by p^{k}")
        if not (defect_m.any() or defect_d.any()):
            fmap = f
            continue
        z = coh.TotalCochain(
            ctx,
            1,
            {
                (1, 0): MultiMap(fring, 2, 1, na, nb, ((defect_m // pk) % desc.p).reshape(nb, na * na, fring.m)),
                (0, 1): MultiMap(fring, 1, 2, na, nb, ((defect_d // pk) % desc.p).reshape(nb * nb, na, fring.m)),
            },
        )
        # a solution certifies z = d(chi), hence d z = 0: closedness is tested only after a failed solve
        chi = coh.solve_coboundary(z, _cocycle_checked=True)
        if chi is None:
            if not coh.is_cocycle(z):
                raise NotACocycle("morphism defect pair is not a 1-cocycle")
            raise CocycleUnsolvable("defect cocycle is not a coboundary; H^1(A,B,phi) = 0 is violated")
        fmap = (f - pk * chi.components[(0, 0)].coeffs) % desc.q
    desc = fring.at_precision(n)
    out = MultiMap(desc, 1, 1, na, nb, fmap % desc.q)
    fails = hc.morphism_failures(HopfMorphism(lift_a.current, lift_b.current, out))
    if np.any(ra.sub(fring, out.coeffs % fring.p, phi.map.coeffs)):
        fails.append("reduction")
    return out, fails


def reconcile(s1: LiftState, s2: LiftState) -> MultiMap:
    """Exact Hopf isomorphism eta: s1.current -> s2.current with eta = id mod p.

    eta is the lift of the identity morphism of the base (uniqueness of lifts
    is the H^1 = 0 case of lifting morphisms).  A map that is I mod p is
    invertible, so no inverse is formed; besides the map lift's certificate,
    eta is checked to intertwine the antipodes.  Every failure after the
    cocycle solves raises InternalAxiomFailure.
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

    A failed certificate raises PostAxiomFailure for the (co)multiplicative
    checks, else UnitCompatibilityFailure for the (co)unit ones (never
    silently repaired), else InternalAxiomFailure for the reduction to phi.
    """
    if not phi.verified:
        raise InternalAxiomFailure("phi must be VERIFIED")
    if phi.source != lift_a.base or phi.target != lift_b.base:
        raise DifferentBaseOrPrecision("phi must connect the two lift bases")
    if lift_a.precision != lift_b.precision:
        raise DifferentBaseOrPrecision("lift states must share the precision")
    for state in (lift_a, lift_b):
        _admit_base(state.base)
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
    """The dual-co-opposite lift: dualcop commutes with reduction mod p^k."""
    base = hc.dual_coopposite(state.base)
    current = hc.dual_coopposite(state.current)
    return LiftState(base, state.precision, current, [])


def lift_rmatrix(H: HopfPresentation, rmat, lift_a: LiftState) -> hc.RMatrix:
    """Lift a quasitriangular structure through its theta morphism (Thm 2.2 route)."""
    R = rmat.R if isinstance(rmat, hc.RMatrix) else rmat
    if H != lift_a.base:
        raise DifferentBaseOrPrecision("R-matrix host must be the lift base")
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
