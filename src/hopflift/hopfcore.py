"""Hopf algebra presentations by structure constants, constructors and analyses.

A presentation stores the five structure tensors (mul, unit, comul, counit,
antipode) over one RingDescriptor.  Constructors cover group algebras, duals,
dual-co-opposites and Drinfeld doubles; analyses cover axiom verification,
integrals and (co)semisimplicity, grouplikes, quasitriangular structures,
the Drinfeld element, theta maps and Wedderburn block dimensions.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import _arrays as ra
from . import tensorcalc as tc
from ._linalg import FieldSolver
from .catalog import group_table
from .coeffring import RingDescriptor, RingElement, _inv_coeffs_field, hensel_solve_array
from .errors import (
    DescriptorMismatch,
    FieldTooLargeForRootSearch,
    InternalAxiomFailure,
    NotAGroup,
    NotSemisimple,
    NotSplit,
    OrderNotFound,
    SingularAntipode,
    ThetaNotHopfMap,
)
from .tensorcalc import MultiMap

ROOT_BOUND_ENV = "HOPFLIFT_ROOT_BOUND"
_DEFAULT_ROOT_BOUND = 1 << 16


def root_search_bound() -> int:
    return int(os.environ.get(ROOT_BOUND_ENV, _DEFAULT_ROOT_BOUND))


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True, eq=False)
class HopfPresentation:
    ring: RingDescriptor
    dim: int
    mul: MultiMap
    unit: MultiMap
    comul: MultiMap
    counit: MultiMap
    antipode: MultiMap
    verified: bool = field(default=False, compare=False)

    def __post_init__(self):
        for name, mm, ai, ao in (
            ("mul", self.mul, 2, 1),
            ("unit", self.unit, 0, 1),
            ("comul", self.comul, 1, 2),
            ("counit", self.counit, 1, 0),
            ("antipode", self.antipode, 1, 1),
        ):
            if mm.ring != self.ring:
                raise DescriptorMismatch(f"{name} tensor over {mm.ring}, presentation over {self.ring}")
            if (mm.arity_in, mm.arity_out) != (ai, ao):
                raise ValueError(f"{name} has arities {mm.arity_in}->{mm.arity_out}")
            if (mm.dim_in, mm.dim_out) != (self.dim, self.dim):
                raise ValueError(f"{name} dimension mismatch")
            # the digest is computed once, so the coefficients must not change:
            # a view is copied (its base could still be written) and frozen
            if mm.coeffs.flags.writeable or not mm.coeffs.flags.owndata:
                coeffs = mm.coeffs if mm.coeffs.flags.owndata else mm.coeffs.copy()
                coeffs.setflags(write=False)
                object.__setattr__(self, name, replace(mm, coeffs=coeffs))

    def __eq__(self, other):
        if not isinstance(other, HopfPresentation):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.dim == other.dim
            and self.mul == other.mul
            and self.unit == other.unit
            and self.comul == other.comul
            and self.counit == other.counit
            and self.antipode == other.antipode
        )

    def __hash__(self):
        return hash(self.digest())

    def tensors(self):
        return (self.mul, self.unit, self.comul, self.counit, self.antipode)

    def digest(self) -> bytes:
        """sha256 of the ring and the five tensors, computed once."""
        if "_digest" not in self.__dict__:
            h = hashlib.sha256()
            h.update(repr((self.ring.p, self.ring.n, self.ring.m, self.ring.modulus, self.dim)).encode())
            for t in self.tensors():
                h.update(np.ascontiguousarray(t.coeffs).tobytes())
            object.__setattr__(self, "_digest", h.digest())
        return self._digest

    def __repr__(self):
        tag = "VERIFIED " if self.verified else ""
        return f"<{tag}HopfPresentation dim {self.dim} over {self.ring}>"


def make_presentation(ring, mul, unit, comul, counit, antipode, verify=True) -> HopfPresentation:
    H = HopfPresentation(ring, mul.dim_out, mul, unit, comul, counit, antipode)
    if verify:
        report = verify_hopf(H)
        if not report.all_pass:
            raise InternalAxiomFailure(f"presentation fails axioms: {report.failing()}")
        H = HopfPresentation(ring, H.dim, *H.tensors(), verified=True)
    return H


# ---------------------------------------------------------------------------
# axiom verification


@dataclass
class AxiomCheck:
    name: str
    ok: bool
    residual_count: int
    residual_sample: list


@dataclass
class AxiomReport:
    checks: list[AxiomCheck]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _residual_check(name, lhs, rhs) -> AxiomCheck:
    """The cells where the reduced tensors lhs and rhs differ, i.e. where
    lhs - rhs is nonzero mod q."""
    coords = ra.nonzero_coords(lhs != rhs)
    return AxiomCheck(name, coords.shape[0] == 0, int(coords.shape[0]), [tuple(map(int, c)) for c in coords[:5]])


def _legs(H: HopfPresentation):
    N, m = H.dim, H.ring.m
    M = H.mul.coeffs.reshape(N, N, N, m)
    D = H.comul.coeffs.reshape(N, N, N, m)
    U = H.unit.coeffs.reshape(N, m)
    E = H.counit.coeffs.reshape(N, m)
    S = H.antipode.coeffs
    return M, D, U, E, S


def _structure_residuals(desc, M, D):
    """The three bialgebra defects of (m, Delta) that involve neither unit nor
    counit, each as the pair (lhs, rhs) of reduced legs tensors whose
    difference it is, formed one at a time in this order:

      associativity        m(I (x) m) - m(m (x) I)                   [a,x,y,z]
      coassociativity      (I (x) Delta)Delta - (Delta (x) I)Delta    [u,v,w,x]
      delta_multiplicative Delta m - (m (x) m)(1 3 2 4)(Delta (x) Delta) [u,v,x,y]

    A generator: each pair is formed only when it is asked for, so a caller
    that drops a pair before asking for the next holds two N^4 sides at a
    time.  verify_hopf compares the sides; lifting.obstruction divides their
    difference by p^n.  The contraction order of the compatibility keeps
    every intermediate at N^4 entries.
    """
    # sum_w M[a,x,w] M[w,y,z] -> [a,x,y,z]; sum_w M[a,w,z] M[w,x,y] -> [a,z,x,y]
    yield ra.tensordot(desc, M, M, ([2], [0])), ra.transpose(ra.tensordot(desc, M, M, ([1], [0])), (0, 2, 3, 1))
    # sum_t D[u,t,x] D[v,w,t] -> [u,x,v,w]; sum_t D[t,w,x] D[u,v,t] -> [w,x,u,v]
    yield (
        ra.transpose(ra.tensordot(desc, D, D, ([1], [2])), (0, 2, 3, 1)),
        ra.transpose(ra.tensordot(desc, D, D, ([0], [2])), (2, 3, 0, 1)),
    )
    t1 = ra.tensordot(desc, M, D, ([1], [0]))  # sum_a M[u,a,c] D[a,b,x] -> [u,c,b,x]
    t2 = ra.tensordot(desc, M, D, ([2], [1]))  # sum_d M[v,b,d] D[c,d,y] -> [v,b,c,y]
    rhs = ra.transpose(ra.tensordot(desc, t1, t2, ([1, 2], [2, 1])), (0, 2, 1, 3))  # [u,x,v,y] -> [u,v,x,y]
    del t1, t2
    yield ra.tensordot(desc, D, M, ([2], [0])), rhs  # sum_a D[u,v,a] M[a,x,y] -> [u,v,x,y]


def verify_hopf(H: HopfPresentation) -> AxiomReport:
    """Exact residuals for the ten Hopf axioms; VERIFIED means all zero."""
    desc = H.ring
    N = H.dim
    M, D, U, E, S = _legs(H)
    eye = ra.eye(desc, N)
    residuals = _structure_residuals(desc, M, D)
    checks = [_residual_check("associativity", *next(residuals))]

    lu = ra.tensordot(desc, M, U, ([1], [0]))  # [a,x]
    ru = ra.tensordot(desc, M, U, ([2], [0]))  # [a,x]
    checks.append(_residual_check("unit", np.concatenate([lu, ru]), np.concatenate([eye, eye])))

    checks.append(_residual_check("coassociativity", *next(residuals)))

    lc = ra.tensordot(desc, E, D, ([0], [0]))  # [y,x]
    rc = ra.tensordot(desc, D, E, ([1], [0]))  # [y,x]
    checks.append(_residual_check("counit", np.concatenate([lc, rc]), np.concatenate([eye, eye])))

    checks.append(_residual_check("delta_multiplicative", *next(residuals)))

    lhs = ra.tensordot(desc, E, M, ([0], [0]))  # [x,y]
    rhs = ra.elem_mul(desc, E[:, None, :], E[None, :, :])
    checks.append(_residual_check("counit_multiplicative", lhs, rhs))

    d1 = ra.tensordot(desc, D, U, ([2], [0]))  # [u,v]
    uu = ra.elem_mul(desc, U[:, None, :], U[None, :, :])
    checks.append(_residual_check("delta_unit", d1, uu))

    e1 = ra.tensordot(desc, E, U, ([0], [0]))  # scalar
    checks.append(_residual_check("counit_unit", e1, ra.one_scalar(desc)))

    target = ra.elem_mul(desc, U[:, None, :], E[None, :, :])  # [a,x]
    t1 = ra.tensordot(desc, S, D, ([1], [0]))  # sum_u S[w,u] D[u,v,x] -> [w,v,x]
    lhs = ra.tensordot(desc, M, t1, ([1, 2], [0, 1]))  # [a,x]
    checks.append(_residual_check("antipode_left", lhs, target))

    t2 = ra.tensordot(desc, S, D, ([1], [1]))  # sum_v S[w,v] D[u,v,x] -> [w,u,x]
    rhs = ra.tensordot(desc, M, t2, ([1, 2], [1, 0]))  # [a,x]
    checks.append(_residual_check("antipode_right", rhs, target))

    return AxiomReport(checks)


# ---------------------------------------------------------------------------
# constructors


def group_algebra(ring: RingDescriptor, table) -> HopfPresentation:
    """Group algebra kG with Delta(g) = g (x) g, eps(g) = 1, S(g) = g^{-1}."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise NotAGroup("table is not square over 0..n-1")
    ident = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no identity element")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup(f"associativity fails at {(i, j, k)}")
    inverse = [None] * n
    for i in range(n):
        for j in range(n):
            if table[i][j] == ident and table[j][i] == ident:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise NotAGroup(f"no inverse for element {i}")

    mul = ra.zeros(ring, (n, n * n))
    comul = ra.zeros(ring, (n * n, n))
    unit = ra.zeros(ring, (n, 1))
    counit = ra.zeros(ring, (1, n))
    antipode = ra.zeros(ring, (n, n))
    for i in range(n):
        for j in range(n):
            mul[table[i][j], i * n + j, 0] = 1
        comul[i * n + i, i, 0] = 1
        counit[0, i, 0] = 1
        antipode[inverse[i], i, 0] = 1
    unit[ident, 0, 0] = 1
    return make_presentation(
        ring,
        MultiMap(ring, 2, 1, n, n, mul),
        MultiMap(ring, 0, 1, n, n, unit),
        MultiMap(ring, 1, 2, n, n, comul),
        MultiMap(ring, 1, 0, n, n, counit),
        MultiMap(ring, 1, 1, n, n, antipode),
    )


def dual(H: HopfPresentation, verify: bool = True) -> HopfPresentation:
    """Transpose all structure tensors; dual(dual(H)) == H exactly."""
    ring, n = H.ring, H.dim
    sw = lambda mm: np.ascontiguousarray(np.swapaxes(mm.coeffs, 0, 1))
    return make_presentation(
        ring,
        MultiMap(ring, 2, 1, n, n, sw(H.comul)),
        MultiMap(ring, 0, 1, n, n, sw(H.counit)),
        MultiMap(ring, 1, 2, n, n, sw(H.mul)),
        MultiMap(ring, 1, 0, n, n, sw(H.unit)),
        MultiMap(ring, 1, 1, n, n, sw(H.antipode)),
        verify=verify,
    )


def _matrix_inverse(desc, mat):
    """Inverse of an (n, n, m) matrix over a field or Galois ring."""
    n = mat.shape[0]
    eye = ra.eye(desc, n)
    if desc.is_field:
        solver = FieldSolver(desc, mat)
        if solver.rank < n:
            raise SingularAntipode("matrix not invertible over the field")
        inv = solver.solve(eye)
        if inv is None:
            raise SingularAntipode("matrix not invertible over the field")
        return inv
    return hensel_solve_array(desc, mat, eye)


def dual_coopposite(H: HopfPresentation, verify: bool = True) -> HopfPresentation:
    """A^{*cop}: the dual algebra with opposite comultiplication and antipode (S*)^{-1}."""
    ring, n = H.ring, H.dim
    d = dual(H, verify=False)
    cop = d.comul.coeffs.reshape(n, n, n, ring.m)
    cop = np.ascontiguousarray(ra.transpose(cop, (1, 0, 2)).reshape(n * n, n, ring.m))
    try:
        s_inv = _matrix_inverse(ring, d.antipode.coeffs)
    except Exception as exc:
        raise SingularAntipode(f"dual antipode not invertible: {exc}") from exc
    return make_presentation(
        ring,
        d.mul,
        d.unit,
        MultiMap(ring, 1, 2, n, n, cop),
        d.counit,
        MultiMap(ring, 1, 1, n, n, s_inv),
        verify=verify,
    )


def drinfeld_double(H: HopfPresentation):
    """Quantum double D(A) on basis {f_i (x) e_j} plus its canonical R-matrix.

    Convention (self-certified by verify_hopf/verify_qt): D(A) = A^{*cop} (x) A,
    (f (x) a)(g (x) b) = f (a1 -> g <- S^{-1} a3) (x) a2 b, coopposite coproduct
    on the dual leg, R = sum_i (eps (x) e_i) (x) (f_i (x) 1).
    """
    if not H.verified:
        raise InternalAxiomFailure("drinfeld_double requires a verified presentation")
    desc, N = H.ring, H.dim
    m = desc.m
    M, D, U, E, S = _legs(H)
    s_inv = _matrix_inverse(desc, H.antipode.coeffs)
    M3 = tc.iterate(H, 3, "product").coeffs.reshape(N, N, N, N, m)  # [k,s,t,u]
    D3 = tc.iterate(H, 3, "coproduct").coeffs.reshape(N, N, N, N, m)  # [j1,j2,j3,j]

    h1 = ra.tensordot(desc, M3, s_inv, ([1], [0]))  # [k,v,j1,j3]
    g2 = ra.tensordot(desc, D, h1, ([1], [1]))  # [i,x,k,j1,j3]
    g3 = ra.tensordot(desc, g2, D3, ([3, 4], [0, 2]))  # [i,x,k,j2,j]
    md = ra.tensordot(desc, g3, M, ([3], [1]))  # [i,x,k,j,y,l]
    md = np.ascontiguousarray(ra.transpose(md, (1, 4, 0, 3, 2, 5)))  # [x,y,i,j,k,l]
    mul_d = md.reshape(N * N, N**4, m)

    # Delta_D(f_i (x) e_j) = sum M[i,u,v] D[jA,jB,j] (f_v (x) e_jA) (x) (f_u (x) e_jB)
    dd = ra.tensordot(desc, M, D, ([], []))  # [i,u,v,jA,jB,j]
    dd = ra.transpose(dd, (2, 3, 1, 4, 0, 5))  # [v,jA,u,jB,i,j]
    comul_d = np.ascontiguousarray(dd).reshape(N**4, N * N, m)

    unit_d = ra.elem_mul(desc, E[:, None, :], U[None, :, :]).reshape(N * N, 1, m)
    counit_d = ra.elem_mul(desc, U[:, None, :], E[None, :, :]).reshape(1, N * N, m)

    md6 = md  # legs [x,y,g,h,k,l]
    t1 = ra.tensordot(desc, md6, S, ([3], [0]))  # [x,y,g,k,l,j]
    t2 = ra.tensordot(desc, t1, E, ([2], [0]))  # [x,y,k,l,j]
    t3 = ra.tensordot(desc, t2, s_inv, ([2], [1]))  # [x,y,l,j,i]
    t4 = ra.tensordot(desc, t3, U, ([2], [0]))  # [x,y,j,i]
    s_d = np.ascontiguousarray(ra.transpose(t4, (0, 1, 3, 2)).reshape(N * N, N * N, m))

    ring2 = desc
    try:
        double = make_presentation(
            ring2,
            MultiMap(ring2, 2, 1, N * N, N * N, mul_d),
            MultiMap(ring2, 0, 1, N * N, N * N, unit_d),
            MultiMap(ring2, 1, 2, N * N, N * N, comul_d),
            MultiMap(ring2, 1, 0, N * N, N * N, counit_d),
            MultiMap(ring2, 1, 1, N * N, N * N, s_d),
        )
    except InternalAxiomFailure as exc:
        raise InternalAxiomFailure(f"double fails Hopf axioms: {exc}") from exc

    r_legs = ra.zeros(desc, (N, N, N, N))
    outer = ra.elem_mul(desc, E[:, None, :], U[None, :, :])  # [a,d]
    for i in range(N):
        r_legs[:, i, i, :, :] = outer
    rmap = MultiMap(desc, 0, 2, N * N, N * N, r_legs.reshape(N**4, 1, m))
    rmat = verify_qt(double, rmap)
    if not rmat.quasitriangular:
        raise InternalAxiomFailure("canonical double R-matrix fails quasitriangularity")
    return double, rmat


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True, eq=False)
class HopfMorphism:
    source: HopfPresentation
    target: HopfPresentation
    map: MultiMap
    verified: bool = field(default=False, compare=False)

    def __eq__(self, other):
        if not isinstance(other, HopfMorphism):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.map == other.map

    def __repr__(self):
        tag = "VERIFIED " if self.verified else ""
        return f"<{tag}HopfMorphism {self.source.dim}->{self.target.dim} over {self.source.ring}>"


def _morphism_residuals(desc, F, Ma, Da, Mb, Db):
    """The multiplicative and comultiplicative defects of a linear map F: A -> B
    (F[b, a]), given the mul and comul legs of A and B (see _legs), each as
    the pair (lhs, rhs) of reduced tensors whose difference it is:

      multiplicative    F m_A - m_B (F (x) F)           [b,i,j]
      comultiplicative  (F (x) F) Delta_A - Delta_B F   [u,v,i]

    morphism_failures compares the sides; lifting._lift_map divides their
    difference by p^k.
    """
    t = ra.tensordot(desc, Mb, F, ([1], [0]))  # sum_v Mb[b,v,w] F[v,i] -> [b,w,i]
    mult = ra.tensordot(desc, F, Ma, ([1], [0])), ra.tensordot(desc, t, F, ([1], [0]))
    t = ra.tensordot(desc, F, Da, ([1], [0]))  # sum_a F[u,a] Da[a,c,i] -> [u,c,i]
    lhs = ra.transpose(ra.tensordot(desc, F, t, ([1], [1])), (1, 0, 2))  # sum_c F[v,c] -> [v,u,i] -> [u,v,i]
    return mult, (lhs, ra.tensordot(desc, Db, F, ([2], [0])))


def morphism_failures(phi: HopfMorphism) -> list[str]:
    """Exact residual checks: multiplicative, comultiplicative, unital, counital."""
    F, desc = phi.map.coeffs, phi.source.ring
    Ms, Ds, Us, Es, _ = _legs(phi.source)
    Mt, Dt, Ut, Et, _ = _legs(phi.target)
    sides = _morphism_residuals(desc, F, Ms, Ds, Mt, Dt)
    fails = [name for name, (lhs, rhs) in zip(("multiplicative", "comultiplicative"), sides) if np.any(lhs != rhs)]
    if np.any(ra.sub(desc, ra.tensordot(desc, F, Us, ([1], [0])), Ut)):
        fails.append("unital")
    if np.any(ra.sub(desc, ra.tensordot(desc, Et, F, ([0], [0])), Es)):
        fails.append("counital")
    return fails


def make_morphism(source, target, mapping: MultiMap, verify: bool = True) -> HopfMorphism:
    phi = HopfMorphism(source, target, mapping)
    if verify:
        fails = morphism_failures(phi)
        if fails:
            raise InternalAxiomFailure(f"morphism fails: {fails}")
        phi = HopfMorphism(source, target, mapping, verified=True)
    return phi


def identity_morphism(H: HopfPresentation) -> HopfMorphism:
    return HopfMorphism(H, H, tc.identity_map(H.ring, H.dim), verified=True)


def compose_morphisms(psi: HopfMorphism, phi: HopfMorphism) -> HopfMorphism:
    if phi.target != psi.source:
        raise DescriptorMismatch("morphisms not composable")
    return make_morphism(phi.source, psi.target, tc.compose(psi.map, phi.map))


# ---------------------------------------------------------------------------
# integrals, semisimplicity, structural flags


def integral(H: HopfPresentation, side: str = "left"):
    """Basis of the space {L : aL = eps(a) L for all a} (or the right version)."""
    if not H.ring.is_field:
        raise DescriptorMismatch("integrals are computed over the residue field")
    desc, N = H.ring, H.dim
    M, D, U, E, S = _legs(H)
    rows = ra.zeros(desc, (N * N, N))
    eye = ra.eye(desc, N)
    for i in range(N):
        act = M[:, i, :, :] if side == "left" else M[:, :, i, :]
        scaled = ra.elem_mul(desc, E[i], eye)
        rows[i * N : (i + 1) * N] = ra.sub(desc, act, scaled)
    solver = FieldSolver(desc, rows)
    return solver.kernel_basis()


def is_semisimple(H: HopfPresentation) -> bool:
    """Maschke certificate: a left integral with eps(Lambda) != 0 exists."""
    desc = H.ring
    E = H.counit.coeffs.reshape(H.dim, desc.m)
    for vec in integral(H, "left"):
        if np.any(ra.tensordot(desc, E, vec, ([0], [0]))):
            return True
    return False


def is_cosemisimple(H: HopfPresentation) -> bool:
    return is_semisimple(dual(H, verify=False))


def is_commutative(H: HopfPresentation) -> bool:
    M = H.mul.coeffs.reshape(H.dim, H.dim, H.dim, H.ring.m)
    return bool(np.array_equal(M, np.swapaxes(M, 1, 2)))


def is_cocommutative(H: HopfPresentation) -> bool:
    D = H.comul.coeffs.reshape(H.dim, H.dim, H.dim, H.ring.m)
    return bool(np.array_equal(D, np.swapaxes(D, 0, 1)))


def antipode_orders(H: HopfPresentation):
    """(order of S, order of S^2) as multiplicative orders of the tensor."""
    desc, N = H.ring, H.dim
    eye = ra.eye(desc, N)
    bound = 4 * N
    order = None
    power = H.antipode.coeffs
    for t in range(1, bound + 1):
        if np.array_equal(power, eye):
            order = t
            break
        power = ra.tensordot(desc, H.antipode.coeffs, power, ([1], [0]))
    if order is None:
        raise OrderNotFound(f"S has no order <= {bound}")
    s2 = ra.tensordot(desc, H.antipode.coeffs, H.antipode.coeffs, ([1], [0]))
    power = s2
    for t in range(1, bound + 1):
        if np.array_equal(power, eye):
            return order, t
        power = ra.tensordot(desc, s2, power, ([1], [0]))
    raise OrderNotFound(f"S^2 has no order <= {bound}")


def trace_s2(H: HopfPresentation) -> RingElement:
    desc = H.ring
    s2 = ra.tensordot(desc, H.antipode.coeffs, H.antipode.coeffs, ([1], [0]))
    tr = s2[np.arange(H.dim), np.arange(H.dim)].sum(axis=0) % desc.q
    if desc.m > 1:
        # diagonal sums may leave the reduced range only via the modulus; re-reduce
        tr = ra.reduce_(desc, tr)
    return desc.element(list(tr))


# ---------------------------------------------------------------------------
# commutative decomposition machinery (grouplikes, Wedderburn blocks)


def _field_elements(desc):
    if desc.q > root_search_bound():
        raise FieldTooLargeForRootSearch(f"|F| = {desc.q} exceeds bound {root_search_bound()}")
    for tup in itertools.product(range(desc.p), repeat=desc.m):
        yield np.array(tup, dtype=np.int64)


def _fq_poly_eval(desc, coeffs, x):
    """Horner evaluation; coeffs ascending, entries are (m,) arrays."""
    acc = np.zeros(desc.m, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (ra.elem_mul(desc, acc, x) + c) % desc.q
    return acc


def _fq_poly_divmod(desc, a, b):
    a = [c.copy() for c in a]
    db = len(b) - 1
    inv = _inv_coeffs_field(desc, b[-1])
    quot = [np.zeros(desc.m, dtype=np.int64) for _ in range(max(0, len(a) - db))]
    for i in range(len(a) - 1, db - 1, -1):
        c = ra.elem_mul(desc, a[i], inv)
        if np.any(c):
            quot[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - ra.elem_mul(desc, c, b[j])) % desc.q
    while len(a) > 1 and not np.any(a[-1]):
        a.pop()
    while len(quot) > 1 and not np.any(quot[-1]):
        quot.pop()
    return quot or [np.zeros(desc.m, dtype=np.int64)], a[:db] or [np.zeros(desc.m, dtype=np.int64)]


def _fq_poly_mul(desc, a, b):
    out = [np.zeros(desc.m, dtype=np.int64) for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if np.any(ai):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ra.elem_mul(desc, ai, bj)) % desc.q
    return out


def _fq_poly_xgcd(desc, a, b):
    r0, r1 = [c.copy() for c in a], [c.copy() for c in b]
    s0 = [ra.one_scalar(desc)]
    s1 = [np.zeros(desc.m, dtype=np.int64)]
    z = lambda: [np.zeros(desc.m, dtype=np.int64)]
    t0, t1 = z(), [ra.one_scalar(desc)]

    def is_zero(poly):
        return all(not np.any(c) for c in poly)

    def sub(x, y):
        out = [c.copy() for c in x] + [np.zeros(desc.m, dtype=np.int64) for _ in range(max(0, len(y) - len(x)))]
        for i, c in enumerate(y):
            out[i] = (out[i] - c) % desc.q
        while len(out) > 1 and not np.any(out[-1]):
            out.pop()
        return out

    while not is_zero(r1):
        quot, rem = _fq_poly_divmod(desc, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, sub(s0, _fq_poly_mul(desc, quot, s1))
        t0, t1 = t1, sub(t0, _fq_poly_mul(desc, quot, t1))
    return r0, s0, t0


def _decompose_commutative(desc, basis, mult, unit_vec):
    """Primitive idempotents of a commutative algebra given by an ambient basis.

    mult(x, y) multiplies ambient coefficient vectors.  Returns a list of
    (idempotent, block_dim) pairs; block_dim is the rank of e * span(basis).
    Splitting uses exhaustive root search over F_q plus CRT idempotents from
    the coprime factorization of minimal polynomials.
    """

    def block_dim(e):
        return FieldSolver(desc, np.stack([mult(e, b) for b in basis], axis=1), rank_only=True).rank

    elements = None
    unit = unit_vec % desc.q
    blocks = [(unit, block_dim(unit))]
    for g in basis:
        new_blocks = []
        for e, dim in blocks:
            if elements is None:  # a field too large to search is refused even if no block needs it
                elements = list(_field_elements(desc))
            if dim <= 1:
                # e g is a multiple of e: one linear factor, the block stays
                new_blocks.append((e, dim))
                continue
            x = mult(e, g)
            # the Krylov columns e, x, x^2, ... lie in the dim-dimensional
            # e.span(basis), so dim + 1 of them are dependent.  They are factored
            # once: the pivots are the first t columns, t the degree of the
            # minimal polynomial, and the canonical kernel vector of free column
            # t holds its (monic) coefficients.
            powers = [e.copy(), x]
            while len(powers) <= dim:
                powers.append(mult(powers[-1], x))
            solver = FieldSolver(desc, np.stack(powers, axis=1))
            t = solver.rank
            minpoly = list(solver.kernel_basis()[0][: t + 1])
            # factor: linear powers by root search, the rest stays lumped
            rem = minpoly
            factors = []
            for lam in elements:
                if not np.any(_fq_poly_eval(desc, rem, lam)):
                    mult_count = 0
                    lin = [(-lam) % desc.q, ra.one_scalar(desc)]
                    while True:
                        quot, r = _fq_poly_divmod(desc, rem, lin)
                        if np.any(r[0]) or len(r) > 1:
                            break
                        rem = quot
                        mult_count += 1
                    acc = lin
                    for _ in range(mult_count - 1):
                        acc = _fq_poly_mul(desc, acc, lin)
                    factors.append(acc)
                if len(rem) == 1:
                    break
            if len(rem) > 1:
                factors.append(rem)
            if len(factors) <= 1:
                new_blocks.append((e, dim))
                continue
            full = factors[0]
            for f in factors[1:]:
                full = _fq_poly_mul(desc, full, f)
            pieces = []
            for f_i in factors:
                g_i, _ = _fq_poly_divmod(desc, full, f_i)
                d, a_i, _ = _fq_poly_xgcd(desc, g_i, f_i)
                dinv = _inv_coeffs_field(desc, d[0])
                h_i = [ra.elem_mul(desc, c, dinv) for c in a_i]
                idem_poly = _fq_poly_mul(desc, g_i, h_i)
                _, idem_poly = _fq_poly_divmod(desc, idem_poly, full)
                # evaluate at x inside the corner: x^0 = e
                acc = np.zeros_like(e)
                xp = e.copy()
                for c in idem_poly:
                    acc = (acc + ra.elem_mul(desc, c[None, :] if acc.ndim > 1 else c, xp)) % desc.q
                    xp = mult(xp, x)
                pieces.append(acc % desc.q)
            total = np.zeros_like(e)
            for piece in pieces:
                if np.any(ra.sub(desc, mult(piece, piece), piece)):
                    raise InternalAxiomFailure("CRT piece is not idempotent")
                total = (total + piece) % desc.q
            if np.any(ra.sub(desc, total, e)):
                raise InternalAxiomFailure("CRT idempotents do not sum to the block unit")
            new_blocks.extend((piece, block_dim(piece)) for piece in pieces)
        blocks = new_blocks
    return blocks


def grouplikes(H: HopfPresentation, central_only: bool = False):
    """All g with Delta(g) = g (x) g and eps(g) = 1, via characters of the
    abelianized dual algebra (exhaustive root search over F_q).

    A* has the structure tensor T[j, k, i], the f_i coefficient of f_j f_k.
    A character of A*/I, I the commutator ideal, is a grouplike of A.  The
    quotient map P is the canonical kernel basis of I (transposed), so the
    quotient coordinates are the free columns of I's RREF and A*/I has the
    structure tensor P.T[free, free]."""
    if not H.ring.is_field:
        raise DescriptorMismatch("grouplike search runs over the residue field")
    desc, N = H.ring, H.dim
    T = H.comul.coeffs.reshape(N, N, N, desc.m)
    j, k = np.triu_indices(N, 1)
    comms = ra.transpose(ra.sub(desc, T, ra.transpose(T, (1, 0, 2)))[j, k], (1, 0))  # columns f_j f_k - f_k f_j
    ideal = FieldSolver(desc, ra.transpose(_ideal_closure(desc, T, comms), (1, 0)))
    kernel = ideal.kernel_basis()
    if not kernel:
        return []
    K = np.stack(kernel, axis=1)  # (N, qdim): column s is row s of P
    free = np.setdiff1d(np.arange(N), ideal.pivot_cols)
    Tq = ra.tensordot(desc, T[free][:, free], K, ([2], [0]))
    chars = _characters(desc, Tq, ra.tensordot(desc, K, H.counit.coeffs.reshape(N, desc.m), ([0], [0])))
    # g = sum_i chi(f_i) e_i, and chi(f_i) = chi(P f_i)
    G = ra.tensordot(desc, K, chars, ([1], [1]))  # [i, character]
    out = [g for g in (np.ascontiguousarray(G[:, c]) for c in range(len(chars))) if _is_grouplike(H, g)]
    if central_only:
        out = [g for g in out if _is_central(H, g)]
    out.sort(key=lambda g: tuple(int(v) for v in g.reshape(-1)))
    return out


def _ideal_closure(desc, T, gens):
    """Independent columns spanning the two-sided ideal that the columns of
    gens (N, r) generate in the algebra with structure tensor T.  Each round
    multiplies every spanning vector by every basis element on both sides at
    once, until the rank stops growing."""
    N, m = T.shape[0], desc.m
    span = gens[:, FieldSolver(desc, gens).pivot_cols]
    while True:
        left = ra.tensordot(desc, T, span, ([1], [0]))  # [a, i, r]: f_a v_r
        right = ra.tensordot(desc, T, span, ([0], [0]))  # [a, i, r]: v_r f_a
        prods = np.concatenate([left, right], axis=0).transpose(1, 0, 2, 3).reshape(N, -1, m)
        cols = np.concatenate([span, prods], axis=1)
        solver = FieldSolver(desc, cols)
        if solver.rank == span.shape[1]:
            return span
        span = cols[:, solver.pivot_cols]


def _characters(desc, T, unit_vec):
    """Algebra characters of the commutative algebra with structure tensor T
    (dim, dim, dim): the values chi(b_t) on its basis, one (dim,) row of the
    returned (count, dim) array per character, via its block decomposition."""
    n = T.shape[0]
    T_reg = ra.expand(desc, T)

    def mult(x, y):
        return ra.tensordot(desc, ra.tensordot(desc, T, x, ([0], [0]), a_reg=T_reg), y, ([0], [0]))

    chars = []
    for e, _ in _decompose_commutative(desc, list(ra.eye(desc, n)), mult, unit_vec):
        support = np.flatnonzero(np.any(e != 0, axis=-1))
        if support.size == 0:
            continue
        c = int(support[0])
        eb = ra.tensordot(desc, T, e, ([0], [0]), a_reg=T_reg)  # [t, s]: e b_t
        lam = ra.elem_mul(desc, eb[:, c], _inv_coeffs_field(desc, e[c])[None, :])
        # e b_t = lam_t e on the whole block (a single joint eigenvalue)
        if np.any(ra.sub(desc, eb, ra.elem_mul(desc, lam[:, None], e[None]))):
            continue
        # the functional is unital and multiplicative: chi(b_i b_j) = lam_i lam_j
        if not np.array_equal(ra.tensordot(desc, lam, unit_vec, ([0], [0])), ra.one_scalar(desc)):
            continue
        chi_prods = ra.tensordot(desc, T, lam, ([2], [0]))  # [i, j]
        if not np.any(ra.sub(desc, chi_prods, ra.elem_mul(desc, lam[:, None], lam[None]))):
            chars.append(lam)
    return np.array(chars, dtype=np.int64).reshape(len(chars), n, desc.m)


def _is_grouplike(H, g):
    desc, N = H.ring, H.dim
    D = H.comul.coeffs.reshape(N, N, N, desc.m)
    E = H.counit.coeffs.reshape(N, desc.m)
    dg = ra.tensordot(desc, D, g, ([2], [0]))  # [u,v]
    gg = ra.elem_mul(desc, g[:, None, :], g[None, :, :])
    if np.any(ra.sub(desc, dg, gg)):
        return False
    eg = ra.tensordot(desc, E, g, ([0], [0]))
    return bool(np.array_equal(eg, ra.one_scalar(desc)))


def _is_central(H, g):
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)
    left = ra.tensordot(desc, M, g, ([1], [0]))  # [a,x]
    right = ra.tensordot(desc, M, g, ([2], [0]))  # [a,x]
    return bool(np.array_equal(left, right))


def _ambient_mult_fn(H: HopfPresentation):
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)

    def mult(x, y):
        t = ra.tensordot(desc, M, x, ([1], [0]))  # [a,y]
        return ra.tensordot(desc, t, y, ([1], [0]))

    return mult


def center_basis(H: HopfPresentation):
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)
    rows = ra.zeros(desc, (N * N, N))
    for j in range(N):
        rows[j * N : (j + 1) * N] = ra.sub(desc, M[:, :, j, :], M[:, j, :, :])
    return FieldSolver(desc, rows).kernel_basis()


def irreducible_dimensions(H: HopfPresentation) -> list[int]:
    """Wedderburn block sizes {n_i} of a split semisimple presentation."""
    if not H.ring.is_field:
        raise DescriptorMismatch("irreducible_dimensions runs over the residue field")
    if not is_semisimple(H):
        raise NotSemisimple("presentation is not semisimple")
    desc, N = H.ring, H.dim
    mult = _ambient_mult_fn(H)
    z_basis = center_basis(H)
    unit = H.unit.coeffs.reshape(N, desc.m).copy()
    blocks = _decompose_commutative(desc, z_basis, mult, unit)
    dims = []
    total = 0
    for e, center_block_dim in blocks:
        if center_block_dim != 1:
            raise NotSplit(f"central block of dimension {center_block_dim} over F_q (field extension)")
        t = ra.tensordot(desc, H.mul.coeffs.reshape(N, N, N, desc.m), e, ([1], [0]))  # [a,x]
        bdim = FieldSolver(desc, t, rank_only=True).rank
        n = int(round(bdim**0.5))
        if n * n != bdim:
            raise NotSplit(f"matrix block of dimension {bdim} is not a square")
        dims.append(n)
        total += bdim
    if total != N:
        raise NotSplit(f"block dimensions sum to {total} != {N}")
    return sorted(dims)


# ---------------------------------------------------------------------------
# quasitriangular structures


@dataclass
class RMatrix:
    host: HopfPresentation
    R: MultiMap
    quasitriangular: bool = False
    triangular: bool = False
    failures: list = field(default_factory=list)


def verify_qt(H: HopfPresentation, R: MultiMap) -> RMatrix:
    """Check the quasitriangular axioms exactly; triangular means R21 R = 1 (x) 1."""
    desc, N = H.ring, H.dim
    m = desc.m
    M, D, U, E, S = _legs(H)
    r2 = R.coeffs.reshape(N, N, m)
    failures = []

    t1 = ra.tensordot(desc, M, r2, ([1], [0]))  # [a,w,v]
    t2 = ra.tensordot(desc, t1, D, ([1], [0]))  # [a,v,z,x]
    lhs = ra.tensordot(desc, t2, M, ([1, 2], [1, 2]))  # [a,x,b]
    lhs = ra.transpose(lhs, (0, 2, 1))
    u1 = ra.tensordot(desc, M, D, ([1], [1]))  # M[a,z,u] D[w,z,x] -> [a,u,w,x]
    u2 = ra.tensordot(desc, u1, r2, ([1], [0]))  # [a,w,x,v]
    rhs = ra.tensordot(desc, u2, M, ([1, 3], [1, 2]))  # [a,x,b]
    rhs = ra.transpose(rhs, (0, 2, 1))
    if np.any(ra.sub(desc, lhs, rhs)):
        failures.append("intertwine")

    hex1_l = ra.tensordot(desc, D, r2, ([2], [0]))  # D[a,b,u] r[u,c] -> [a,b,c]
    w1 = ra.tensordot(desc, M, r2, ([1], [1]))  # M[c,v,z] r[a,v] -> [c,z,a]
    hex1_r = ra.tensordot(desc, w1, r2, ([1], [1]))  # [c,a,b]
    hex1_r = ra.transpose(hex1_r, (1, 2, 0))
    if np.any(ra.sub(desc, hex1_l, hex1_r)):
        failures.append("hexagon1")

    hex2_l = ra.tensordot(desc, r2, D, ([1], [2]))  # r[a,v] D[b,c,v] -> [a,b,c]
    # R13 R12 = sum x_i x_j (x) y_j (x) y_i: [a,b,c] = sum M[a,u,w] r[u,c] r[w,b]
    w2 = ra.tensordot(desc, M, r2, ([1], [0]))  # M[a,u,w] r[u,c] -> [a,w,c]
    hex2_r = ra.tensordot(desc, w2, r2, ([1], [0]))  # [a,c,b]
    hex2_r = ra.transpose(hex2_r, (0, 2, 1))
    if np.any(ra.sub(desc, hex2_l, hex2_r)):
        failures.append("hexagon2")

    uu = ra.elem_mul(desc, U[:, None, :], U[None, :, :])

    def times_r(x):
        # (X R)[a,b] = sum x[u,v] r[w,z] M[a,u,w] M[b,v,z]
        q1 = ra.tensordot(desc, M, x, ([1], [0]))  # M[a,u,w] x[u,v] -> [a,w,v]
        q2 = ra.tensordot(desc, q1, r2, ([1], [0]))  # [a,v,z]
        return ra.tensordot(desc, q2, M, ([1, 2], [1, 2]))  # [a,b]

    # a quasitriangular R has the inverse (S (x) id)(R) (Drinfeld); a left
    # inverse in the finite-dimensional A (x) A is two-sided, so R' R = 1 (x) 1
    # certifies invertibility, and only an R that fails it has its left
    # multiplication matrix ranked
    if not np.array_equal(times_r(ra.tensordot(desc, S, r2, ([1], [0]))), uu):
        lr1 = ra.tensordot(desc, M, r2, ([1], [0]))  # [a,w,v]
        lmat = ra.tensordot(desc, lr1, M, ([2], [1]))  # [a,w,b,z]
        lmat = ra.transpose(lmat, (0, 2, 1, 3)).reshape(N * N, N * N, m)
        if desc.is_field:
            invertible = FieldSolver(desc, lmat, rank_only=True).rank == N * N
        else:
            invertible = FieldSolver(desc.residue(), lmat % desc.p, rank_only=True).rank == N * N
        if not invertible:
            failures.append("invertibility")

    qt = not failures
    # triangular: R21 R = 1 (x) 1
    triangular = qt and bool(np.array_equal(times_r(ra.transpose(r2, (1, 0))), uu))
    return RMatrix(H, R, qt, triangular, failures)


def drinfeld_u(H: HopfPresentation, R: MultiMap):
    """u = sum S(y_i) x_i for R = sum x_i (x) y_i, plus the Cor 3.3(ii) flags."""
    desc, N = H.ring, H.dim
    M, D, U, E, S = _legs(H)
    r2 = R.coeffs.reshape(N, N, desc.m)
    t1 = ra.tensordot(desc, M, S, ([1], [0]))  # M[a,w,i] S[w,j] -> [a,i,j]
    u = ra.tensordot(desc, t1, r2, ([1, 2], [0, 1]))  # [a]
    su = ra.tensordot(desc, S, u, ([1], [0]))
    u_fixed = bool(np.array_equal(su, u))
    m_u = ra.tensordot(desc, H.mul.coeffs.reshape(N, N, N, desc.m), u, ([1], [0]))
    usq = ra.tensordot(desc, m_u, u, ([1], [0]))
    u_sq_one = bool(np.array_equal(usq, U))
    return u, u_fixed, u_sq_one


def theta(H: HopfPresentation, R: MultiMap) -> HopfMorphism:
    """theta_R: A^{*cop} -> A, f |-> (f (x) I)(R); a Hopf map for quasitriangular R."""
    desc, N = H.ring, H.dim
    r2 = R.coeffs.reshape(N, N, desc.m)
    themap = MultiMap(desc, 1, 1, N, N, np.ascontiguousarray(ra.transpose(r2, (1, 0))))
    src = dual_coopposite(H, verify=True)
    phi = HopfMorphism(src, H, themap)
    fails = morphism_failures(phi)
    if fails:
        raise ThetaNotHopfMap(f"theta fails {fails}; R is not quasitriangular")
    return HopfMorphism(src, H, themap, verified=True)


def theta_to_rmatrix(phi: HopfMorphism) -> MultiMap:
    """Round-trip: rebuild R = sum_i e_i (x) theta(f_i) from the theta matrix."""
    tgt = phi.target
    N = tgt.dim
    r2 = ra.transpose(phi.map.coeffs, (1, 0))
    return MultiMap(tgt.ring, 0, 2, N, N, np.ascontiguousarray(r2.reshape(N * N, 1, tgt.ring.m)))


# ---------------------------------------------------------------------------
# analysis report


@dataclass
class AnalysisReport:
    semisimple: bool
    cosemisimple: bool
    commutative: bool
    cocommutative: bool
    antipode_order: int
    antipode_sq_order: int
    trace_S2: RingElement
    dim_in_k: RingElement
    grouplikes: list
    central_grouplikes: list


def analyze(H: HopfPresentation, with_grouplikes: bool = True) -> AnalysisReport:
    desc = H.ring
    order, sq_order = antipode_orders(H)
    glikes = grouplikes(H) if with_grouplikes else []
    central = [g for g in glikes if _is_central(H, g)]
    return AnalysisReport(
        semisimple=is_semisimple(H),
        cosemisimple=is_cosemisimple(H),
        commutative=is_commutative(H),
        cocommutative=is_cocommutative(H),
        antipode_order=order,
        antipode_sq_order=sq_order,
        trace_S2=trace_s2(H),
        dim_in_k=desc.element(H.dim % desc.q),
        grouplikes=glikes,
        central_grouplikes=central,
    )


# ---------------------------------------------------------------------------
# named generators and precision moves


def generate(name: str, ring: RingDescriptor):
    """Resolve 'S3', 'S3.dual', 'C2.double', 'C2.double.dual', ... to a presentation."""
    parts = name.split(".")
    H = group_algebra(ring, group_table(parts[0]))
    for suffix in parts[1:]:
        if suffix == "dual":
            H = dual(H)
        elif suffix == "double":
            H, _ = drinfeld_double(H)
        else:
            raise KeyError(f"unknown generator suffix {suffix!r}")
    return H


def reduce_presentation(H: HopfPresentation, target: RingDescriptor, verify: bool = False) -> HopfPresentation:
    maps = [tc.map_reduce_precision(t, target) for t in H.tensors()]
    return make_presentation(target, *maps, verify=verify) if verify else HopfPresentation(
        target, H.dim, *maps, verified=False
    )
