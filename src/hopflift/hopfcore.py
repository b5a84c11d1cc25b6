"""Hopf algebra presentations by structure constants, constructors and analyses.

A presentation stores the five structure tensors (mul, unit, comul, counit,
antipode) over one RingDescriptor.  Constructors cover group algebras, duals,
dual-co-opposites and Drinfeld doubles; analyses cover axiom verification,
integrals and (co)semisimplicity, grouplikes, quasitriangular structures,
the Drinfeld element, theta maps and Wedderburn block dimensions.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import _arrays as ra
from . import tensorcalc as tc
from ._linalg import FieldSolver
from .catalog import group_table
from .coeffring import RingDescriptor, RingElement, _inv_coeffs_field, matrix_inverse
from .errors import (
    DescriptorMismatch,
    FieldTooLargeForRootSearch,
    InternalAxiomFailure,
    NotAGroup,
    NotSemisimple,
    NotSplit,
    OrderNotFound,
    SingularAntipode,
    SingularModP,
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


def _residual_check(name, blocks) -> AxiomCheck:
    """The cells where lhs - rhs is nonzero mod q, over the blocks (lead, lhs, rhs) of one defect on the
    slices lead of its leading legs, scanned only where the sides differ; the sample is the first five."""
    count, sample = 0, []
    for lead, lhs, rhs in blocks:
        if not np.array_equal(lhs, rhs):
            coords = ra.nonzero_coords(lhs != rhs)
            coords[:, : len(lead)] += np.array([sl.start for sl in lead], dtype=coords.dtype)
            count += coords.shape[0]
            sample = sorted(sample + [tuple(map(int, c)) for c in coords[:5]])[:5]
        del lhs, rhs  # before the next block is formed
    return AxiomCheck(name, count == 0, count, sample)


def _legs(H: HopfPresentation):
    N, m = H.dim, H.ring.m
    M = H.mul.coeffs.reshape(N, N, N, m)
    D = H.comul.coeffs.reshape(N, N, N, m)
    U = H.unit.coeffs.reshape(N, m)
    E = H.counit.coeffs.reshape(N, m)
    S = H.antipode.coeffs
    return M, D, U, E, S


# cells of the largest array (4 MB as int64) that a defect block or verify_qt slab forms: at 2^20
# verifying D(S3)/F7 peaks at 18 MB under tracemalloc, at 2^18 its perturbed p^4 lift is 15 % slower
_SLAB_CELLS = 1 << 19


def _slabs(n, row_cells):
    """range(n) in slices of _SLAB_CELLS // row_cells rows (at least one)."""
    step = max(1, _SLAB_CELLS // row_cells)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _structure_residuals(desc, M, D):
    """The three bialgebra defects of (m, Delta) that involve neither unit nor
    counit, in this order:

      associativity        m(I (x) m) - m(m (x) I)                   [a,x,y,z]
      coassociativity      (I (x) Delta)Delta - (Delta (x) I)Delta    [u,v,w,x]
      delta_multiplicative Delta m - (m (x) m)(1 3 2 4)(Delta (x) Delta) [u,v,x,y]

    Each is a generator of blocks (lead, lhs, rhs), formed when asked for:
    lhs - rhs is the defect on the slices lead of its leading legs, and no
    array a block forms has more than _SLAB_CELLS cells (one block, the whole
    tensor, when N^4 m^2 fits).  The compatibility's right side sums t1[u,c,b,x]
    t2[v,b,c,y] over (c, b).  When the nonzeros of t2 and the pairs of t1 and
    t2 that meet, as the nonzeros of M and D bound them, fit the budget, t2 is
    kept as its nonzeros (blocks over u); else t2 is formed again per block of
    (u, v), adding about 1/(rows of a slab) to the N^6 product.
    """
    N = M.shape[0]
    slabs = _slabs(N, N**3 * desc.m**2)  # m^2: a first operand's regular representation
    # sum_w M[a,x,w] M[w,y,z] -> [a,x,y,z]; sum_w M[a,w,z] M[w,x,y] -> [a,z,x,y]
    assoc = (((a,), ra.tensordot(desc, M[a], M, ([2], [0])), ra.transpose(ra.tensordot(desc, M[a], M, ([1], [0])), (0, 2, 3, 1)))
             for a in slabs)
    # sum_t D[u,t,x] D[v,w,t] -> [u,x,v,w]; sum_t D[t,w,x] D[u,v,t] -> [w,x,u,v]
    coassoc = (((u,), ra.transpose(ra.tensordot(desc, D[u], D, ([1], [2])), (0, 2, 3, 1)),
                ra.transpose(ra.tensordot(desc, D, D[u], ([0], [2])), (2, 3, 0, 1))) for u in slabs)

    def compat():  # lhs: sum_a D[u,v,a] M[a,x,y] -> [u,v,x,y]
        # t1 = sum_a M[u,a,c] D[a,b,x] -> [u,c,b,x]; t2 = sum_d M[v,b,d] D[c,d,y] -> [v,b,c,y]
        if len(slabs) > 1:
            nm = np.count_nonzero(np.any(M != 0, axis=-1), axis=0)  # [a, c]: nonzeros of M[:, a, c]
            nd = np.count_nonzero(np.any(D != 0, axis=-1), axis=2)  # [a, b]: nonzeros of D[a, b, :]
            nz2 = nd @ nm.T  # [c, b]: at least the nonzeros of t2[:, b, c, :]
            if max(nz2.sum(), (nm.T @ nd * nz2).sum()) <= _SLAB_CELLS:
                key, free, vals = zip(*(ra.nonzeros(ra.tensordot(desc, M[v], D, ([2], [1])), [2, 1]) for v in slabs))
                t2 = np.concatenate(key), np.concatenate([f + v.start * N for f, v in zip(free, slabs)]), np.concatenate(vals)
                for u in slabs:
                    t1 = ra.nonzeros(ra.tensordot(desc, M[u], D, ([1], [0])), [1, 2])
                    cells, sums = ra.join(desc, t1, t2, N * N, N * N)
                    rhs = ra.zeros(desc, (u.stop - u.start, N, N, N))  # [u,x,v,y]
                    rhs.reshape(-1, desc.m)[cells] = sums
                    yield (u,), ra.tensordot(desc, D[u], M, ([2], [0])), ra.transpose(rhs, (0, 2, 1, 3))
                    del rhs  # before the next block is formed
                return
        for u in slabs:
            t1 = ra.tensordot(desc, M[u], D, ([1], [0]))
            for v in slabs:  # t1 t2 -> [u,x,v,y] -> [u,v,x,y]
                rhs = ra.transpose(ra.tensordot(desc, t1, ra.tensordot(desc, M[v], D, ([2], [1])), ([1, 2], [2, 1])), (0, 2, 1, 3))
                yield (u, v), ra.tensordot(desc, D[u, v], M, ([2], [0])), rhs

    return assoc, coassoc, compat()


def verify_hopf(H: HopfPresentation) -> AxiomReport:
    """Exact residuals for the ten Hopf axioms; VERIFIED means all zero.  Each
    check keeps its residual count and first five cells in C order; the N^4
    defects are checked a block at a time, as _structure_residuals forms them."""
    desc = H.ring
    N = H.dim
    M, D, U, E, S = _legs(H)
    eye = ra.eye(desc, N)
    assoc, coassoc, compat = _structure_residuals(desc, M, D)
    checks = [_residual_check("associativity", assoc)]

    lu = ra.tensordot(desc, M, U, ([1], [0]))  # [a,x]
    ru = ra.tensordot(desc, M, U, ([2], [0]))  # [a,x]
    checks.append(_residual_check("unit", [((), np.concatenate([lu, ru]), np.concatenate([eye, eye]))]))

    checks.append(_residual_check("coassociativity", coassoc))

    lc = ra.tensordot(desc, E, D, ([0], [0]))  # [y,x]
    rc = ra.tensordot(desc, D, E, ([1], [0]))  # [y,x]
    checks.append(_residual_check("counit", [((), np.concatenate([lc, rc]), np.concatenate([eye, eye]))]))

    checks.append(_residual_check("delta_multiplicative", compat))

    lhs = ra.tensordot(desc, E, M, ([0], [0]))  # [x,y]
    rhs = ra.elem_mul(desc, E[:, None, :], E[None, :, :])
    checks.append(_residual_check("counit_multiplicative", [((), lhs, rhs)]))

    d1 = ra.tensordot(desc, D, U, ([2], [0]))  # [u,v]
    uu = ra.elem_mul(desc, U[:, None, :], U[None, :, :])
    checks.append(_residual_check("delta_unit", [((), d1, uu)]))

    e1 = ra.tensordot(desc, E, U, ([0], [0]))  # scalar
    checks.append(_residual_check("counit_unit", [((), e1, ra.one_scalar(desc))]))

    target = ra.elem_mul(desc, U[:, None, :], E[None, :, :])  # [a,x]
    checks.append(_residual_check("antipode_left", [((), _convolution(desc, M, D, S, None), target)]))
    checks.append(_residual_check("antipode_right", [((), _convolution(desc, M, D, None, S), target)]))

    return AxiomReport(checks)


def _convolution(desc, m_legs, d_legs, f, g):
    """f * g = m(f (x) g) Delta as a matrix [a, x]; None stands for the identity."""
    t = d_legs if f is None else ra.tensordot(desc, f, d_legs, ([1], [0]))  # f[w,u] D[u,v,x] -> [w,v,x]
    if g is None:
        return ra.tensordot(desc, m_legs, t, ([1, 2], [0, 1]))
    t = ra.tensordot(desc, g, t, ([1], [1]))  # sum_v g[y,v] t[w,v,x] -> [y,w,x]
    return ra.tensordot(desc, m_legs, t, ([1, 2], [1, 0]))


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


def dual_coopposite(H: HopfPresentation, verify: bool = True) -> HopfPresentation:
    """A^{*cop}: the dual algebra with opposite comultiplication and antipode (S*)^{-1}."""
    ring, n = H.ring, H.dim
    d = dual(H, verify=False)
    cop = d.comul.coeffs.reshape(n, n, n, ring.m)
    cop = np.ascontiguousarray(ra.transpose(cop, (1, 0, 2)).reshape(n * n, n, ring.m))
    try:
        s_inv = matrix_inverse(ring, d.antipode.coeffs)
    except SingularModP as exc:
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
    s_inv = matrix_inverse(desc, H.antipode.coeffs)
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
# characters of commutative algebras (grouplikes, Wedderburn blocks)


def _field_elements(desc):
    """The p^m elements of the field as the rows of a (p^m, m) array; a field
    over the root-search bound is refused before any search."""
    size = desc.p**desc.m
    if size > root_search_bound():
        raise FieldTooLargeForRootSearch(f"|F| = {size} exceeds bound {root_search_bound()}")
    return np.indices((desc.p,) * desc.m).reshape(desc.m, size).T.copy()


def _characters(desc, T, unit_vec):
    """Algebra characters of the commutative algebra with structure tensor T
    (dim, dim, dim): the values chi(b_t) on its basis, one (dim,) row of the
    returned (count, dim) array per character.

    A character is a common eigenvector of the transposed multiplication
    operators L_t^T: f -> f(b_t .), with eigenvalue chi(b_t).  A common
    eigenvector f with eigenvalues lam_t has f(a) = lam(a) f(1), so each
    common eigenspace is the line that the character lam spans, also when the
    algebra is not semisimple.  The space of functionals is split by the
    kernels of L_t^T - lam, one operator at a time, lam over the F_q roots of
    the minimal polynomial of b_t, until every piece is a line."""
    n = T.shape[0]
    elements = _field_elements(desc)
    T_reg = ra.expand(desc, T)
    pieces = [ra.eye(desc, n)]  # the columns of each piece span it
    for t in range(n):
        if all(B.shape[1] == 1 for B in pieces):
            break
        Lt, Lt_reg = T[t], None if T_reg is None else T_reg[t]  # [k, i]: coefficient i of b_t b_k
        # the Krylov columns 1, b_t, ..., b_t^n are dependent.  They are factored
        # once: the pivots are the first d columns, d the degree of the minimal
        # polynomial, and the canonical kernel vector of free column d holds its
        # monic coefficients, evaluated at all of F_q in one Horner pass
        powers = [unit_vec]
        for _ in range(n):
            powers.append(ra.tensordot(desc, Lt, powers[-1], ([0], [0]), a_reg=Lt_reg))
        krylov = FieldSolver(desc, np.stack(powers, axis=1))
        values = np.zeros_like(elements)
        for c in krylov.kernel_basis()[0][krylov.rank :: -1]:
            values = ra.add(desc, ra.elem_mul(desc, values, elements), c)
        roots = elements[~np.any(values, axis=-1)]
        split = []
        for B in pieces:
            if B.shape[1] == 1:
                split.append(B)
                continue
            LB = ra.tensordot(desc, Lt, B, ([1], [0]), a_reg=Lt_reg)  # [k, s]: f_s(b_t b_k)
            found = 0
            for lam in roots:
                if found == B.shape[1]:  # the eigenspaces found fill the piece
                    break
                kernel = FieldSolver(desc, ra.sub(desc, LB, ra.elem_mul(desc, lam, B))).kernel_basis()
                if kernel:
                    split.append(ra.tensordot(desc, B, np.stack(kernel, axis=1), ([1], [0])))
                    found += len(kernel)
        pieces = split
    chars = []
    for B in pieces:
        f = B[:, 0]
        lam = ra.elem_mul(desc, f, _inv_coeffs_field(desc, ra.tensordot(desc, f, unit_vec, ([0], [0]))))
        # the functional is unital and multiplicative: chi(b_i b_j) = lam_i lam_j
        if not np.array_equal(ra.tensordot(desc, lam, unit_vec, ([0], [0])), ra.one_scalar(desc)):
            continue
        chi_prods = ra.tensordot(desc, T, lam, ([2], [0]))  # [i, j]
        if not np.any(ra.sub(desc, chi_prods, ra.elem_mul(desc, lam[:, None], lam[None]))):
            chars.append(lam)
    return np.array(chars, dtype=np.int64).reshape(len(chars), n, desc.m)


def grouplikes(H: HopfPresentation, central_only: bool = False):
    """All g with Delta(g) = g (x) g and eps(g) = 1, via characters of the
    abelianized dual algebra (common eigenvectors, eigenvalues by exhaustive
    root search over F_q).  Every character is found, also on a local block
    of a non-cosemisimple A, so the unit is always among them.

    A* has the structure tensor T[j, k, i], the f_i coefficient of f_j f_k.
    A character of A*/I, I the commutator ideal, is a grouplike of A.  The
    quotient map P is the canonical kernel basis of I (transposed), so the
    quotient coordinates are the free columns of I's RREF and A*/I has the
    structure tensor P.T[free, free].  central_only keeps the central ones."""
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


def center_basis(H: HopfPresentation):
    """The canonical basis of the centre as the columns z_i of an (N, r, m)
    array, and its coordinates: the free columns, where z_i is 1 at the i-th
    and 0 at the others."""
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)
    rows = ra.zeros(desc, (N * N, N))
    for j in range(N):
        rows[j * N : (j + 1) * N] = ra.sub(desc, M[:, :, j, :], M[:, j, :, :])
    solver = FieldSolver(desc, rows)
    return np.stack(solver.kernel_basis(), axis=1), np.setdiff1d(np.arange(N), solver.pivot_cols)


def irreducible_dimensions(H: HopfPresentation) -> list[int]:
    """Wedderburn block sizes {n_i} of a split semisimple presentation.

    The blocks are {a : z a = chi(z) a for all central z}, one per character
    chi of the centre Z.  They fill A exactly when Z is split over F_q."""
    if not H.ring.is_field:
        raise DescriptorMismatch("irreducible_dimensions runs over the residue field")
    if not is_semisimple(H):
        raise NotSemisimple("presentation is not semisimple")
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)
    Z, free = center_basis(H)
    left = ra.tensordot(desc, M, Z, ([1], [0]))  # [a, x, i]: coefficient a of z_i e_x
    Tz = ra.transpose(ra.tensordot(desc, left[free], Z, ([1], [0])), (1, 2, 0))  # z_i z_j in coordinates
    chars = _characters(desc, Tz, H.unit.coeffs.reshape(N, desc.m)[free])
    ops = ra.transpose(left, (2, 0, 1))  # [i, a, x]: left multiplication by z_i
    dims = []
    total = 0
    for chi in chars:
        shifted = ra.sub(desc, ops, ra.elem_mul(desc, chi[:, None, None], ra.eye(desc, N)[None]))
        bdim = N - FieldSolver(desc, shifted.reshape(-1, N, desc.m), rank_only=True).rank
        n = int(round(bdim**0.5))
        if n * n != bdim:
            raise NotSplit(f"matrix block of dimension {bdim} is not a square")
        dims.append(n)
        total += bdim
    if total != N:
        raise NotSplit(f"block dimensions sum to {total} != {N}: the centre does not split over F_q")
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
    """Check the quasitriangular axioms exactly; triangular means R21 R = 1 (x) 1.
    The intertwining check, whose intermediates are N^4, runs in slabs of its first leg."""
    desc, N = H.ring, H.dim
    m = desc.m
    M, D, U, E, S = _legs(H)
    r2 = R.coeffs.reshape(N, N, m)
    failures = []

    for a in _slabs(N, N**3 * m * m):  # [a,w,v] -> [a,v,z,x] -> [a,x,b] and [a,u,w,x] -> [a,w,x,v] -> [a,x,b]
        lhs = ra.tensordot(desc, ra.tensordot(desc, M[a], r2, ([1], [0])), D, ([1], [0]))
        lhs = ra.tensordot(desc, lhs, M, ([1, 2], [1, 2]))
        rhs = ra.tensordot(desc, ra.tensordot(desc, M[a], D, ([1], [1])), r2, ([1], [0]))
        rhs = ra.tensordot(desc, rhs, M, ([1, 3], [1, 2]))
        if np.any(ra.sub(desc, lhs, rhs)):
            failures.append("intertwine")
            break

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
        if FieldSolver(desc.residue(), lmat % desc.p, rank_only=True).rank < N * N:
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
