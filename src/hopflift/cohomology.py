"""The bialgebra bicomplex C^{p,q}(A,B,phi) with both differentials.

C^{p,q} = Hom(A^{tensor p+1}, B^{tensor q+1}); the algebra differential raises
p, the coalgebra differential raises q, and the total differential on
C^n = sum_{p+q=n} C^{p,q} acts as d_a + (-1)^p d_c.  Sign conventions follow
the defining formulas verbatim; the bicomplex identities (d_a^2 = d_c^2 = 0,
d_a d_c = d_c d_a, d_total^2 = 0) are enforced by the test suite on random
cochains, which is what makes the obstruction calculus of the lifting module
sound.

Flattened matrices of the total differential are assembled once per
(context, degree) as sparse CooMatrix and cached with their FieldSolver;
components of degree n are ordered (n,0), (n-1,1), ..., (0,n) and vectorized
row-major (out index major).
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import _arrays as ra
from . import hopfcore as hc
from . import tensorcalc as tc
from ._linalg import CooMatrix, FieldSolver
from .coeffring import RingDescriptor
from .errors import ArityMismatch, BudgetExceeded, DescriptorMismatch, InternalAxiomFailure, NotACocycle
from .hopfcore import HopfMorphism, HopfPresentation
from .tensorcalc import MultiMap

H2_BUDGET_ENV = "HOPFLIFT_H2_BUDGET"
COBOUNDARY_BUDGET_ENV = "HOPFLIFT_COBOUNDARY_BUDGET"


def h2_budget() -> int:
    return int(os.environ.get(H2_BUDGET_ENV, 6))


def coboundary_budget() -> int:
    return int(os.environ.get(COBOUNDARY_BUDGET_ENV, 12))


# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ComplexContext:
    A: HopfPresentation
    B: HopfPresentation
    phi: HopfMorphism

    def __post_init__(self):
        if self.A.ring != self.B.ring or not self.A.ring.is_field:
            raise DescriptorMismatch("context requires one common field descriptor")
        if not self.phi.verified:
            raise InternalAxiomFailure("context morphism must be VERIFIED")

    @property
    def ring(self) -> RingDescriptor:
        return self.A.ring

    def digest(self) -> bytes:
        h = hashlib.sha256()
        h.update(self.A.digest())
        h.update(self.B.digest())
        h.update(np.ascontiguousarray(self.phi.map.coeffs).tobytes())
        return h.digest()


def make_context(A: HopfPresentation, B: HopfPresentation | None = None, phi: HopfMorphism | None = None) -> ComplexContext:
    if B is None:
        B = A
    if phi is None:
        if B != A:
            raise DescriptorMismatch("phi may only default to the identity when B == A")
        phi = hc.identity_morphism(A)
    return ComplexContext(A, B, phi)


@dataclass
class TotalCochain:
    context: ComplexContext
    degree: int
    components: dict  # (p, q) -> MultiMap(p+1 -> q+1)

    def __post_init__(self):
        expected = {(p, self.degree - p) for p in range(self.degree + 1)}
        if set(self.components) != expected:
            raise ArityMismatch(f"degree-{self.degree} cochain needs components {sorted(expected)}")
        for (p, q), f in self.components.items():
            if (f.arity_in, f.arity_out) != (p + 1, q + 1):
                raise ArityMismatch(f"component {(p, q)} has arities {f.arity_in}->{f.arity_out}")

    @property
    def is_zero(self) -> bool:
        return all(f.is_zero for f in self.components.values())

    def __add__(self, other):
        return TotalCochain(
            self.context,
            self.degree,
            {k: self.components[k] + other.components[k] for k in self.components},
        )

    def __sub__(self, other):
        return TotalCochain(
            self.context,
            self.degree,
            {k: self.components[k] - other.components[k] for k in self.components},
        )

    def scale(self, c):
        return TotalCochain(self.context, self.degree, {k: f.scale(c) for k, f in self.components.items()})

    def __eq__(self, other):
        return (
            isinstance(other, TotalCochain)
            and self.degree == other.degree
            and all(self.components[k] == other.components[k] for k in self.components)
        )


def component_order(n: int):
    return [(n - q, q) for q in range(n + 1)]


def zero_cochain(ctx: ComplexContext, n: int) -> TotalCochain:
    comps = {}
    for p, q in component_order(n):
        comps[(p, q)] = tc.zero_map(ctx.ring, p + 1, q + 1, ctx.A.dim, ctx.B.dim)
    return TotalCochain(ctx, n, comps)


def random_cochain(ctx: ComplexContext, n: int, seed: int) -> TotalCochain:
    rng = np.random.default_rng([seed, n, 0x1DEA])
    comps = {}
    for p, q in component_order(n):
        shape = (ctx.B.dim ** (q + 1), ctx.A.dim ** (p + 1), ctx.ring.m)
        arr = np.asarray(rng.integers(0, ctx.ring.q, size=shape), dtype=np.int64)
        comps[(p, q)] = MultiMap(ctx.ring, p + 1, q + 1, ctx.A.dim, ctx.B.dim, arr)
    return TotalCochain(ctx, n, comps)


# ---------------------------------------------------------------------------
# cached per-context structure tensors


class _ContextCache:
    def __init__(self, ctx: ComplexContext):
        self.ctx = ctx
        desc = ctx.ring
        na, nb = ctx.A.dim, ctx.B.dim
        self.MA = ctx.A.mul.coeffs.reshape(na, na, na, desc.m)
        self.DA = ctx.A.comul.coeffs.reshape(na, na, na, desc.m)
        self.MB = ctx.B.mul.coeffs.reshape(nb, nb, nb, desc.m)
        self.DB = ctx.B.comul.coeffs.reshape(nb, nb, nb, desc.m)
        self.F = ctx.phi.map.coeffs  # (nb, na, m)
        self._e = {}
        self._p = {}
        self._mult = {}
        self._dmat = {}
        self._solver = {}

    def e_tensor(self, k: int):
        """phi^{tensor k} o Delta_k: (nb^k, na) coefficient block."""
        if k not in self._e:
            dk = tc.iterate(self.ctx.A, k, "coproduct")
            cur = dk.coeffs  # (na^k, na, m)
            desc = self.ctx.ring
            na, nb = self.ctx.A.dim, self.ctx.B.dim
            legs = cur.reshape((na,) * k + (na, desc.m))
            for t in range(k):
                # replace leg t by phi: contract axis t with F's in-axis
                legs = ra.tensordot(desc, self.F, legs, ([1], [t]))
                # new phi-leg lands in front; rotate it to position t
                legs = ra.moveaxis(legs, 0, t)
            self._e[k] = legs.reshape(nb**k, na, desc.m)
        return self._e[k]

    def mult_operator(self, k: int, side: str):
        """Left/right multiplication by phi^{k}(Delta_k(e_a)) on B^{tensor k}:
        [a, out, in] of shape (na, nb^k, nb^k)."""
        if (k, side) not in self._mult:
            desc = self.ctx.ring
            na, nb = self.ctx.A.dim, self.ctx.B.dim
            cur = self.e_tensor(k).reshape((nb,) * k + (na, desc.m))
            for _ in range(k):
                # the leg of E is the left (left action) or right factor of m_B
                cur = ra.tensordot(desc, cur, self.MB, ([0], [1 if side == "left" else 2]))  # appends (o_t, i_t)
            # axes: [a, o1, i1, o2, i2, ...]
            perm = [0] + [1 + 2 * t for t in range(k)] + [2 + 2 * t for t in range(k)]
            self._mult[(k, side)] = ra.transpose(cur, perm).reshape(na, nb**k, nb**k, desc.m)
        return self._mult[(k, side)]

    def p_tensor(self, k: int):
        """phi o m_k: (nb, na^k) coefficient block."""
        if k not in self._p:
            mk = tc.iterate(self.ctx.A, k, "product")
            desc = self.ctx.ring
            out = ra.tensordot(desc, self.F, mk.coeffs, ([1], [0]))
            self._p[k] = out
        return self._p[k]


_CACHE: OrderedDict[bytes, _ContextCache] = OrderedDict()
_CACHE_LIMIT = 8


def _cache(ctx: ComplexContext) -> _ContextCache:
    key = ctx.digest()
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    entry = _ContextCache(ctx)
    _CACHE[key] = entry
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
    return entry


# ---------------------------------------------------------------------------
# the two differentials


def _left_action_term(cc: _ContextCache, f, p: int, q: int):
    """x (x) rest |-> phi^{q+1}(Delta_{q+1}(x)) * f(rest) as a legs block."""
    na = cc.ctx.A.dim
    cur = ra.tensordot(cc.ctx.ring, cc.mult_operator(q + 1, "left"), f, ([2], [0]))  # [x, out, rest, batch]
    cur = ra.moveaxis(cur, 0, 1)
    return cur.reshape((f.shape[0], na ** (p + 2)) + f.shape[2:])


def _right_action_term(cc: _ContextCache, f, p: int, q: int):
    """rest (x) x |-> f(rest) * phi^{q+1}(Delta_{q+1}(x)) as a legs block."""
    na = cc.ctx.A.dim
    cur = ra.tensordot(cc.ctx.ring, cc.mult_operator(q + 1, "right"), f, ([2], [0]))  # [x, out, rest, batch]
    cur = ra.moveaxis(cur, 0, 2)
    return cur.reshape((f.shape[0], na ** (p + 2)) + f.shape[2:])


def _signed_sum(desc, signed_terms):
    """Sum of sign * term over (sign, term) pairs, reduced mod q once at the end.

    Terms are residues, p + 3 of them for d_alg and q + 3 for d_coalg; while
    there are at most 16 the running sum of residues below 2^58 stays inside
    int64, and a larger q is reduced after every term.
    """
    total = None
    for sign, term in signed_terms:
        if total is None:
            total = term.copy() if sign > 0 else -term
        elif sign > 0:
            total += term
        else:
            total -= term
        if desc.q > ra._I64_SAFE >> 4:
            total %= desc.q
    total %= desc.q
    return total


def _d_alg_block(cc: _ContextCache, f, p: int, q: int):
    """Algebra differential of a coefficient block f: (nb^{q+1}, na^{p+1}, batch, m)."""
    desc = cc.ctx.ring
    na, nb = cc.ctx.A.dim, cc.ctx.B.dim
    f_legs = f.reshape((nb ** (q + 1),) + (na,) * (p + 1) + f.shape[2:])

    def terms():
        yield (-1) ** (p + 1), _left_action_term(cc, f, p, q)
        for i in range(1, p + 2):
            # f o (I^{i-1} (x) m (x) I^{p+1-i}); the product feeds input slot i
            term = ra.tensordot(desc, f_legs, cc.MA, ([i], [0]))  # legs (x,y) appended
            term = ra.moveaxis(term, [-2, -1], [i, i + 1])
            yield (-1) ** (p + 1 + i), term.reshape((nb ** (q + 1), na ** (p + 2)) + f.shape[2:])
        yield -1, _right_action_term(cc, f, p, q)

    return _signed_sum(desc, terms())


def _arities(f: MultiMap):
    p, q = f.arity_in - 1, f.arity_out - 1
    if p < 0 or q < 0:
        raise ArityMismatch("cochain arities must be >= 1")
    return p, q


def d_alg(ctx: ComplexContext, f: MultiMap) -> MultiMap:
    """Algebra differential C^{p,q} -> C^{p+1,q} (printed sign convention)."""
    p, q = _arities(f)
    out = _d_alg_block(_cache(ctx), f.coeffs[:, :, None], p, q)[:, :, 0]
    return MultiMap(ctx.ring, p + 2, q + 1, ctx.A.dim, ctx.B.dim, out)


def _coaction_term(cc: _ContextCache, f, p: int, q: int, side: str):
    """phi(a^(1) products) (x) f(a^(2)) (left) or f(a^(1)) (x) phi(a^(2)) (right)."""
    desc = cc.ctx.ring
    na, nb = cc.ctx.A.dim, cc.ctx.B.dim
    k = p + 1
    cur = cc.p_tensor(k).reshape((nb,) + (na,) * k + (desc.m,))  # [b, u1..uk]
    contract_axis = 0 if side == "left" else 1  # which Delta leg phi eats
    for _ in range(k):
        cur = ra.tensordot(desc, cur, cc.DA, ([1], [contract_axis]))
    # axes: [b, v1, a1, v2, a2, ...] (left) or [b, u1, a1, ...] (right)
    perm = [0] + [1 + 2 * t for t in range(k)] + [2 + 2 * t for t in range(k)]
    w = ra.transpose(cur, perm).reshape(nb, na**k, na**k, desc.m)  # [b, f-leg, a]
    t_out = ra.tensordot(desc, w, f, ([1], [1]))  # [b, a, o, batch]
    t_out = ra.transpose(t_out, (0, 2, 1, 3) if side == "left" else (2, 0, 1, 3))
    return t_out.reshape((nb ** (q + 2), na**k) + f.shape[2:])


def _d_coalg_block(cc: _ContextCache, f, p: int, q: int):
    """Coalgebra differential of a coefficient block f: (nb^{q+1}, na^{p+1}, batch, m)."""
    desc = cc.ctx.ring
    nb = cc.ctx.B.dim
    f_legs = f.reshape((nb,) * (q + 1) + f.shape[1:])

    def terms():
        yield 1, _coaction_term(cc, f, p, q, "left")
        for i in range(1, q + 2):
            term = ra.tensordot(desc, f_legs, cc.DB, ([i - 1], [2]))  # (u,v) appended
            term = ra.moveaxis(term, [-2, -1], [i - 1, i])
            yield (-1) ** i, term.reshape((nb ** (q + 2),) + f.shape[1:])
        yield (-1) ** (q + 2), _coaction_term(cc, f, p, q, "right")

    return _signed_sum(desc, terms())


def d_coalg(ctx: ComplexContext, f: MultiMap) -> MultiMap:
    """Coalgebra differential C^{p,q} -> C^{p,q+1} (printed sign convention)."""
    p, q = _arities(f)
    out = _d_coalg_block(_cache(ctx), f.coeffs[:, :, None], p, q)[:, :, 0]
    return MultiMap(ctx.ring, p + 1, q + 2, ctx.A.dim, ctx.B.dim, out)


def d_total(z: TotalCochain) -> TotalCochain:
    """Total differential: d restricted to C^{p,q} is d_a + (-1)^p d_c."""
    ctx, n = z.context, z.degree
    out = zero_cochain(ctx, n + 1)
    comps = dict(out.components)
    for (p, q), f in z.components.items():
        if f.is_zero:
            continue
        comps[(p + 1, q)] = comps[(p + 1, q)] + d_alg(ctx, f)
        comps[(p, q + 1)] = comps[(p, q + 1)] + d_coalg(ctx, f).scale((-1) ** p)
    return TotalCochain(ctx, n + 1, comps)


def is_cocycle(z: TotalCochain) -> bool:
    return d_total(z).is_zero


# ---------------------------------------------------------------------------
# flattened matrices, coboundary solving, cohomology dimensions


def space_dims(ctx: ComplexContext, n: int):
    na, nb = ctx.A.dim, ctx.B.dim
    return [(p, q, nb ** (q + 1) * na ** (p + 1)) for p, q in component_order(n)]


def vec_cochain(z: TotalCochain) -> np.ndarray:
    parts = [z.components[(p, q)].coeffs.reshape(-1, z.context.ring.m) for p, q in component_order(z.degree)]
    return np.concatenate(parts, axis=0)


def unvec_cochain(ctx: ComplexContext, n: int, vec: np.ndarray) -> TotalCochain:
    comps = {}
    offset = 0
    na, nb = ctx.A.dim, ctx.B.dim
    for p, q, size in space_dims(ctx, n):
        block = vec[offset : offset + size].reshape(nb ** (q + 1), na ** (p + 1), ctx.ring.m)
        comps[(p, q)] = MultiMap(ctx.ring, p + 1, q + 1, na, nb, block.copy())
        offset += size
    return TotalCochain(ctx, n, comps)


# basis cochains per assembly batch: keeps each image block, the largest
# intermediate, near 2^22 cells
_ASSEMBLY_CELLS = 1 << 22


def dtotal_matrix(ctx: ComplexContext, n: int) -> CooMatrix:
    """Sparse matrix of d: C^n -> C^{n+1} in the flattened ordering (cached).

    Column j is d_total of the j-th basis cochain; batches of basis cochains go
    through the differentials at once, on a trailing batch axis.
    """
    cc = _cache(ctx)
    if n not in cc._dmat:
        cc._dmat[n] = _assemble(ctx, cc, n)
    return cc._dmat[n]


def _assemble(ctx: ComplexContext, cc: _ContextCache, n: int) -> CooMatrix:
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    row_offset, rows_total = {}, 0
    for p, q, size in space_dims(ctx, n + 1):
        row_offset[(p, q)] = rows_total
        rows_total += size
    rows, cols, vals = [], [], []
    col0 = 0
    for p, q, size in space_dims(ctx, n):
        out_rows = max(nb ** (q + 1) * na ** (p + 2), nb ** (q + 2) * na ** (p + 1))
        batch = max(1, _ASSEMBLY_CELLS // out_rows)
        for j0 in range(0, size, batch):
            width = min(batch, size - j0)
            basis = np.zeros((size, width, desc.m), dtype=np.int64)
            basis[j0 + np.arange(width), np.arange(width), 0] = 1
            f = basis.reshape(nb ** (q + 1), na ** (p + 1), width, desc.m)
            # d restricted to C^{p,q} is d_a + (-1)^p d_c
            images = (((p + 1, q), 1, _d_alg_block), ((p, q + 1), (-1) ** p, _d_coalg_block))
            for comp, sign, block in images:
                img = block(cc, f, p, q).reshape(-1, width, desc.m)
                r, c = np.nonzero(np.any(img != 0, axis=-1))
                rows.append(row_offset[comp] + r)
                cols.append(col0 + j0 + c)
                vals.append(ra.scale_int(desc, img[r, c], sign))
        col0 += size
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    order = np.lexsort((cols, rows))
    return CooMatrix((rows_total, col0), rows[order], cols[order], vals[order])


def _solver_for(ctx: ComplexContext, n: int) -> FieldSolver:
    cc = _cache(ctx)
    if n not in cc._solver:
        cc._solver[n] = FieldSolver(ctx.ring, dtotal_matrix(ctx, n))
    return cc._solver[n]


def solve_coboundary(z: TotalCochain, _cocycle_checked: bool = False) -> TotalCochain | None:
    """Find x of degree n-1 with d_total(x) = z exactly (None if inconsistent).

    The solution is the canonical one (free variables zero) of the flattened
    linear system, so outputs are deterministic.  _cocycle_checked lets the
    lifting pipeline skip a duplicate closedness check that its obstruction
    report has already performed.
    """
    ctx, n = z.context, z.degree
    if n < 1:
        raise ArityMismatch("coboundary solving needs degree >= 1")
    if max(ctx.A.dim, ctx.B.dim) > coboundary_budget():
        raise BudgetExceeded(f"dims exceed coboundary budget {coboundary_budget()}")
    if not _cocycle_checked and not is_cocycle(z):
        raise NotACocycle("input cochain is not closed")
    solver = _solver_for(ctx, n - 1)
    x = solver.solve(vec_cochain(z))
    if x is None:
        return None
    return unvec_cochain(ctx, n - 1, x)


def cohomology_dim(ctx: ComplexContext, n: int) -> int:
    """dim H^n = dim ker(d_n) - rank(d_{n-1}), by exact rank computation."""
    if n < 0 or n > 2:
        raise BudgetExceeded("only degrees 0..2 are supported")
    limit = h2_budget() if n == 2 else coboundary_budget()
    if max(ctx.A.dim, ctx.B.dim) > limit:
        raise BudgetExceeded(f"dims exceed budget {limit} for degree {n}")
    dim_cn = sum(size for _, _, size in space_dims(ctx, n))
    mat_n = dtotal_matrix(ctx, n)
    rank_n = FieldSolver(ctx.ring, mat_n, rank_only=True).rank
    kernel_dim = dim_cn - rank_n
    if n == 0:
        return kernel_dim
    rank_prev = _solver_for(ctx, n - 1).rank
    return kernel_dim - rank_prev


# ---------------------------------------------------------------------------
# the invariants subcomplex D^*(B)^A


def _invariant_basis(ctx: ComplexContext, k: int):
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    cc = _cache(ctx)
    lm = cc.mult_operator(k, "left")
    rm = cc.mult_operator(k, "right")
    rows = ra.sub(desc, lm, rm).reshape(na * nb**k, nb**k, desc.m)
    return FieldSolver(desc, rows).kernel_basis()


def _hat_differential_matrix(ctx: ComplexContext, q: int):
    """d: B^{tensor q+1} -> B^{tensor q+2} of the augmented coalgebra complex."""
    desc = ctx.ring
    nb = ctx.B.dim
    cc = _cache(ctx)
    ub = ctx.B.unit.coeffs.reshape(nb, desc.m)
    k = q + 1
    size_in, size_out = nb**k, nb ** (k + 1)
    mat = ra.zeros(desc, (size_out, size_in))
    eye = ra.eye(desc, size_in)
    # 1 (x) b
    term = ra.kron2(desc, ub.reshape(nb, 1, desc.m), eye)
    mat = ra.add(desc, mat, term)
    # interior comultiplications
    for i in range(1, k + 1):
        legs = eye.reshape((nb,) * k + (size_in, desc.m))
        t = ra.tensordot(desc, legs, cc.DB, ([i - 1], [2]))
        t = ra.moveaxis(t, [-2, -1], [i - 1, i])
        mat = ra.add(desc, mat, ra.scale_int(desc, t.reshape(size_out, size_in, desc.m), (-1) ** i))
    # b (x) 1
    term = ra.kron2(desc, eye, ub.reshape(nb, 1, desc.m))
    mat = ra.add(desc, mat, ra.scale_int(desc, term, (-1) ** (k + 1)))
    return mat


def invariants_complex_dim(ctx: ComplexContext, n: int) -> int:
    """Cohomology of the A-invariants subcomplex (B^{tensor q+1})^A under the
    coalgebra differential; agrees with cohomology_dim on the tested corpus."""
    if max(ctx.A.dim, ctx.B.dim) > 4 or n > 2 or n < 0:
        raise BudgetExceeded("invariants complex limited to dims <= 4 and n <= 2")
    desc = ctx.ring

    def restricted(qd):
        vin = _invariant_basis(ctx, qd + 1)
        vout = _invariant_basis(ctx, qd + 2)
        dmat = _hat_differential_matrix(ctx, qd)
        if not vin:
            return np.zeros((max(len(vout), 1), 0, desc.m), dtype=np.int64), 0, len(vout)
        images = [ra.tensordot(desc, dmat, v, ([1], [0])) for v in vin]
        if not vout:
            for img in images:
                if np.any(img):
                    raise InternalAxiomFailure("differential does not preserve invariants")
            return np.zeros((1, len(vin), desc.m), dtype=np.int64), len(vin), 0
        vout_mat = np.stack(vout, axis=1)
        solver = FieldSolver(desc, vout_mat)
        cols = []
        for img in images:
            c = solver.solve(img)
            if c is None:
                raise InternalAxiomFailure("differential does not preserve invariants")
            cols.append(c)
        return np.stack(cols, axis=1), len(vin), len(vout)

    mat_n, dim_n, _ = restricted(n)
    rank_n = FieldSolver(desc, mat_n, rank_only=True).rank if dim_n else 0
    kernel = dim_n - rank_n
    if n == 0:
        return kernel
    mat_prev, dim_prev, _ = restricted(n - 1)
    rank_prev = FieldSolver(desc, mat_prev, rank_only=True).rank if dim_prev else 0
    return kernel - rank_prev
