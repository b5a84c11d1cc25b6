"""The bialgebra bicomplex C^{p,q}(A,B,phi) with both differentials.

C^{p,q} = Hom(A^{tensor p+1}, B^{tensor q+1}); the algebra differential raises
p, the coalgebra differential raises q, and the total differential on
C^n = sum_{p+q=n} C^{p,q} acts as d_a + (-1)^p d_c.  Sign conventions follow
the defining formulas verbatim; the bicomplex identities (d_a^2 = d_c^2 = 0,
d_a d_c = d_c d_a, d_total^2 = 0) are enforced by the test suite on random
cochains, which is what makes the obstruction calculus of the lifting module
sound.  The bicomplex is self-dual: transposing a cochain identifies
C^{p,q}(A,B,phi) with C^{q,p}(B*,A*,phi*) and swaps the two differentials, so
d_c is computed as the transposed d_a of the dual context, which lives in
the context's own memo.  d_a is three sparse products: the left and right
multiplication operators on the out axis of a cochain, and the slot operator
sum_i (-1)^i I (x) m_A^T (x) I on its input axis.  Every context operator (the
multiplication and slot operators, the homotopies of the contraction, ad_k and
d_c ad_k) is a CooMatrix built from nonzeros, which keeps its prepared values
after its first product; no per-(p, q) matrix of d_a or d_c is held.

Flattened matrices of the total differential are assembled once per
(context, degree) as sparse CooMatrix, joined from the nonzeros of the
structure operators (each term one of d_a's factors tensored with identities),
and memoized with their FieldSolver; components of degree n are ordered (n,0),
(n-1,1), ..., (0,n) and vectorized row-major (out index major).  The
lifting's coboundaries, of degree 1 (maps) and 2 (structures), come from
_contract_obstruction, which contracts the rows with A's separability
idempotent and the columns with B*'s (the dual context's, through the
self-duality): Thm 1.2 with both certified is H^0 = H^1 = 0.  It builds no
d_1, and no d_0 in degree 1; in degree 2 the free columns of d_1 are the
greedy row basis of d_0 from its last row up, the pivot rows of its one
factorization, of d_0 with its rows reversed.  solve_coboundary is its
oracle.  For a semisimple A the row contraction alone reduces
cohomology_dim and the invariants complex to the complex ad(B^{tensor q+1})
under d_c, with one cached solver per ad_k and per d_c ad_k (cohomology_dim
takes the dual context's when only B is cosemisimple).
Both matrices are built from nonzeros and never as dense images: the
multiplication operators of B^{tensor k} are joins of e_tensor(k) with m_B, and
d_c ad_k = ad_{k+1} o d^_k, with d^ the differential of the augmented
coalgebra complex of B.

A context is one object: ComplexContext keeps every operator, matrix and
solver above in its memo, and make_context returns the one context of a
digest among the _CACHE_LIMIT most recent.
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
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DescriptorMismatch,
    InternalAxiomFailure,
    NotACocycle,
    NotSemisimpleOrCosemisimple,
)
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
    """The context (A, B, phi) of C^{p,q}(A,B,phi), with its memo.  make_context
    gives one object per digest, so every caller shares the memo."""

    A: HopfPresentation
    B: HopfPresentation
    phi: HopfMorphism
    _memo: dict = field(default_factory=dict, init=False, repr=False)

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

    def memo(self, key, build):
        """build(), computed once per context: the structure operators below,
        the matrices and solvers of d_n, ad_k and d_c ad_k, the separability
        idempotent and its homotopy, the contraction data and the dual
        context."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def dual(self) -> ComplexContext:
        """The dual context (B*, A*, phi*), to which a cochain of C^{p,q}
        transposes as one of C^{q,p}; held in this context's memo, not in _CACHE."""

        def build():
            A, B = hc.dual(self.B), hc.dual(self.A)
            fmap = MultiMap(self.ring, 1, 1, A.dim, B.dim, np.ascontiguousarray(np.swapaxes(self.phi.map.coeffs, 0, 1)))
            # the dual of a Hopf map is a Hopf map
            return ComplexContext(A, B, HopfMorphism(A, B, fmap, verified=True))

        return self.memo("dual", build)

    def e_tensor(self, k: int):
        """phi^{tensor k} o Delta_k: (nb^k, na) coefficient block."""

        def build():
            dk = tc.iterate(self.A, k, "coproduct")
            cur = dk.coeffs  # (na^k, na, m)
            desc = self.ring
            na, nb = self.A.dim, self.B.dim
            legs = cur.reshape((na,) * k + (na, desc.m))
            for t in range(k):
                # replace leg t by phi: contract axis t with phi's in-axis
                legs = ra.tensordot(desc, self.phi.map.coeffs, legs, ([1], [t]))
                # new phi-leg lands in front; rotate it to position t
                legs = ra.moveaxis(legs, 0, t)
            return legs.reshape(nb**k, na, desc.m)

        return self.memo(("e", k), build)

    def mult_operator(self, k: int, side: str) -> CooMatrix:
        """Left/right multiplication by phi^{k}(Delta_k(e_a)) on B^{tensor k}, built
        from nonzeros: the (nb^k * na, nb^k) matrix of [(out, a), in]."""

        def build():
            desc = self.ring
            na, nb = self.A.dim, self.B.dim
            # the leg of E is the left (left action) or right factor of m_B
            m_b = self.B.mul.coeffs.reshape(nb, nb, nb, desc.m)
            mb = ra.nonzeros(m_b, [1 if side == "left" else 2])  # key x, free (o, i)
            _, cells, vals = ra.nonzeros(self.e_tensor(k), [])  # [x1, ..., xk, a]
            size = nb**k * na
            for _ in range(k):
                # join the leading leg x_t with m_B, which appends (o_t, i_t)
                rest = size // nb
                cells, vals = ra.join(desc, (cells // rest, cells % rest, vals), mb, nb, nb * nb)
                size = rest * nb * nb
            # axes [a, o1, i1, ..., ok, ik]
            idx = np.unravel_index(cells, (na,) + (nb,) * (2 * k))
            rows = np.ravel_multi_index(idx[1::2] + idx[:1], (nb,) * k + (na,))
            cols = np.ravel_multi_index(idx[2::2], (nb,) * k)
            order = np.lexsort((cols, rows))
            return CooMatrix((nb**k * na, nb**k), rows[order], cols[order], vals[order])

        return self.memo(("mult", k, side), build)


_CACHE: OrderedDict[bytes, ComplexContext] = OrderedDict()
_CACHE_LIMIT = 8


def make_context(A: HopfPresentation, B: HopfPresentation | None = None, phi: HopfMorphism | None = None) -> ComplexContext:
    """The context (A, B, phi), phi the identity by default: the one object of
    its digest among the _CACHE_LIMIT most recent, whose memo it keeps."""
    if B is None:
        B = A
    if phi is None:
        if B is not A and B != A:
            raise DescriptorMismatch("phi may only default to the identity when B == A")
        phi = hc.identity_morphism(A)
    ctx = ComplexContext(A, B, phi)
    key = ctx.digest()
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return _CACHE[key]
    _CACHE[key] = ctx
    while len(_CACHE) > _CACHE_LIMIT:
        _CACHE.popitem(last=False)
    return ctx


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
# the two differentials


def _slot_operator(ctx: ComplexContext, p: int) -> CooMatrix:
    """sum_i (-1)^i I (x) m_A^T (x) I, i = 1..p+1, with m_A^T feeding input
    slot i: the (na^{p+2}, na^{p+1}) matrix of the m_i terms of d_a on the
    input legs, built from nonzeros once per context and p."""

    def build():
        desc, na = ctx.ring, ctx.A.dim
        m_a = ctx.A.mul.coeffs.reshape(na, na, na, desc.m)
        m_t = CooMatrix.from_entries(desc, (na * na, na), *ra.nonzeros(m_a, [1, 2]))  # m_A^T: [(x, y), t]
        terms = [_kron_entries(desc, (-1) ** i, na ** (i - 1), m_t, na ** (p + 1 - i)) for i in range(1, p + 2)]
        rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
        return CooMatrix.from_entries(desc, (na ** (p + 2), na ** (p + 1)), rows, cols, vals)

    return ctx.memo(("slots", p), build)


def _d_alg_block(ctx: ComplexContext, f, p: int, q: int, sign: int = 1):
    """sign * the algebra differential of a coefficient block f: (nb^{q+1}, na^{p+1}, batch, m).

    d_a = (-1)^{p+1} (left action + m_i terms) - right action: the two
    multiplication operators on the out axis of f, the slot operator on its
    input axis.  The first two land at the output's (o, (x, rest)), the right
    action at (o, (rest, x)); the residues are summed in one buffer, reduced
    in between when 3q would leave int64.
    """
    desc = ctx.ring
    na = ctx.A.dim
    rows, cols, m = f.shape[0], f.shape[1], desc.m
    on_out = f.reshape(rows, -1, m)
    out = ctx.mult_operator(q + 1, "left").dot(desc, on_out).reshape(rows, na * cols, -1, m)
    slots = _slot_operator(ctx, p).dot(desc, np.swapaxes(f, 0, 1).reshape(cols, -1, m))
    out += np.swapaxes(slots.reshape(na * cols, rows, -1, m), 0, 1)
    del slots
    if desc.q > ra._I64_SAFE >> 2:
        ra.int64_mod(out, desc.q)
    right = ctx.mult_operator(q + 1, "right").dot(desc, on_out).reshape(rows, na, cols, -1, m)
    legs = out.reshape(rows, cols, na, -1, m)
    # p even: -sign (left + slots + right); p odd: sign (left + slots - right)
    (np.add if p % 2 == 0 else np.subtract)(legs, np.swapaxes(right, 1, 2), out=legs)
    if (p % 2 == 0) == (sign > 0):
        np.negative(out, out=out)
    ra.int64_mod(out, desc.q)
    return out.reshape((rows, na * cols) + f.shape[2:])


def _arities(f: MultiMap):
    p, q = f.arity_in - 1, f.arity_out - 1
    if p < 0 or q < 0:
        raise ArityMismatch("cochain arities must be >= 1")
    return p, q


def d_alg(ctx: ComplexContext, f: MultiMap) -> MultiMap:
    """Algebra differential C^{p,q} -> C^{p+1,q} (printed sign convention)."""
    p, q = _arities(f)
    out = _d_alg_block(ctx, f.coeffs[:, :, None], p, q)[:, :, 0]
    return MultiMap(ctx.ring, p + 2, q + 1, ctx.A.dim, ctx.B.dim, out)


def _d_coalg_block(ctx: ComplexContext, f, p: int, q: int):
    """Coalgebra differential of a coefficient block f: (nb^{q+1}, na^{p+1}, batch, m).

    The transposed algebra differential of the dual context, with sign
    (-1)^{q+1}: the coaction terms of f are the action terms of f^T, since
    (phi o m_{A,k})^T = phi*^{tensor k} o Delta_{B*,k}, and each Delta_i term
    is the m_i term of f^T.
    """
    out = _d_alg_block(ctx.dual(), np.swapaxes(f, 0, 1), q, p, (-1) ** (q + 1))
    return np.ascontiguousarray(np.swapaxes(out, 0, 1))


def d_coalg(ctx: ComplexContext, f: MultiMap) -> MultiMap:
    """Coalgebra differential C^{p,q} -> C^{p,q+1} (printed sign convention)."""
    p, q = _arities(f)
    out = _d_coalg_block(ctx, f.coeffs[:, :, None], p, q)[:, :, 0]
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


def dtotal_matrix(ctx: ComplexContext, n: int) -> CooMatrix:
    """Sparse matrix of d: C^n -> C^{n+1} in the flattened ordering (cached).

    Joined from the nonzeros of the structure operators: on C^{p,q}, d is
    d_a + (-1)^p d_c, with d_a from _d_alg_entries and d_c the transposed d_a
    of the dual context on C^{q,p}, with sign (-1)^{q+1}.
    """
    return ctx.memo(("dmat", n), lambda: _assemble(ctx, n))


def _kron_entries(desc, sign, left: int, mat: CooMatrix, right: int):
    """The entries of sign * (I_left (x) mat (x) I_right), unsummed."""
    lead, tail = np.arange(left)[:, None, None], np.arange(right)
    rows = ((lead * mat.shape[0] + mat.rows[:, None]) * right + tail).ravel()
    cols = ((lead * mat.shape[1] + mat.cols[:, None]) * right + tail).ravel()
    signed = ra.scale_int(desc, mat.vals, sign)[:, None]
    vals = np.broadcast_to(signed, (left, mat.rows.size, right, desc.m)).reshape(-1, desc.m)
    return rows, cols, vals


def _d_alg_entries(ctx: ComplexContext, p: int, q: int):
    """The entries of d_a: C^{p,q} -> C^{p+1,q}, unsummed, as flat (out, in)
    indices of the two components, those of _d_alg_block's three products:
    the left action is mult_operator (x) I, the m_i terms I (x) the slot
    operator, and the right action puts its row (o, rest, x) where the left
    one has (o, x, rest)."""
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    rest, sign = na ** (p + 1), (-1) ** (p + 1)
    terms = [_kron_entries(desc, sign, 1, ctx.mult_operator(q + 1, "left"), rest)]
    terms.append(_kron_entries(desc, sign, nb ** (q + 1), _slot_operator(ctx, p), 1))
    rows, cols, vals = _kron_entries(desc, -1, 1, ctx.mult_operator(q + 1, "right"), rest)
    ox, r = np.divmod(rows, rest)
    terms.append((((ox // na) * rest + r) * na + ox % na, cols, vals))
    return [np.concatenate(part) for part in zip(*terms)]


def _assemble(ctx: ComplexContext, n: int) -> CooMatrix:
    desc = ctx.ring
    na, nb = ctx.A.dim, ctx.B.dim
    row_offset, rows_total = {}, 0
    for p, q, size in space_dims(ctx, n + 1):
        row_offset[(p, q)] = rows_total
        rows_total += size
    rows, cols, vals = [], [], []
    col0 = 0
    for p, q, size in space_dims(ctx, n):
        r, c, v = _d_alg_entries(ctx, p, q)
        rows.append(row_offset[(p + 1, q)] + r)
        cols.append(col0 + c)
        vals.append(v)
        # the dual context's flat index (a, y) of C^{q,p} is (y, a) here
        r, c, v = _d_alg_entries(ctx.dual(), q, p)
        a, y = np.divmod(r, nb ** (q + 2))
        rows.append(row_offset[(p, q + 1)] + y * na ** (p + 1) + a)
        a, x = np.divmod(c, nb ** (q + 1))
        cols.append(col0 + x * na ** (p + 1) + a)
        vals.append(ra.scale_int(desc, v, (-1) ** (p + q + 1)))
        col0 += size
    shape = (rows_total, col0)
    return CooMatrix.from_entries(desc, shape, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def _solver_for(ctx: ComplexContext, n: int) -> FieldSolver:
    return ctx.memo(("d", n), lambda: FieldSolver(ctx.ring, dtotal_matrix(ctx, n)))


def solve_coboundary(z: TotalCochain) -> TotalCochain | None:
    """Find x of degree n-1 with d_total(x) = z exactly (None if inconsistent).

    The solution is the canonical one (free variables zero) of the flattened
    linear system, so outputs are deterministic.  A solution certifies
    z = d(x), hence d z = 0, so closedness is tested only after a failed
    solve: a z that is not closed raises NotACocycle.
    """
    ctx, n = z.context, z.degree
    if n < 1:
        raise ArityMismatch("coboundary solving needs degree >= 1")
    if max(ctx.A.dim, ctx.B.dim) > coboundary_budget():
        raise BudgetExceeded(f"dims exceed coboundary budget {coboundary_budget()}")
    x = _solver_for(ctx, n - 1).solve(vec_cochain(z))
    if x is None:
        if not is_cocycle(z):
            raise NotACocycle("input cochain is not closed")
        return None
    return unvec_cochain(ctx, n - 1, x)


def cohomology_dim(ctx: ComplexContext, n: int) -> int:
    """dim H^n for n = 0..2, exactly: on the reduced complex when A is semisimple, else on
    that of the dual context (B*, A*, phi*), same H^n, when B is cosemisimple, else on the bicomplex."""
    if n < 0 or n > 2:
        raise BudgetExceeded("only degrees 0..2 are supported")
    limit = h2_budget() if n == 2 else coboundary_budget()
    if max(ctx.A.dim, ctx.B.dim) > limit:
        raise BudgetExceeded(f"dims exceed budget {limit} for degree {n}")
    reduced = ctx
    if _separability_idempotent(reduced) is None:
        reduced = ctx.dual()  # B is cosemisimple when B* has the idempotent
    if _separability_idempotent(reduced) is not None:
        return _reduced_dim(reduced, n)
    return _bicomplex_dim(ctx, n)


def _bicomplex_dim(ctx: ComplexContext, n: int) -> int:
    """dim H^n = dim ker(d_n) - rank(d_{n-1}) on the total complex."""
    dim_cn = sum(size for _, _, size in space_dims(ctx, n))
    mat_n = dtotal_matrix(ctx, n)
    rank_n = FieldSolver(ctx.ring, mat_n, rank_only=True).rank
    kernel_dim = dim_cn - rank_n
    if n == 0:
        return kernel_dim
    rank_prev = _solver_for(ctx, n - 1).rank
    return kernel_dim - rank_prev


# ---------------------------------------------------------------------------
# coboundaries of degrees 1 and 2 by contraction (the lifting path)
#
# A normalized left integral L of A gives the separability idempotent
# e = sum L_(1) (x) S(L_(2)), and (s f)(a_1, ...) = sum e1 . f(e2, a_1, ...)
# contracts the Hochschild rows: d_a s + s d_a = +-id on C^{p,q} for p >= 1.
# B*'s contracts the columns through the self-duality, so a coboundary needs
# no solve beyond, in degree 2, the projection along im d_0.


@dataclass
class _Contraction:
    """The degree-2 projection of _contract_obstruction along im d_0 (built once per context, held in its memo)."""

    d0_rev: FieldSolver  # d_0 with its rows reversed, factored once
    free: np.ndarray  # free columns of d_1: the greedy row basis of d_0 from its last row up
    rank: int  # rank of d_1, which is dim C^1 - rank d_0 since H^1 = 0


def _separability_idempotent(ctx: ComplexContext):
    """hc.separability_idempotent of the context's A, once per context."""
    return ctx.memo("idempotent", lambda: hc.separability_idempotent(ctx.A))


def _require_idempotents(ctx: ComplexContext) -> None:
    """Refuse, naming the side, a context that lacks A's idempotent or B*'s:
    the two contractions of Thm 1.2."""
    if _separability_idempotent(ctx) is None:
        raise NotSemisimpleOrCosemisimple("A is not semisimple: eps vanishes on the left integrals of A")
    if _separability_idempotent(ctx.dual()) is None:
        raise NotSemisimpleOrCosemisimple("B is not cosemisimple: eps vanishes on the left integrals of B*")


def _ad_matrix(ctx: ComplexContext, k: int) -> CooMatrix:
    """m |-> ad(m) = a.m - m.a from B^{tensor k} to C^{0,k-1}: the (nb^k * na, nb^k)
    matrix of the two multiplication operators, once per context."""

    def build():
        desc = ctx.ring
        left, right = ctx.mult_operator(k, "left"), ctx.mult_operator(k, "right")
        rows, cols = np.concatenate([left.rows, right.rows]), np.concatenate([left.cols, right.cols])
        vals = np.concatenate([left.vals, ra.neg(desc, right.vals)])
        return CooMatrix.from_entries(desc, left.shape, rows, cols, vals)

    return ctx.memo(("ad_matrix", k), build)


def _dc_ad_matrix(ctx: ComplexContext, k: int) -> CooMatrix:
    """m |-> d_c(ad(m)) from B^{tensor k} to C^{0,k}, as ad_{k+1} o d^_k.

    The coaction terms of d_c(ad m) are ad(1 (x) m) and ad(m (x) 1), and each
    interior term is ad(Delta_i m), since Delta_B is an algebra map and phi a
    coalgebra map; the signs are those of d^ (_hat_differential_matrix)."""
    return _ad_matrix(ctx, k + 1).matmul(ctx.ring, _hat_differential_matrix(ctx, k - 1))


def _ad_solver(ctx: ComplexContext, k: int) -> FieldSolver:
    """FieldSolver of ad_k, once per context; its kernel is (B^{tensor k})^A."""
    return ctx.memo(("ad", k), lambda: FieldSolver(ctx.ring, _ad_matrix(ctx, k)))


def _dc_ad_solver(ctx: ComplexContext, k: int) -> FieldSolver:
    """FieldSolver of m |-> d_c(ad(m)) on B^{tensor k}, once per context."""
    return ctx.memo(("dc_ad", k), lambda: FieldSolver(ctx.ring, _dc_ad_matrix(ctx, k)))


def _reduced_dim(ctx: ComplexContext, n: int) -> int:
    """dim H^n of X_q = ad(B^{tensor q+1}) under d_c, that of the bicomplex for a semisimple A:
    rank(ad_{n+1}) - rank(d_c ad_{n+1}) - rank(d_c ad_n), the last term absent for n = 0."""
    closed = _ad_solver(ctx, n + 1).rank - _dc_ad_solver(ctx, n + 1).rank
    return closed - _dc_ad_solver(ctx, n).rank if n else closed


def _contraction(ctx: ComplexContext) -> _Contraction:
    """Build (once per context) the degree-2 projection of _contract_obstruction:
    one FieldSolver of d_0 with its rows reversed, whose pivot rows, read from
    the bottom of d_0, are the free columns of d_1.

    The free columns of d_1 rest on H^1 = 0, which is Thm 1.2 with both
    idempotents certified (_require_idempotents).
    """

    def build():
        _require_idempotents(ctx)
        # the free columns of d_1 are the last nonzero positions of an echelon
        # basis of ker d_1 = im d_0: the greedy row basis of d_0 from the bottom.
        # d_0 is assembled, not memoized: only its reversed copy is kept
        d0 = _assemble(ctx, 0)
        R = d0.shape[0]
        order = np.lexsort((d0.cols, R - 1 - d0.rows))
        d0_rev = FieldSolver(ctx.ring, CooMatrix(d0.shape, R - 1 - d0.rows[order], d0.cols[order], d0.vals[order]))
        free = np.unique(R - 1 - d0_rev.pivot_rows // ctx.ring.m)
        return _Contraction(d0_rev, free, R - free.size)

    return ctx.memo("contraction", build)


def _homotopy(ctx: ComplexContext, q: int, block):
    """s: C^{p+1,q} -> C^{p,q} of ctx, (s f)(a_1, ...) = sum e1 . f(e2, a_1, ...), on a
    block (nb^{q+1}, na^{p+2}, m), by the [out, (in, b)] matrix of sum_u e[u, b] * (left action of
    e_u on B^{tensor q+1}), joined from nonzeros once per context (A's or the dual's)."""
    desc, na = ctx.ring, ctx.A.dim

    def build():
        nz_e = ra.nonzeros(_separability_idempotent(ctx), [0])  # key u, free b
        left = ctx.mult_operator(q + 1, "left")  # [(out, u), in]
        width = left.shape[1] * na
        nz_left = (left.rows % na, left.rows // na * left.shape[1] + left.cols, left.vals)
        cells, vals = ra.join(desc, nz_left, nz_e, na, na)  # (out, in, b), ascending
        return CooMatrix((left.shape[1], width), cells // width, cells % width, vals)

    return ctx.memo(("homotopy", q), build).dot(desc, block.reshape(block.shape[0] * na, -1, desc.m))


def _contract_obstruction(z: TotalCochain) -> TotalCochain:
    """The canonical x with d_total(x) = z for a cocycle z of degree 1 or 2, unchecked.

    solve_coboundary(z), free variables zero, by the two contractions of
    Thm 1.2 instead of a factorization of d_{n-1}.  For p >= 1, d x = z reads
    c_{p,q} = d_a x_{p-1,q} + (-1)^p d_c x_{p,q-1}, so A's homotopy s meets
    the columns p = n..1 with y_{p-1,q} = (-1)^p x_{p-1,q} = s(c_{p,q} + d_c y_{p,q-1}).
    The column homotopy (t f) = s_{B*}(f^T)^T, the dual context's s on the
    transposed cochain, has d_c t + t d_c = id on C^{p,q} for q >= 1 and
    t d_a = d_a t.  The residual r = c_{0,n} - d_c x' of the last column is
    d_c-closed and d_a-closed (d_a c_{0,n} = d_c c_{1,n-1} = d_c d_a x'), so
    x_{0,n-1} = x' + t(r) has d_c x = d_c x' + r - t d_c r = c_{0,n} and
    d_a x = d_a x'.  In degree 1, H^0 = 0 makes this x the only solution; in
    degree 2 it loses its component in im d_0 = ker d_1 along the free
    columns of d_1: x - d_0 w, where w meets x on those rows of d_0, the
    pivot rows of its reversed factorization (pivot_solve; every column of
    d_0 is a pivot, as H^0 = 0).  For a z that is not a cocycle the result
    is meaningless: lifting.lift certifies it by the axioms of its final
    presentation, lifting._lift_map by the next level's divisibility and
    morphism_failures.
    """
    ctx, n = z.context, z.degree
    if n not in (1, 2):
        raise ArityMismatch("the contraction solves degrees 1 and 2")
    if max(ctx.A.dim, ctx.B.dim) > coboundary_budget():
        raise BudgetExceeded(f"dims exceed coboundary budget {coboundary_budget()}")
    desc, na, nb = ctx.ring, ctx.A.dim, ctx.B.dim
    _require_idempotents(ctx)
    c, x, y = z.components, {}, None
    for p in range(n, 0, -1):  # y holds c_{p,q} + d_c y_{p,q-1}, freed once s has read it
        y = c[(p, n - p)] if y is None else c[(p, n - p)] + d_coalg(ctx, y)
        y = MultiMap(desc, p, n - p + 1, na, nb, _homotopy(ctx, n - p, y.coeffs))
        x[(p - 1, n - p)] = -y if p % 2 else y
    resid = c[(0, n)] + d_coalg(ctx, y)  # r = c_{0,n} - d_c x', x' = -y
    t_resid = _homotopy(ctx.dual(), 0, np.swapaxes(resid.coeffs, 0, 1))  # t(r)^T: (na, nb^n, m)
    x[(0, n - 1)] += MultiMap(desc, 1, n, na, nb, np.swapaxes(t_resid, 0, 1))
    if n == 1:
        return TotalCochain(ctx, 0, x)
    d0_rev = _contraction(ctx).d0_rev
    vec = vec_cochain(TotalCochain(ctx, 1, x))[::-1]  # in d0_rev's row order
    w = d0_rev.pivot_solve(vec)
    return unvec_cochain(ctx, 1, ra.sub(desc, vec, d0_rev.M.dot(desc, w))[::-1])


# ---------------------------------------------------------------------------
# the invariants subcomplex D^*(B)^A


def _hat_differential_matrix(ctx: ComplexContext, q: int) -> CooMatrix:
    """d: B^{tensor q+1} -> B^{tensor q+2} of the augmented coalgebra complex:
    1 (x) b, then Delta on leg i with sign (-1)^i, then b (x) 1 with sign (-1)^{q+2}."""
    desc = ctx.ring
    nb, k = ctx.B.dim, q + 1
    unit = CooMatrix.from_dense(ctx.B.unit.coeffs.reshape(nb, 1, desc.m))
    comul = CooMatrix.from_dense(ctx.B.comul.coeffs.reshape(nb * nb, nb, desc.m))
    terms = [(1, 1, unit, nb**k)]
    terms += [((-1) ** i, nb ** (i - 1), comul, nb ** (k - i)) for i in range(1, k + 1)]
    terms.append(((-1) ** (k + 1), nb**k, unit, 1))
    rows, cols, vals = (np.concatenate(part) for part in zip(*(_kron_entries(desc, *t) for t in terms)))
    return CooMatrix.from_entries(desc, (nb ** (k + 1), nb**k), rows, cols, vals)


def invariants_complex_dim(ctx: ComplexContext, n: int) -> int:
    """Cohomology of the A-invariants subcomplex (B^{tensor q+1})^A under the
    coalgebra differential; agrees with cohomology_dim on the tested corpus.
    (B^{tensor k})^A is the kernel of ad_k, and d must map it into ker ad_{k+1}."""
    if max(ctx.A.dim, ctx.B.dim) > 4 or n > 2 or n < 0:
        raise BudgetExceeded("invariants complex limited to dims <= 4 and n <= 2")
    desc = ctx.ring

    def restricted(qd):
        """dim (B^{tensor qd+1})^A and the rank of d on it."""
        vin = _ad_solver(ctx, qd + 1).kernel_basis()
        if not vin:
            return 0, 0
        images = _hat_differential_matrix(ctx, qd).dot(desc, np.stack(vin, axis=1))
        if np.any(_ad_matrix(ctx, qd + 2).dot(desc, images)):
            raise InternalAxiomFailure("differential does not preserve invariants")
        return len(vin), FieldSolver(desc, images, rank_only=True).rank

    dim_n, rank_n = restricted(n)
    if n == 0:
        return dim_n - rank_n
    return dim_n - rank_n - restricted(n - 1)[1]
