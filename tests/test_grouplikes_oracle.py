"""The common-eigenspace character search against the splitting it replaced.

oracle_grouplikes is the earlier hopfcore.grouplikes: it multiplies in the
dual algebra one pair of coefficient vectors at a time, closes the commutator
ideal vector by vector, reduces the ideal to RREF by hand and projects onto
the quotient one vector at a time.  Its characters come from the earlier
hopfcore._decompose_commutative, which splits the algebra by CRT idempotents
from the factored minimal polynomials of its basis elements, with its own
polynomial arithmetic over F_q.  oracle_irreducible_dimensions is the earlier
hopfcore.irreducible_dimensions, which splits the centre the same way.

hopfcore.grouplikes must return the same arrays, bit for bit, in the same
order, and hopfcore.irreducible_dimensions the same list or the same
exception type.  The grouplike oracle is run on cosemisimple cases only: on a
local block of the abelianized dual it finds no character, where the
common-eigenspace search finds one (see test_hopfcore.TestGrouplikes).
"""

import itertools

import numpy as np
import pytest

from hopflift import _arrays as ra
from hopflift import hopfcore as hc
from hopflift._linalg import FieldSolver
from hopflift.coeffring import _inv_coeffs_field, make_ring
from hopflift.errors import HopfliftError, InternalAxiomFailure, NotSemisimple, NotSplit

# (generator name, p, m): the corpus of group algebras, duals and doubles,
# all semisimple, cosemisimple and split over F_q
CASES = (
    ("C2", 5, 1),
    ("C2.dual", 5, 1),
    ("C2xC2", 3, 1),
    ("S3", 7, 1),
    ("S3.dual", 7, 1),
    ("S3", 5, 1),
    ("D4", 3, 1),
    ("D4.dual", 5, 1),
    ("Q8", 7, 1),
    ("C4", 5, 1),
    ("C3", 2, 2),
    ("C2.double", 5, 1),
    ("C3.double", 7, 1),
    # dimension 36: about 1.8 s in all, most of it in the oracle
    ("S3.double", 7, 1),
    ("D4", 5, 2),
)


def _field_elements(desc):
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


def _dual_mult_fn(H):
    desc, N = H.ring, H.dim
    D = H.comul.coeffs.reshape(N, N, N, desc.m)

    def mult(f, g):
        t = ra.tensordot(desc, D, f, ([0], [0]))
        return ra.tensordot(desc, t, g, ([0], [0]))

    return mult


def _span_closure(desc, seed, basis_vecs, mult):
    vecs = list(seed)
    if not vecs:
        return np.zeros((0, len(basis_vecs), desc.m), dtype=np.int64)
    while True:
        mat = np.stack(vecs, axis=0)
        rank0 = FieldSolver(desc, np.swapaxes(mat, 0, 1)).rank
        new = list(vecs)
        for b in basis_vecs:
            for v in vecs:
                new.append(mult(b, v))
                new.append(mult(v, b))
        solver2 = FieldSolver(desc, np.swapaxes(np.stack(new, axis=0), 0, 1))
        if solver2.rank == rank0:
            return mat
        vecs = [new[int(c)] for c in solver2.pivot_cols]


def _quotient_projection(desc, ideal_rows, N):
    if ideal_rows.shape[0] == 0:
        return (lambda v: v.copy()), list(range(N))
    mat = ideal_rows.copy()
    used = np.zeros(mat.shape[0], dtype=bool)
    pivots = []
    for c in range(N):
        cand = [i for i in range(mat.shape[0]) if not used[i] and np.any(mat[i, c])]
        if not cand:
            continue
        r = cand[0]
        inv = _inv_coeffs_field(desc, mat[r, c])
        mat[r] = ra.elem_mul(desc, mat[r], inv[None, :])
        for i in range(mat.shape[0]):
            if i != r and np.any(mat[i, c]):
                mat[i] = ra.sub(desc, mat[i], ra.elem_mul(desc, mat[i, c][None, :], mat[r]))
        used[r] = True
        pivots.append((c, r))
    pivot_cols = [c for c, _ in pivots]
    free = [c for c in range(N) if c not in pivot_cols]
    rref = np.stack([mat[r] for _, r in pivots], axis=0)

    def proj(v):
        out = v.copy()
        for t, (c, _) in enumerate(pivots):
            coef = out[c].copy()
            if np.any(coef):
                out = ra.sub(desc, out, ra.elem_mul(desc, coef[None, :], rref[t]))
        return out[free]

    return proj, free


def _quotient_lift(desc, coords, free, N):
    """The representative with coordinates coords on the free positions (the
    earlier code summed coords[t] * e_free[t] term by term)."""
    out = ra.zeros(desc, (N,))
    out[free] = coords
    return out


def _chi_eval(desc, vec, lam):
    acc = np.zeros(desc.m, dtype=np.int64)
    for t in range(len(lam)):
        acc = (acc + ra.elem_mul(desc, vec[t], lam[t])) % desc.q
    return acc


def _characters(desc, basis, mult, unit_vec):
    if not basis:
        return []
    chars = []
    for e, _ in _decompose_commutative(desc, basis, mult, unit_vec):
        support = np.flatnonzero(np.any(e != 0, axis=-1))
        if support.size == 0:
            continue
        lam = []
        for b in basis:
            eb = mult(e, b)
            c = int(support[0])
            val = ra.elem_mul(desc, eb[c], _inv_coeffs_field(desc, e[c]))
            if np.any(ra.sub(desc, eb, ra.elem_mul(desc, val[None, :], e))):
                break
            lam.append(val)
        else:
            if np.any(ra.sub(desc, _chi_eval(desc, unit_vec, lam), ra.one_scalar(desc))):
                continue
            if all(
                not np.any(ra.sub(desc, _chi_eval(desc, mult(bi, bj), lam), ra.elem_mul(desc, lam[i], lam[j])))
                for i, bi in enumerate(basis)
                for j, bj in enumerate(basis)
            ):
                chars.append(lam)
    return chars


def oracle_grouplikes(H):
    """Every grouplike of H, sorted, one vector operation at a time."""
    desc, N = H.ring, H.dim
    mult = _dual_mult_fn(H)
    basis_vecs = [ra.eye(desc, N)[i] for i in range(N)]
    unit_dual = H.counit.coeffs.reshape(N, desc.m).copy()
    comms = []
    for i in range(N):
        for j in range(i + 1, N):
            c = ra.sub(desc, mult(basis_vecs[i], basis_vecs[j]), mult(basis_vecs[j], basis_vecs[i]))
            if np.any(c):
                comms.append(c)
    proj, free_coords = _quotient_projection(desc, _span_closure(desc, comms, basis_vecs, mult), N)
    qdim = len(free_coords)

    def qmult(x, y):
        return proj(mult(_quotient_lift(desc, x, free_coords, N), _quotient_lift(desc, y, free_coords, N)))

    q_basis = [ra.eye(desc, qdim)[i] for i in range(qdim)]
    out = []
    for lam in _characters(desc, q_basis, qmult, proj(unit_dual)):
        g = ra.zeros(desc, (N,))
        for i in range(N):
            g[i] = _chi_eval(desc, proj(basis_vecs[i]), lam)
        if hc._is_grouplike(H, g):
            out.append(g)
    out.sort(key=lambda g: tuple(int(v) for v in g.reshape(-1)))
    return out


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("name,p,m", CASES, ids=[f"{n}/F{p**m}" for n, p, m in CASES])
def test_matches_oracle(name, p, m):
    H = hc.generate(name, make_ring(p, 1, m))
    assert hc.is_cosemisimple(H)
    want = oracle_grouplikes(H)
    _same(hc.grouplikes(H), want)
    # the earlier central_only kept the central ones of the full list
    _same(hc.grouplikes(H, central_only=True), [g for g in want if hc._is_central(H, g)])
    assert want and all(hc._is_grouplike(H, g) for g in want)


def _ambient_mult_fn(H):
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)

    def mult(x, y):
        t = ra.tensordot(desc, M, x, ([1], [0]))  # [a,y]
        return ra.tensordot(desc, t, y, ([1], [0]))

    return mult


def _center_basis(H):
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)
    rows = ra.zeros(desc, (N * N, N))
    for j in range(N):
        rows[j * N : (j + 1) * N] = ra.sub(desc, M[:, :, j, :], M[:, j, :, :])
    return FieldSolver(desc, rows).kernel_basis()


def oracle_irreducible_dimensions(H):
    """Wedderburn block sizes from the primitive idempotents of the centre."""
    if not hc.is_semisimple(H):
        raise NotSemisimple("presentation is not semisimple")
    desc, N = H.ring, H.dim
    unit = H.unit.coeffs.reshape(N, desc.m).copy()
    dims = []
    total = 0
    for e, center_block_dim in _decompose_commutative(desc, _center_basis(H), _ambient_mult_fn(H), unit):
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


# semisimple, with a centre that does not split over F_q; then not semisimple
NOT_SPLIT = (("C3", 5, 1), ("C3", 2, 1), ("C4", 3, 1), ("C3.double", 2, 1))
WEDDERBURN_CASES = CASES + NOT_SPLIT + (("C3", 3, 1),)


def _outcome(fn, H):
    try:
        return fn(H)
    except HopfliftError as exc:
        return type(exc)


@pytest.mark.parametrize("name,p,m", WEDDERBURN_CASES, ids=[f"{n}/F{p**m}" for n, p, m in WEDDERBURN_CASES])
def test_irreducible_dimensions_match_oracle(name, p, m):
    H = hc.generate(name, make_ring(p, 1, m))
    want = _outcome(oracle_irreducible_dimensions, H)
    got = _outcome(hc.irreducible_dimensions, H)
    assert got == want
    if (name, p, m) in NOT_SPLIT:
        assert want is NotSplit
    elif (name, p, m) in CASES:
        assert sum(n * n for n in want) == H.dim
    else:
        assert want is NotSemisimple
