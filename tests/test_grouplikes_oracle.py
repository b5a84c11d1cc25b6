"""The whole-array grouplike search against the per-vector search it replaced.

oracle_grouplikes is the earlier hopfcore.grouplikes: it multiplies in the
dual algebra one pair of coefficient vectors at a time, closes the commutator
ideal vector by vector, reduces the ideal to RREF by hand and projects onto
the quotient one vector at a time.  hopfcore.grouplikes must return the same
arrays, bit for bit, in the same order.
"""

import numpy as np
import pytest

from hopflift import _arrays as ra
from hopflift import hopfcore as hc
from hopflift._linalg import FieldSolver
from hopflift.coeffring import _inv_coeffs_field, make_ring

# (generator name, p, m): the corpus of group algebras, duals and doubles
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
)


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
    for e, _ in hc._decompose_commutative(desc, basis, mult, unit_vec):
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
    want = oracle_grouplikes(H)
    _same(hc.grouplikes(H), want)
    # the earlier central_only kept the central ones of the full list
    _same(hc.grouplikes(H, central_only=True), [g for g in want if hc._is_central(H, g)])
    assert want and all(hc._is_grouplike(H, g) for g in want)
