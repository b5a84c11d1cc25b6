"""Lifts do not depend on the basis or on the field of definition.

transport(H, P) conjugates every structure tensor by a change of basis P,
which makes them dense, so canonical lifts of a transported base meet nonzero
obstructions.  embed places a presentation over F_p or Z/p^n at coefficient 0
of F_{p^2} or GR(p^n, 2), which moves every product onto the m > 1 paths.
"""

import numpy as np
import pytest

from hopflift import _arrays as ra
from hopflift import cohomology as coh
from hopflift import coeffring as cr
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import tensorcalc as tc
from hopflift._linalg import FieldSolver


def basis_change(N, p, seed):
    """A seeded integer (N, N) matrix invertible mod p."""
    rng = np.random.default_rng(seed)
    while True:
        P = rng.integers(0, p, size=(N, N))
        if FieldSolver(cr.make_ring(p), P[..., None]).rank == N:
            return P


def transport(H, P):
    """H in the basis of P's columns, P an integer matrix read over H.ring:
    m' = P^-1 m (P (x) P), Delta' = (P^-1 (x) P^-1) Delta P, u' = P^-1 u,
    eps' = eps P, S' = P^-1 S P; certified by make_presentation."""
    desc, N = H.ring, H.dim
    Pm = ra.zeros(desc, (N, N))
    Pm[..., 0] = P % desc.q
    Pi = cr.matrix_inverse(desc, Pm)
    one = ra.eye(desc, 1)

    def conj(t, left, right):
        coeffs = ra.tensordot(desc, ra.tensordot(desc, left, t.coeffs, ([1], [0])), right, ([1], [0]))
        return tc.MultiMap(desc, t.arity_in, t.arity_out, N, N, coeffs)

    return hc.make_presentation(
        desc, conj(H.mul, Pi, ra.kron2(desc, Pm, Pm)), conj(H.unit, Pi, one), conj(H.comul, ra.kron2(desc, Pi, Pi), Pm),
        conj(H.counit, one, Pm), conj(H.antipode, Pi, Pm),
    )


def embed(H, ring):
    """H over ring, an extension of H.ring, each coefficient at coefficient 0."""

    def up(t):
        coeffs = np.zeros(t.coeffs.shape[:-1] + (ring.m,), dtype=np.int64)
        coeffs[..., 0] = t.coeffs[..., 0]
        return tc.MultiMap(ring, t.arity_in, t.arity_out, t.dim_in, t.dim_out, coeffs)

    return hc.HopfPresentation(ring, H.dim, *(up(t) for t in H.tensors()))


@pytest.mark.parametrize("name, p", [("S3", 7), ("D4", 3), ("Q8", 3)])
def test_extension_of_scalars_commutes_with_lift(name, p):
    # the GR(p^3, 2) canonical lift of the embedded base is the embedded Z/p^3 lift
    base = hc.generate(name, cr.make_ring(p))
    H = transport(base, basis_change(base.dim, p, 5))
    coh._CACHE.clear()
    st = lf.lift(H, 3)
    assert all(rec["obstruction_support"] > 0 for rec in st.transcript)
    ext = cr.make_ring(p, 1, 2)
    got = lf.lift(embed(H, ext), 3).current
    want = embed(st.current, ext.at_precision(3))
    assert got.ring == want.ring and got.tensors() == want.tensors()
    coh._CACHE.clear()


@pytest.mark.parametrize("strategy", ["canonical", "perturbed:1"])
@pytest.mark.parametrize("name, p", [("S3", 7), ("D4", 3), ("Q8", 7), ("C2xC2", 5)])
def test_reconcile_across_a_change_of_basis(name, p, strategy):
    # the lift of the transported base and the transported lift are isomorphic
    # by a map that is the identity mod p
    H = hc.generate(name, cr.make_ring(p))
    P = basis_change(H.dim, p, 5)
    coh._CACHE.clear()
    s1 = lf.lift(transport(H, P), 3, strategy)
    s2 = lf.LiftState(s1.base, 3, transport(lf.lift(H, 3, strategy).current, P))
    eta = lf.reconcile(s1, s2)
    assert np.array_equal(eta.coeffs[..., 0] % p, np.eye(H.dim, dtype=np.int64))
    coh._CACHE.clear()
