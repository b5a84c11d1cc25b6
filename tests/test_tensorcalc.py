import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflift import _arrays as ra
from hopflift import coeffring as cr
from hopflift import hopfcore as hc
from hopflift import tensorcalc as tc
from hopflift.errors import ArityMismatch

F5 = cr.make_ring(5)
F4 = cr.make_ring(2, 1, 2)


def apply(f, vec):
    """f applied to a coefficient column of shape (dim_in^arity_in, m)."""
    return ra.tensordot(f.ring, f.coeffs, vec, ([1], [0]))


def rand_map(rng, ring, arity_in, arity_out, dim):
    coeffs = rng.integers(0, ring.q, size=(dim**arity_out, dim**arity_in, ring.m))
    return tc.MultiMap(ring, arity_in, arity_out, dim, dim, np.asarray(coeffs, dtype=np.int64))


def test_compose_examples():
    C2 = hc.generate("C2", F5)
    # Delta(g*g) = Delta(1) = 1 (x) 1
    dm = tc.compose(C2.comul, C2.mul)
    vec = np.zeros((4, 1), dtype=np.int64)
    vec[3] = 1  # g (x) g
    out = apply(dm, np.asarray(vec)[..., None][:, 0, :])
    assert out.reshape(-1).tolist() == [1, 0, 0, 0]
    # identity composition
    ident = tc.identity_map(F5, 2)
    assert tc.compose(ident, C2.antipode) == C2.antipode
    # eps o unit = scalar 1
    scalar = tc.compose(C2.counit, C2.unit)
    assert scalar.arity_in == 0 and scalar.arity_out == 0
    assert scalar.coeffs.reshape(-1).tolist() == [1]


def test_compose_arity_mismatch():
    C2 = hc.generate("C2", F5)
    with pytest.raises(ArityMismatch):
        tc.compose(C2.mul, C2.mul)


def test_tensor_examples():
    C2 = hc.generate("C2", F5)
    ident = tc.identity_map(F5, 2)
    assert tc.tensor(ident, ident) == tc.identity_map(F5, 2, arity=2)
    # counit axiom probe: (eps (x) I) o Delta = I
    probe = tc.compose(tc.tensor(C2.counit, ident), C2.comul)
    assert probe == ident
    # (S (x) S)(g (x) g) = g (x) g
    ss = tc.tensor(C2.antipode, C2.antipode)
    vec = np.zeros((4, 1, 1), dtype=np.int64)
    vec[3] = 1
    assert np.array_equal(apply(ss, vec[:, 0, :]), vec[:, 0, :])


def test_permute_examples():
    sw = tc.permute(F5, 2, (2, 1))
    v = np.zeros((4, 1), dtype=np.int64)
    v[0 * 2 + 1] = 1  # e0 (x) e1
    out = apply(sw, np.asarray(v)[..., None][:, 0, :])
    assert out.reshape(-1).tolist() == [0, 0, 1, 0]  # e1 (x) e0
    assert tc.permute(F5, 3, (1, 2, 3)) == tc.identity_map(F5, 3, arity=3)
    assert tc.compose(sw, sw) == tc.identity_map(F5, 2, arity=2)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_permute_composition_law(data):
    import itertools

    n = data.draw(st.integers(2, 4))
    dim = data.draw(st.integers(2, 3))
    perms = list(itertools.permutations(range(1, n + 1)))
    sigma = data.draw(st.sampled_from(perms))
    tau = data.draw(st.sampled_from(perms))
    comp = tuple(sigma[tau[t] - 1] for t in range(n))  # (sigma o tau)(t)
    lhs = tc.compose(tc.permute(F5, dim, sigma), tc.permute(F5, dim, tau))
    assert lhs == tc.permute(F5, dim, comp)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_compose_associative_and_identity(data):
    ring = data.draw(st.sampled_from([F5, F4]))
    dim = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    f = rand_map(rng, ring, 1, 1, dim)
    g = rand_map(rng, ring, 2, 1, dim)
    h = rand_map(rng, ring, 1, 2, dim)
    assert tc.compose(tc.compose(f, g), tc.tensor(f, f)) == tc.compose(f, tc.compose(g, tc.tensor(f, f)))
    ident = tc.identity_map(ring, dim)
    assert tc.compose(ident, f) == f
    assert tc.compose(f, ident) == f
    assert tc.compose(h, tc.compose(f, ident)) == tc.compose(h, f)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_tensor_mixed_product_law(data):
    ring = data.draw(st.sampled_from([F5, F4]))
    dim = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    f = rand_map(rng, ring, 1, 1, dim)
    g = rand_map(rng, ring, 1, 1, dim)
    f2 = rand_map(rng, ring, 1, 1, dim)
    g2 = rand_map(rng, ring, 1, 1, dim)
    lhs = tc.compose(tc.tensor(f, g), tc.tensor(f2, g2))
    rhs = tc.tensor(tc.compose(f, f2), tc.compose(g, g2))
    assert lhs == rhs
    # associativity of tensor under the flat index convention
    h = rand_map(rng, ring, 1, 1, dim)
    assert tc.tensor(tc.tensor(f, g), h) == tc.tensor(f, tc.tensor(g, h))


def test_iterate_examples():
    C2 = hc.generate("C2", F5)
    d3 = tc.iterate(C2, 3, "coproduct")
    vec = np.zeros((2, 1), dtype=np.int64)
    vec[1] = 1  # g
    out = apply(d3, np.asarray(vec)[..., None][:, 0, :])
    expect = np.zeros(8, dtype=np.int64)
    expect[7] = 1  # g (x) g (x) g
    assert out.reshape(-1).tolist() == expect.tolist()
    assert tc.iterate(C2, 1, "coproduct") == tc.identity_map(F5, 2)
    assert tc.iterate(C2, 1, "product") == tc.identity_map(F5, 2)
    m3 = tc.iterate(C2, 3, "product")
    vin = np.zeros((8, 1), dtype=np.int64)
    vin[7] = 1
    out = apply(m3, np.asarray(vin)[..., None][:, 0, :])
    assert out.reshape(-1).tolist() == [0, 1]  # g*g*g = g


def test_iterate_matches_nested_composition():
    S3 = hc.generate("S3", cr.make_ring(7))
    ident = tc.identity_map(S3.ring, S3.dim)
    d3 = tc.compose(tc.tensor(S3.comul, ident), S3.comul)
    assert d3 == tc.iterate(S3, 3, "coproduct")
    # coassociativity makes the other nesting equal on a verified presentation
    d3b = tc.compose(tc.tensor(ident, S3.comul), S3.comul)
    assert d3b == d3
    m3 = tc.compose(S3.mul, tc.tensor(S3.mul, ident))
    assert m3 == tc.iterate(S3, 3, "product")
