"""The nonzeros-only contraction against the dense one, and the checks built on it.

_arrays.tensordot joins sparse operands on their nonzeros when the dense work
is large; its BLAS path is the oracle and must agree bit for bit.  verify_qt
certifies invertibility by (S (x) id)(R) R = 1 (x) 1 and ranks the left
multiplication matrix of R only when that fails; the rank is the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopflift import _arrays as ra
from hopflift import coeffring as cr
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import tensorcalc as tc
from hopflift._linalg import FieldSolver

RINGS = {
    "F7": cr.make_ring(7),
    "F4": cr.make_ring(2, 1, 2),
    "F9": cr.make_ring(3, 1, 2),
    "Z/25": cr.make_ring(5, 2),
    "GR(7^12,2)": cr.make_ring(7, 12, 2),
    "Z/2^62": cr.make_ring(2, 62),
    "Z/7^22": cr.make_ring(7, 22),  # 3.9e18: unlike 2^62, int64 wrap-around would show
}


def dense(desc, a, b, axes):
    """tensordot on its BLAS path, whatever the operands' size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ra, "_JOIN_MIN_MADDS", 1 << 62)
        return ra.tensordot(desc, a, b, axes)


def paths(desc, a, b, axes):
    """The dense and the joined contraction of a and b."""
    axa = [ax % (a.ndim - 1) for ax in axes[0]]
    axb = [ax % (b.ndim - 1) for ax in axes[1]]
    k = int(np.prod([a.shape[ax] for ax in axa]))
    return dense(desc, a, b, axes), ra._join(desc, a, b, axa, axb, k)


def random_tensor(rng, desc, shape, density):
    vals = rng.integers(0, desc.q, size=tuple(shape) + (desc.m,), dtype=np.int64)
    return vals * (rng.random(tuple(shape) + (1,)) < density)


@st.composite
def contractions(draw):
    """Two operands sharing 0-2 contracted axes, with 0-2 free axes each."""
    k = draw(st.integers(0, 2))
    shared = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    free_a = draw(st.lists(st.integers(1, 4), min_size=0 if k else 1, max_size=2))
    free_b = draw(st.lists(st.integers(1, 4), min_size=0 if k else 1, max_size=2))
    # contracted axes of a at the front or the back, of b in a drawn order
    a_first = draw(st.booleans())
    shape_a = shared + free_a if a_first else free_a + shared
    axa = list(range(k)) if a_first else list(range(len(free_a), len(free_a) + k))
    order = draw(st.permutations(range(k)))
    shape_b = free_b + [shared[i] for i in order]
    axb = [len(free_b) + order.index(i) for i in range(k)]
    if draw(st.booleans()) and k:
        axb = [ax - len(shape_b) for ax in axb]  # negative logical axes
    return shape_a, shape_b, (axa, axb)


@settings(max_examples=120, deadline=None)
@given(
    ring=st.sampled_from(sorted(RINGS)),
    spec=contractions(),
    density_a=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    density_b=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_join_matches_dense(ring, spec, density_a, density_b, seed):
    desc = RINGS[ring]
    shape_a, shape_b, axes = spec
    rng = np.random.default_rng(seed)
    a = random_tensor(rng, desc, shape_a, density_a)
    b = random_tensor(rng, desc, shape_b, density_b)
    dense, joined = paths(desc, a, b, axes)
    assert joined.dtype == np.int64 and joined.flags.c_contiguous
    assert joined.shape == dense.shape
    assert np.array_equal(joined, dense)


@pytest.mark.parametrize("ring", ["Z/7^22", "Z/2^62", "GR(7^12,2)"])
def test_join_sums_at_the_largest_residues(ring):
    """a is q - 1 everywhere and b is 1: each cell sums four products q - 1,
    which overflows int64 near q = 2^62 unless summed as Python ints."""
    desc = RINGS[ring]
    a = np.full((3, 4, desc.m), desc.q - 1, dtype=np.int64)
    b = np.zeros((4, 2, desc.m), dtype=np.int64)
    b[..., 0] = 1
    dense, joined = paths(desc, a, b, ([1], [0]))
    assert np.array_equal(joined, dense)


def test_outer_product_and_dispatch(monkeypatch):
    """axes ([], []) joins too; with the thresholds at zero, tensordot itself
    dispatches to the join and returns the dense result."""
    desc = RINGS["F9"]
    rng = np.random.default_rng(3)
    a = random_tensor(rng, desc, (5, 4, 3), 0.2)
    b = random_tensor(rng, desc, (3, 6), 0.3)
    expected = [dense(desc, a, b, axes) for axes in (([], []), ([2], [0]))]
    calls = []
    join = ra._join
    monkeypatch.setattr(ra, "_JOIN_MIN_MADDS", 0)
    monkeypatch.setattr(ra, "_JOIN_PAIR_COST", 0)
    monkeypatch.setattr(ra, "_join", lambda *args: calls.append(1) or join(*args))
    for axes, want in zip((([], []), ([2], [0])), expected):
        assert np.array_equal(ra.tensordot(desc, a, b, axes), want)
    assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(0, 4), min_size=0, max_size=4),
    m=st.integers(1, 2),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nonzero_coords_matches_argwhere(shape, m, density, seed):
    arr = (np.random.default_rng(seed).random(tuple(shape) + (m,)) < density).astype(np.int64)
    got = ra.nonzero_coords(arr)
    want = np.argwhere(np.any(arr != 0, axis=-1))
    assert got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# verify_hopf on dim-36 presentations


F7 = RINGS["F7"]
S3 = hc.generate("S3", F7)
DS3, DS3_R = hc.drinfeld_double(S3)


def _with_changed(H, name, index):
    """H with the coefficient at index of one structure tensor raised by 1."""
    tensors = dict(zip(("mul", "unit", "comul", "counit", "antipode"), H.tensors()))
    coeffs = tensors[name].coeffs.copy()
    coeffs[index] = (coeffs[index] + 1) % H.ring.q
    tensors[name] = tc.MultiMap(H.ring, tensors[name].arity_in, tensors[name].arity_out, H.dim, H.dim, coeffs)
    return hc.HopfPresentation(H.ring, H.dim, *tensors.values())


@pytest.mark.parametrize(
    "name,index",
    [("mul", (5, 40, 0)), ("comul", (700, 3, 0)), ("antipode", (2, 9, 0)), ("unit", (0, 0, 0))],
)
def test_verify_hopf_join_matches_dense(monkeypatch, name, index):
    broken = _with_changed(DS3, name, index)
    calls = []
    join = ra._join
    monkeypatch.setattr(ra, "_join", lambda *args: calls.append(1) or join(*args))
    report = hc.verify_hopf(broken)
    assert calls, "the dim-36 residuals should take the join"
    assert not report.all_pass
    monkeypatch.setattr(ra, "_JOIN_MIN_MADDS", 1 << 62)  # every contraction on BLAS
    assert report == hc.verify_hopf(broken)


# ---------------------------------------------------------------------------
# verify_qt: the certificate and the rank oracle


def _invertible_by_rank(H, R):
    """The oracle: the left multiplication matrix of R has full rank mod p."""
    desc, N = H.ring, H.dim
    M = H.mul.coeffs.reshape(N, N, N, desc.m)
    r2 = R.coeffs.reshape(N, N, desc.m)
    lr1 = dense(desc, M, r2, ([1], [0]))
    lmat = ra.transpose(dense(desc, lr1, M, ([2], [1])), (0, 2, 1, 3)).reshape(N * N, N * N, desc.m)
    residue = desc if desc.is_field else desc.residue()
    return FieldSolver(residue, lmat % desc.p, rank_only=True).rank == N * N


def _rmatrix(desc, dim, entries):
    arr = np.array(entries, dtype=np.int64).reshape(dim * dim, 1, 1) % desc.q
    return tc.MultiMap(desc, 0, 2, dim, dim, arr)


def _qt_with_rank_spy(monkeypatch, H, R):
    ranked = []
    real = hc.FieldSolver
    monkeypatch.setattr(hc, "FieldSolver", lambda *a, **k: ranked.append(1) or real(*a, **k))
    return hc.verify_qt(H, R), bool(ranked)


F5 = cr.make_ring(5)
Z625 = cr.make_ring(5, 4)
C2 = hc.generate("C2", F5)
C2_625 = hc.generate("C2", Z625)


def test_qt_certificate_skips_rank_on_the_canonical_double(monkeypatch):
    rmat, ranked = _qt_with_rank_spy(monkeypatch, DS3, DS3_R.R)
    assert rmat.quasitriangular and not rmat.failures and not ranked
    assert _invertible_by_rank(DS3, DS3_R.R)


def test_qt_invertible_r_failing_hexagons(monkeypatch):
    # R = 2 (1 (x) 1): invertible, but (Delta (x) id)(R) = 2 != 4 = R13 R23
    R = _rmatrix(F5, 2, [2, 0, 0, 0])
    rmat, ranked = _qt_with_rank_spy(monkeypatch, C2, R)
    assert ranked, "(S (x) id)(R) R = 4 (1 (x) 1): the certificate fails and the rank decides"
    assert rmat.failures == ["hexagon1", "hexagon2"]
    assert _invertible_by_rank(C2, R)


def test_qt_singular_r(monkeypatch):
    # R = (1 + g) (x) 1 is a zero divisor: (1 + g)(1 - g) = 0
    R = _rmatrix(F5, 2, [1, 0, 1, 0])
    rmat, ranked = _qt_with_rank_spy(monkeypatch, C2, R)
    assert ranked and "invertibility" in rmat.failures and not rmat.quasitriangular
    assert not _invertible_by_rank(C2, R)


@pytest.mark.parametrize(
    "entries,quasitriangular",
    [
        # R = (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g) / 2 over Z/625, 1/2 = 313
        ([313, 313, 313, -313], True),
        ([1, 0, 1, 0], False),  # singular mod 5
        ([2, 0, 0, 0], False),  # invertible, hexagons fail
    ],
)
def test_qt_over_galois_ring(monkeypatch, entries, quasitriangular):
    R = _rmatrix(Z625, 2, entries)
    rmat, ranked = _qt_with_rank_spy(monkeypatch, C2_625, R)
    assert rmat.quasitriangular == quasitriangular
    assert ("invertibility" in rmat.failures) == (not _invertible_by_rank(C2_625, R))
    assert ranked == (not quasitriangular)
    if quasitriangular:
        assert rmat.triangular


def test_qt_canonical_double_over_galois_ring():
    double, rmat = hc.drinfeld_double(hc.generate("C2", Z625))
    assert rmat.quasitriangular and _invertible_by_rank(double, rmat.R)


# ---------------------------------------------------------------------------
# small contractions stay on BLAS


def test_warm_small_lift_never_joins(monkeypatch):
    D4 = hc.generate("D4", cr.make_ring(3))
    lf.lift(D4, 4, "perturbed:5")  # warm the context cache
    calls = []
    monkeypatch.setattr(ra, "_join", lambda *args: calls.append(args) or pytest.fail("join on a dim-8 lift"))
    a = lf.lift(D4, 4, "perturbed:5")
    b = lf.lift(D4, 4, "canonical")
    assert hc.verify_hopf(a.current).all_pass
    lf.reconcile(a, b)
    assert not calls
