"""verify_hopf, lifting.obstruction and verify_qt's intertwining check in
blocks, against the whole-tensor code they replaced.

Oracles, written here: the three structure defects with both sides formed as
whole N^4 tensors, their residual check, the obstruction that divides the whole
defects, and verify_qt's intertwining check with its N^4 intermediates.  The
cell budget hc._SLAB_CELLS is patched down so that inputs of dimension 6-8
split into several slabs: (u, v) blocks of the compatibility, or its route
through the nonzeros of t2.  Every output must match the oracle bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from hopflift import _arrays as ra
from hopflift import coeffring as cr
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import tensorcalc as tc
from hopflift.errors import NotDivisible

F3 = cr.make_ring(3)
F7 = cr.make_ring(7)
F9 = cr.make_ring(3, 1, 2)
Z27 = cr.make_ring(3, 3)
STRUCTURE = ("associativity", "coassociativity", "delta_multiplicative")
# (ring, group): dimensions 6 and 8; Z/27 carries a non-field residue ring
CASES = [(F7, "S3"), (F9, "D4"), (Z27, "Q8")]
KINDS = ("m", "delta", "both", "dense")
# rows of a slab: 0 patches the budget to one cell (slabs of one row, (u, v)
# blocks), 3 to three rows (uneven slabs), None keeps the default (one block)
ROWS = (0, 3, None)


def oracle_residuals(desc, M, D):
    """(lhs, rhs) of associativity, coassociativity and compatibility, each
    side formed whole."""
    t1 = ra.tensordot(desc, M, D, ([1], [0]))  # [u,c,b,x]
    t2 = ra.tensordot(desc, M, D, ([2], [1]))  # [v,b,c,y]
    return [
        (ra.tensordot(desc, M, M, ([2], [0])), ra.transpose(ra.tensordot(desc, M, M, ([1], [0])), (0, 2, 3, 1))),
        (
            ra.transpose(ra.tensordot(desc, D, D, ([1], [2])), (0, 2, 3, 1)),
            ra.transpose(ra.tensordot(desc, D, D, ([0], [2])), (2, 3, 0, 1)),
        ),
        (ra.tensordot(desc, D, M, ([2], [0])), ra.transpose(ra.tensordot(desc, t1, t2, ([1, 2], [2, 1])), (0, 2, 1, 3))),
    ]


def oracle_check(name, lhs, rhs):
    if np.array_equal(lhs, rhs):
        return hc.AxiomCheck(name, True, 0, [])
    coords = ra.nonzero_coords(lhs != rhs)
    return hc.AxiomCheck(name, False, int(coords.shape[0]), [tuple(map(int, c)) for c in coords[:5]])


def oracle_obstruction(mul, comul, base):
    """{(p, q): c} of the whole defects divided by p^n, reduced mod p."""
    desc, N = mul.ring, mul.dim_out
    n, m = desc.n - 1, desc.m
    sides = oracle_residuals(desc, mul.coeffs.reshape(N, N, N, m), comul.coeffs.reshape(N, N, N, m))
    out = {}
    for ((p, q), ai, ao), (lhs, rhs) in zip((((2, 0), 3, 1), ((0, 2), 1, 3), ((1, 1), 2, 2)), sides):
        c = (lhs - rhs).reshape(N**ao, N**ai, m)
        if n and np.any(c % desc.p**n):
            raise NotDivisible(f"tensor not divisible by p^{n}")
        out[(p, q)] = c // desc.p**n % base.ring.p
    return out


def oracle_intertwine_fails(H, R):
    desc, N, m = H.ring, H.dim, H.ring.m
    M, D, *_ = hc._legs(H)
    r2 = R.coeffs.reshape(N, N, m)
    t2 = ra.tensordot(desc, ra.tensordot(desc, M, r2, ([1], [0])), D, ([1], [0]))  # [a,v,z,x]
    lhs = ra.transpose(ra.tensordot(desc, t2, M, ([1, 2], [1, 2])), (0, 2, 1))
    u2 = ra.tensordot(desc, ra.tensordot(desc, M, D, ([1], [1])), r2, ([1], [0]))  # [a,w,x,v]
    rhs = ra.transpose(ra.tensordot(desc, u2, M, ([1, 3], [1, 2])), (0, 2, 1))
    return bool(np.any(ra.sub(desc, lhs, rhs)))


def patch_rows(monkeypatch, N, m, rows):
    if rows is not None:
        monkeypatch.setattr(hc, "_SLAB_CELLS", max(1, rows * N**3 * m * m))


def planted(H, kind, seed, step=1):
    """H's (mul, comul) coefficient arrays with wrong coefficients planted in
    m, Delta or both (step times 1..p-1, nonzero mod q), or every coefficient
    of both moved by a random multiple of step ('dense')."""
    desc = H.ring
    rng = np.random.default_rng(seed)
    mul, comul = H.mul.coeffs.copy(), H.comul.coeffs.copy()
    for arr in {"m": [mul], "delta": [comul], "both": [mul, comul], "dense": [mul, comul]}[kind]:
        if kind == "dense":
            arr += step * rng.integers(0, desc.q, size=arr.shape)
        else:
            for _ in range(2):
                cell = tuple(int(rng.integers(0, s)) for s in arr.shape[:2])
                arr[cell + (0,)] += step * int(rng.integers(1, desc.p))
        arr %= desc.q
    return mul, comul


def with_tensors(H, mul, comul):
    N = H.dim
    return hc.HopfPresentation(
        H.ring, N, tc.MultiMap(H.ring, 2, 1, N, N, mul), H.unit, tc.MultiMap(H.ring, 1, 2, N, N, comul), H.counit, H.antipode
    )


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ring,name", CASES, ids=["F7-S3", "F9-D4", "Z27-Q8"])
def test_verify_hopf_in_blocks_matches_whole_tensors(monkeypatch, ring, name, kind, rows):
    H = hc.generate(name, ring)
    H = with_tensors(H, *planted(H, kind, seed=len(name) + ring.q))
    whole = hc.verify_hopf(H)
    patch_rows(monkeypatch, H.dim, ring.m, rows)
    got = hc.verify_hopf(H)
    M, D, *_ = hc._legs(H)
    want = [oracle_check(n, *sides) for n, sides in zip(STRUCTURE, oracle_residuals(ring, M, D))]
    assert [got[n] for n in STRUCTURE] == want
    assert got == whole  # the seven checks of the unit, counit and antipode do not depend on the budget
    assert not got.all_pass and any(c.residual_count > 5 for c in want)


@pytest.mark.parametrize("kind", ("m", "delta", "both"))
@pytest.mark.parametrize("base_ring,name", [(F7, "S3"), (F9, "D4"), (F3, "Q8")], ids=["F7", "F9", "Z27"])
def test_verify_hopf_of_a_dense_lift_samples_in_c_order(monkeypatch, base_ring, name, kind):
    """A perturbed lift has dense m and Delta, so its compatibility runs in
    (u, v) blocks of three rows; wrong coefficients planted in it leave
    residuals whose first five in C order lie in several blocks."""
    H = lf.lift(hc.generate(name, base_ring), 3 if base_ring is F3 else 2, "perturbed:1").current
    H = with_tensors(H, *planted(H, kind, seed=3))
    patch_rows(monkeypatch, H.dim, H.ring.m, 3)
    assert [len(lead) for lead, _, _ in hc._structure_residuals(H.ring, *hc._legs(H)[:2])[2]][:1] == [2]
    M, D, *_ = hc._legs(H)
    want = [oracle_check(n, *sides) for n, sides in zip(STRUCTURE, oracle_residuals(H.ring, M, D))]
    assert [hc.verify_hopf(H)[n] for n in STRUCTURE] == want and want[2].residual_count > 5


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "base_ring,lift_ring,name", [(F7, cr.make_ring(7, 2), "S3"), (F9, cr.make_ring(3, 2, 2), "D4"), (F3, Z27, "Q8")], ids=["F7", "F9", "Z27"]
)
def test_obstruction_in_blocks_matches_whole_tensors(monkeypatch, base_ring, lift_ring, name, kind, rows):
    base = hc.generate(name, base_ring)
    lifted = hc.generate(name, lift_ring)
    step = lift_ring.p ** (lift_ring.n - 1)
    mul, comul = (tc.MultiMap(lift_ring, *io, base.dim, base.dim, c) for io, c in zip(((2, 1), (1, 2)), planted(lifted, kind, 5, step)))
    patch_rows(monkeypatch, base.dim, base_ring.m, rows)
    got = lf.obstruction(mul, comul, base).c.components
    want = oracle_obstruction(mul, comul, base)
    assert set(got) == set(want) and all(np.array_equal(got[k].coeffs, want[k]) for k in want)
    assert any(np.any(c) for c in want.values())
    # a wrong coefficient that is not a multiple of p^n: both refuse
    bad_mul, bad_comul = planted(lifted, kind, 6)
    bad = tc.MultiMap(lift_ring, 2, 1, base.dim, base.dim, bad_mul), tc.MultiMap(lift_ring, 1, 2, base.dim, base.dim, bad_comul)
    with pytest.raises(NotDivisible):
        oracle_obstruction(*bad, base)
    with pytest.raises(NotDivisible):
        lf.obstruction(*bad, base)


def unit_r(H):
    """1 (x) 1, an R-matrix of every cocommutative presentation."""
    U = H.unit.coeffs.reshape(H.dim, H.ring.m)
    return tc.MultiMap(H.ring, 0, 2, H.dim, H.dim, ra.elem_mul(H.ring, U[:, None], U[None, :]).reshape(-1, 1, H.ring.m))


@pytest.mark.parametrize("rows", (0, 3))
@pytest.mark.parametrize(
    "ring,name", CASES + [(F7, "C2.double"), (F9, "C8")], ids=["F7-S3", "F9-D4", "Z27-Q8", "F7-C2.double", "F9-C8"]
)
def test_verify_qt_in_slabs_matches_whole_tensors(monkeypatch, ring, name, rows):
    if name.endswith(".double"):
        H, rm = hc.drinfeld_double(hc.generate(name.split(".")[0], ring))
        R = rm.R
    else:
        H = hc.generate(name, ring)
        R = unit_r(H)
    rng = np.random.default_rng(ring.q + H.dim)
    one_wrong = R.coeffs.copy()
    one_wrong[int(rng.integers(0, H.dim**2)), 0, 0] += 1
    variants = [R.coeffs, one_wrong % ring.q, rng.integers(0, ring.q, size=R.coeffs.shape)]
    verdicts = []
    for coeffs in variants:
        Rv = tc.MultiMap(ring, 0, 2, H.dim, H.dim, coeffs)
        whole = hc.verify_qt(H, Rv)
        with monkeypatch.context() as mp:
            patch_rows(mp, H.dim, ring.m, rows)
            got = hc.verify_qt(H, Rv)
        assert ("intertwine" in got.failures) == oracle_intertwine_fails(H, Rv)
        assert (got.failures, got.quasitriangular, got.triangular) == (whole.failures, whole.quasitriangular, whole.triangular)
        verdicts.append("intertwine" in got.failures)
    assert verdicts[0] is False
    # a commutative algebra intertwines every R; the others fail on a random one
    assert verdicts[2] is (name not in ("C8", "C2.double"))


def compat_leads(desc, M, D):
    return [len(lead) for lead, _, _ in hc._structure_residuals(desc, M, D)[2]]


def test_budget_selects_the_blocks(monkeypatch):
    """One block per defect while N^4 m fits the default budget (every lift of
    dimension <= 8); else slabs over the first leg, and the compatibility in
    (u, v) blocks or, when the nonzeros of t2 fit, in slabs over u."""
    H = hc.generate("D4", F7)
    M, D, *_ = hc._legs(H)
    assert [sum(1 for _ in g) for g in hc._structure_residuals(F7, M, D)] == [1, 1, 1]
    assert compat_leads(F7, M, D) == [2]
    monkeypatch.setattr(hc, "_SLAB_CELLS", 3 * 8**3)  # slabs of 3, 3 and 2 rows
    assert [sum(1 for _ in g) for g in hc._structure_residuals(F7, M, D)[:2]] == [3, 3]
    assert compat_leads(F7, M, D) == [1, 1, 1]  # t2 of a group algebra has N^2 nonzeros
    dense_m, dense_d = (x.reshape(8, 8, 8, 1) for x in planted(H, "dense", 1))
    assert compat_leads(F7, dense_m, dense_d) == [2] * 9
    monkeypatch.setattr(hc, "_SLAB_CELLS", 1)
    assert compat_leads(F7, M, D) == [2] * 64


def test_certificates_at_dimension_36_stay_below_12_mb():
    """verify_hopf and verify_qt of D(S3)/F7 form no N^4 tensor (13 MB as int64)."""
    H, rm = hc.drinfeld_double(hc.generate("S3", F7))
    for check in (lambda: hc.verify_hopf(H).all_pass, lambda: hc.verify_qt(H, rm.R).quasitriangular):
        tracemalloc.start()
        try:
            assert check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 10**6
