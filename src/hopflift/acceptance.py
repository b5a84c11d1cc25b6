"""The acceptance suite: one callable per criterion, exact assertions only.

Used by both `hopflift accept` and tests/test_acceptance.py.  All tolerances
are zero: every check is an exact identity over F_q or GR(p^n, m); the only
numeric limits are the stated runtime budgets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import _arrays as ra
from . import arithcheck as ac
from . import cohomology as coh
from . import hopfcore as hc
from . import lifting as lf
from . import tensorcalc as tc
from ._ntheory import primes_upto, totient
from .coeffring import make_ring

GROUPS = [
    ("C2", 2),
    ("C3", 3),
    ("C4", 4),
    ("C5", 5),
    ("C6", 6),
    ("C7", 7),
    ("C8", 8),
    ("C2xC2", 4),
    ("S3", 6),
    ("D4", 8),
    ("Q8", 8),
]
PRIMES = [3, 5, 7]

_cache: dict = {}


def group_algebra_corpus():
    """(label, presentation) for every builtin group algebra with p coprime to |G|."""
    if "groups" not in _cache:
        out = []
        for name, order in GROUPS:
            for p in PRIMES:
                if order % p == 0:
                    continue
                out.append((f"{name}/F{p}", hc.generate(name, make_ring(p))))
        _cache["groups"] = out
    return _cache["groups"]


def dual_corpus():
    if "duals" not in _cache:
        _cache["duals"] = [(f"dual({label})", hc.dual(H)) for label, H in group_algebra_corpus()]
    return _cache["duals"]


def double_corpus(max_dim=36):
    key = ("doubles", max_dim)
    if key not in _cache:
        out = []
        for label, H in group_algebra_corpus():
            if H.dim * H.dim <= max_dim:
                D, R = hc.drinfeld_double(H)
                out.append((f"double({label})", D, R))
        _cache[key] = out
    return _cache[key]


def full_corpus(max_double_dim=36):
    return (
        [(lbl, H) for lbl, H in group_algebra_corpus()]
        + [(lbl, H) for lbl, H in dual_corpus()]
        + [(lbl, D) for lbl, D, _ in double_corpus(max_double_dim)]
    )


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _c2_r_matrices():
    F5 = make_ring(5)
    r0 = np.zeros((4, 1, 1), dtype=np.int64)
    r0[0, 0, 0] = 1
    R0 = tc.MultiMap(F5, 0, 2, 2, 2, r0)
    R1 = tc.MultiMap(F5, 0, 2, 2, 2, np.array([3, 3, 3, 2], dtype=np.int64).reshape(4, 1)[:, :, None])
    return R0, R1


# --------------------------------------------------------------------------- criteria


def criterion_1_axiom_suite():
    """Every builtin example passes verify_hopf with exactly zero residuals."""
    t0 = time.perf_counter()
    checked = 0
    for label, H in full_corpus():
        report = hc.verify_hopf(H)
        if not report.all_pass:
            return False, f"{label} fails {report.failing()}"
        checked += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        return False, f"{checked} examples verified but took {elapsed:.1f}s >= 30s"
    return True, f"{checked} examples, all residuals exactly zero, {elapsed:.1f}s"


def criterion_2_bicomplex_identities():
    """d_a^2 = d_c^2 = 0, d_a d_c = d_c d_a, d_total^2 = 0 on >= 100 random cochains per context."""
    contexts = []
    for name, p in [("C2", 3), ("C2", 5), ("C2", 7), ("C3", 5), ("C3", 7)]:
        contexts.append((f"{name}/F{p}", coh.make_context(hc.generate(name, make_ring(p)))))
    for label, ctx in contexts:
        count = 0
        for n in (0, 1, 2):
            for seed in range(34):
                z = coh.random_cochain(ctx, n, seed)
                for f in z.components.values():
                    if not coh.d_alg(ctx, coh.d_alg(ctx, f)).is_zero:
                        return False, f"d_a^2 != 0 on {label}, degree {n}, seed {seed}"
                    if not coh.d_coalg(ctx, coh.d_coalg(ctx, f)).is_zero:
                        return False, f"d_c^2 != 0 on {label}, degree {n}, seed {seed}"
                    if coh.d_alg(ctx, coh.d_coalg(ctx, f)) != coh.d_coalg(ctx, coh.d_alg(ctx, f)):
                        return False, f"differentials do not commute on {label}, degree {n}, seed {seed}"
                if not coh.d_total(coh.d_total(z)).is_zero:
                    return False, f"d_total^2 != 0 on {label}, degree {n}, seed {seed}"
                count += 1
        if count < 100:
            return False, f"only {count} cochains tested on {label}"
    return True, f"{len(contexts)} contexts x 102 cochains, all identities exact"


def criterion_3_vanishing():
    """H^0 = H^1 = H^2 = 0 on the stated contexts; invariants complex agrees."""
    t0 = time.perf_counter()
    F5, F7 = make_ring(5), make_ring(7)
    C2 = hc.generate("C2", F5)
    cases = [
        ("F5[C2]", C2),
        ("F7[C3]", hc.generate("C3", F7)),
        ("dual(F5[C2])", hc.dual(C2)),
        ("F5[C2xC2]", hc.generate("C2xC2", F5)),
    ]
    for label, H in cases:
        ctx = coh.make_context(H)
        dims = [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)]
        if dims != [0, 0, 0]:
            return False, f"{label}: H^(0,1,2) = {dims} != [0,0,0]"
        inv = [coh.invariants_complex_dim(ctx, n) for n in (0, 1, 2)]
        if inv != dims:
            return False, f"{label}: invariants complex gives {inv} != {dims}"
    elapsed = time.perf_counter() - t0
    if elapsed >= 120:
        return False, f"vanishing verified but took {elapsed:.1f}s >= 120s"
    return True, f"4 contexts, degrees 0-2 all zero, invariants complex agrees, {elapsed:.1f}s"


def lift_examples():
    """The ss+cs corpus members of dimension <= 8."""
    return [(lbl, H) for lbl, H in full_corpus(max_double_dim=8) if H.dim <= 8]


def criterion_4_lift_pipeline(seeds=20):
    """Perturbed lifts to precision 4 succeed exactly; canonical lifts have zero obstructions."""
    worst = 0.0
    count = 0
    for label, H in lift_examples():
        t0 = time.perf_counter()
        st = lf.lift(H, 4, "canonical")
        if any(r["obstruction_support"] for r in st.transcript):
            return False, f"{label}: canonical strategy produced a nonzero obstruction"
        for seed in range(1, seeds + 1):
            st = lf.lift(H, 4, f"perturbed:{seed}")
            if not hc.verify_hopf(st.current).all_pass:
                return False, f"{label} seed {seed}: lifted presentation has nonzero residuals"
            if hc.reduce_presentation(st.current, H.ring) != H:
                return False, f"{label} seed {seed}: lift does not reduce to the base"
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if elapsed >= 60:
            return False, f"{label}: {elapsed:.1f}s >= 60s for canonical + {seeds} perturbed lifts"
        count += 1
    return True, f"{count} examples x (1 canonical + {seeds} perturbed) to GR(p^4,m); worst example {worst:.1f}s"


def criterion_5_uniqueness():
    """reconcile returns an exact Hopf isomorphism == id mod p (it raises otherwise)."""
    F5, F7 = make_ring(5), make_ring(7)
    bases = [hc.generate("C2", F5), hc.generate("C3", F7), hc.generate("S3", F7), hc.generate("C2xC2", make_ring(3))]
    pairs = 0
    for H in bases:
        lifts = [lf.lift(H, 3, s) for s in ("canonical", "perturbed:7", "perturbed:13")]
        for i in range(len(lifts)):
            for j in range(len(lifts)):
                eta = lf.reconcile(lifts[i], lifts[j])
                if np.any((eta.coeffs - ra.eye(eta.ring, H.dim)) % H.ring.p):
                    return False, "eta is not the identity mod p"
                pairs += 1
    return True, f"{pairs} reconciliations, all exact intertwiners == id mod p"


def criterion_6_morphisms():
    """Canonical inclusions/identities lift with zero correction; functoriality is exact."""
    F5, F7 = make_ring(5), make_ring(7)
    C2, C4 = hc.generate("C2", F5), hc.generate("C4", F5)
    a = lf.lift(C2, 3, "canonical")
    b = lf.lift(C4, 3, "canonical")
    ident = lf.lift_morphism(hc.identity_morphism(C2), a, a)
    if not np.array_equal(ident.map.coeffs, tc.identity_map(a.current.ring, 2).coeffs):
        return False, "identity did not lift to the identity"
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    phi = hc.make_morphism(C2, C4, tc.MultiMap(F5, 1, 1, 2, 4, inc))
    lifted = lf.lift_morphism(phi, a, b)
    if not np.array_equal(lifted.map.coeffs, inc % 125):
        return False, "canonical inclusion acquired corrections"
    C3 = hc.generate("C3", F7)
    st3 = lf.lift(C3, 2, "canonical")
    eps1 = tc.compose(C3.unit, C3.counit)
    lifted2 = lf.lift_morphism(hc.make_morphism(C3, C3, eps1), st3, st3)
    if not np.array_equal(lifted2.map.coeffs, eps1.coeffs % 49):
        return False, "counit-unit composite acquired corrections"
    # functoriality with nontrivial (perturbed) lifts
    proj = np.zeros((2, 4, 1), dtype=np.int64)
    for k in range(4):
        proj[k % 2, k, 0] = 1
    psi = hc.make_morphism(C4, C2, tc.MultiMap(F5, 1, 1, 4, 2, proj))
    ap = lf.lift(C2, 3, "perturbed:3")
    bp = lf.lift(C4, 3, "perturbed:4")
    lphi = lf.lift_morphism(phi, ap, bp)
    lpsi = lf.lift_morphism(psi, bp, ap)
    lcomp = lf.lift_morphism(hc.compose_morphisms(psi, phi), ap, ap)
    if tc.compose(lpsi.map, lphi.map) != lcomp.map:
        return False, "lift(psi o phi) != lift(psi) o lift(phi)"
    return True, "identity, inclusion, counit-unit composite canonical; functoriality exact"


def criterion_7_rmatrix():
    """lift_rmatrix on (kC2/F5, R1) at precision 2 gives the stated exact value."""
    F5 = make_ring(5)
    C2 = hc.generate("C2", F5)
    _, R1 = _c2_r_matrices()
    st = lf.lift(C2, 2, "canonical")
    out = lf.lift_rmatrix(C2, R1, st)
    got = out.R.coeffs[:, 0, 0].tolist()
    if got != [13, 13, 13, 12]:
        return False, f"lifted R = {got} != [13, 13, 13, 12]"
    if not (out.quasitriangular and out.triangular):
        return False, "lifted R lost quasitriangularity or triangularity"
    if not np.array_equal(out.R.coeffs % 5, R1.coeffs):
        return False, "lifted R does not reduce to R1"
    return True, "R1 lifts to 13*(1x1 + 1xg + gx1) + 12*gxg over Z/25, triangular"


def criterion_8_structure_predicates():
    """S^2 = I, tr(S^2) = dim, Drinfeld element, prime/pq dimension flags, central grouplike."""
    for label, H in full_corpus():
        order2 = hc.antipode_orders(H)[1]
        if order2 != 1:
            return False, f"{label}: S^2 != identity"
        if hc.trace_s2(H) != H.ring.element(H.dim % H.ring.q):
            return False, f"{label}: tr(S^2) != dim"
    F5 = make_ring(5)
    C2 = hc.generate("C2", F5)
    for R in _c2_r_matrices():
        rm = hc.verify_qt(C2, R)
        if not rm.triangular:
            return False, "corpus triangular structure failed verify_qt"
        u, fixed, sq = hc.drinfeld_u(C2, R)
        if not (fixed and sq):
            return False, "Drinfeld element fails u = S(u), u^2 = 1"
    for label, H in group_algebra_corpus() + dual_corpus():
        if H.dim in (2, 3, 5, 7):
            if not (hc.is_commutative(H) and hc.is_cocommutative(H)):
                return False, f"{label}: prime dimension but not commutative and cocommutative"
        if H.dim == 6:
            if not (hc.is_commutative(H) or hc.is_cocommutative(H)):
                return False, f"{label}: dimension pq but neither commutative nor cocommutative"
    klein = hc.generate("C2xC2", make_ring(3))
    central = hc.grouplikes(klein, central_only=True)
    unit = klein.unit.coeffs.reshape(4, 1)
    nontrivial = [g for g in central if not np.array_equal(g, unit)]
    if not nontrivial:
        return False, "F3[C2xC2] has no nontrivial central grouplike"
    return True, "S^2 = I and tr(S^2) = dim on the corpus; Drinfeld, prime-dim, pq-dim, p^n grouplike checks pass"


def criterion_9_double_irreducibles():
    """irreducible_dimensions(D(F7[S3])) = {1,1,2,2,2,2,3,3}."""
    t0 = time.perf_counter()
    D, _ = hc.drinfeld_double(hc.generate("S3", make_ring(7)))
    dims = hc.irreducible_dimensions(D)
    elapsed = time.perf_counter() - t0
    if dims != [1, 1, 2, 2, 2, 2, 3, 3]:
        return False, f"got {dims}"
    if sum(n * n for n in dims) != 36 or any(6 % n for n in dims):
        return False, f"block sizes {dims} fail the sum/divisibility checks"
    if elapsed >= 30:
        return False, f"correct blocks but took {elapsed:.1f}s >= 30s"
    return True, f"{{1,1,2,2,2,2,3,3}}, sum of squares 36, each divides 6, {elapsed:.1f}s"


def criterion_10_lemma41():
    """Route agreement on all primes <= 10^4 and the |N| bound on 1000 random instances."""
    for coeffs, r in [([2, 1, 1], 3), ([1, 1, 0, 1], 4)]:
        n_val = ac.conjugate_product(coeffs, r)
        d_sum = sum(abs(c) for c in coeffs)
        bound = d_sum ** (totient(r) // 2)
        for p in primes_upto(10**4):
            if p > bound and math.gcd(p, r) == 1 and n_val % p:
                rep = ac.lemma41(coeffs, r, p)
                if rep.conclusion != "nonvanishing-guaranteed":
                    return False, f"P={coeffs}, r={r}, p={p}: N-route failed"
                if not rep.gcd_with_cyclotomic_trivial:
                    return False, f"P={coeffs}, r={r}, p={p}: gcd-route disagrees"
    rng = np.random.default_rng(0x41)
    for trial in range(1000):
        r = int(rng.integers(3, 25))
        coeffs = [0] * r
        coeffs[0] = int(rng.integers(-4, 5))
        for l in range(1, r // 2 + 1):
            c = int(rng.integers(-4, 5))
            coeffs[l] = c
            coeffs[r - l] = c
        n_val = ac.conjugate_product(coeffs, r)
        d_sum = sum(abs(c) for c in coeffs)
        if n_val and abs(n_val) ** 2 > max(d_sum, 1) ** totient(r):
            return False, f"trial {trial}: |N| = {abs(n_val)} exceeds D^(phi/2)"
    return True, "both polynomials agree on every admissible prime <= 10^4; |N| bound holds on 1000 instances"


def criterion_11_threshold():
    """kaplansky_threshold(d) = d^(phi(d)/2) for 3 <= d <= 30 with the spot values."""
    for d in range(3, 31):
        thr, phi = ac.kaplansky_threshold(d)
        if thr != d ** (phi // 2) or phi != totient(d):
            return False, f"threshold wrong at d={d}"
    spots = {6: 6, 4: 4, 8: 64}
    for d, want in spots.items():
        if ac.kaplansky_threshold(d)[0] != want:
            return False, f"spot value {d} -> {ac.kaplansky_threshold(d)[0]} != {want}"
    return True, "d^(phi(d)/2) exact for 3 <= d <= 30; spots 6->6, 4->4, 8->64"


CRITERIA = [
    (1, "axiom suite on the builtin corpus", criterion_1_axiom_suite),
    (2, "bicomplex identities on random cochains", criterion_2_bicomplex_identities),
    (3, "cohomology vanishing in degrees 0-2", criterion_3_vanishing),
    (4, "lifting pipeline to precision 4", criterion_4_lift_pipeline),
    (5, "uniqueness via reconciliation", criterion_5_uniqueness),
    (6, "morphism lifting and functoriality", criterion_6_morphisms),
    (7, "R-matrix lifting exact value", criterion_7_rmatrix),
    (8, "structure predicates (S^2, traces, Drinfeld, dimensions)", criterion_8_structure_predicates),
    (9, "irreducible dimensions of the S3 double", criterion_9_double_irreducibles),
    (10, "cyclotomic nonvanishing, two routes", criterion_10_lemma41),
    (11, "characteristic threshold table", criterion_11_threshold),
]


def run(numbers=None, report=print) -> list[CriterionResult]:
    known = [number for number, _, _ in CRITERIA]
    unknown = [number for number in numbers or () if number not in known]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}: the criteria are numbered {known[0]}-{known[-1]}")
    results = []
    for number, name, fn in CRITERIA:
        if numbers and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        results.append(CriterionResult(number, name, passed, detail, seconds))
        status = "PASS" if passed else "FAIL"
        report(f"[{status}] criterion {number:2d} ({seconds:6.1f}s): {name} -- {detail}")
    return results
