#!/usr/bin/env python3
"""Cohomology dimensions on the reduced complex, cold lifts at dimensions 16,
36 and 64, and the solver builds at dimensions 36 and 64: two source
checkouts compared.

Usage:
  python scripts/bench_reduced_cohomology.py --parent DIR [--change DIR] [--repeats 5]
                                             [--seeds 1001-1006] [--cap-gb 4] [--cases TEXT]
                                             [--out BENCH_reduced_cohomology.json]

DIR is a source checkout, e.g. made by `git archive REV | tar -x -C DIR`;
--change defaults to this checkout.  Both must be free of __pycache__ under
src/.  Two parts, each of which alternates the side that runs first:

- cohomology: `cohomology_dim` in degrees 0-2 of S3/F7, S3/F25 and
  C2.double/F5, of D4/F3, Q8/F7 and dual(D4)/F5 with HOPFLIFT_H2_BUDGET=8,
  of the group algebras S3/F3, S3/F2, C6/F3 and D4/F2 (HOPFLIFT_H2_BUDGET=8),
  whose characteristic divides the group order, and of C4.double/F5 and C2xC2.double/F3 with both budgets at 16; a cold
  perturbed lift to p^4 of C4.double/F5 and C2xC2.double/F3 with
  HOPFLIFT_COBOUNDARY_BUDGET=16 and of S3.double/F7 with
  HOPFLIFT_COBOUNDARY_BUDGET=64, each with the SHA-256 of its lift JSON
  (without the transcript's wall-clock seconds), and the same of D4.double/F3
  and Q8.double/F3 (dimension 64); and the CLI step
  `hopflift cohomology d2.json --degree 0,1,2 --invariants` of C2.double/F5;
  and the solver layer of D(S3)/F7 and D(D4)/F3 with
  HOPFLIFT_COBOUNDARY_BUDGET=64: the FieldSolver builds of d_c ad_2 and ad_2
  (those of _dc_ad_solver(ctx, 2) and _ad_solver(ctx, 2), which cohomology_dim
  reads in degree 1 and a lift does not), each on its matrix built first and
  untimed, and the contraction's build of d_0 (_contraction, its assembly of
  d_0 included, after both idempotents, untimed), with the rise of the peak
  RSS over the peak before the build; C4.double/F5 conjugated by a seed-5 random P invertible
  mod 5 (made in the probe, untimed, and certified), with
  HOPFLIFT_COBOUNDARY_BUDGET=16: its contraction set-up as above (setup_s),
  then its cold perturbed lift to p^4 and that lift's SHA-256; the certified
  generation of D4.double/F3 (dimension 64), verify_hopf of D(D4) included;
  and lift_rmatrix of D(S3)/F7's canonical R through its perturbed lift to
  p^4 (made untimed, HOPFLIFT_COBOUNDARY_BUDGET=64), with the SHA-256 of the
  lifted R-matrix JSON; and reconcile of D(S3)/F7's canonical and
  perturbed:1 lifts to p^4 (made untimed, HOPFLIFT_COBOUNDARY_BUDGET=64),
  with the SHA-256 of eta's JSON as `hopflift reconcile` writes it.
  Each runs in a fresh process pinned to one CPU with one BLAS thread and an
  address-space cap of --cap-gb GB: its in-process seconds, its wall time and
  its peak RSS.  A run that fails records its exception instead of its
  result.
- workloads: `perfbench/run.py --workload W --seed S` at default settings,
  for the three workloads and every seed, as in scripts/bench_cli_pipeline.py.

--cases TEXT runs only the probes whose label contains TEXT (e.g. "solver
build"; several texts separated by "|"), and then no CLI step and no
workloads.

Writes every raw run, the medians, the parent's quartiles and the number of
pairs in which the change did better to --out.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "scripts"))
import bench_cli_pipeline as pipeline  # noqa: E402

PROBE = r"""
import json, sys, time
from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift.coeffring import make_ring

name, p, m = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
dual = name.startswith("dual(")
H = hc.generate(name[5:-1] if dual else name, make_ring(p, 1, m))
ctx = coh.make_context(hc.dual(H) if dual else H)
t0 = time.perf_counter()
try:
    dims = [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)]
    # each base's cohomology vanishes: by Thm 1.2 where it is semisimple and
    # cosemisimple, and by the whole bicomplex for the group algebras whose
    # characteristic divides the group order (tests/test_cohomology.py)
    out = {"dims": dims, "correct": dims == [0, 0, 0]}
except MemoryError as exc:
    out = {"error": f"MemoryError: {exc}"}
out["seconds"] = time.perf_counter() - t0
print(json.dumps(out))
"""

LIFT_PROBE = r"""
import hashlib, json, sys, time
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift.coeffring import make_ring

H = hc.generate(sys.argv[1], make_ring(int(sys.argv[2])))
t0 = time.perf_counter()
try:
    st = lf.lift(H, 4, "perturbed:1")
    out = {"seconds": time.perf_counter() - t0, "correct": not hc.verify_hopf(st.current).failing()}
    obj = ser.liftstate_to_json(st)
    obj["transcript"] = [{k: v for k, v in rec.items() if k != "seconds"} for rec in obj["transcript"]]
    out["sha256"] = hashlib.sha256(ser.dumps(obj).encode()).hexdigest()
except MemoryError as exc:
    out = {"error": f"MemoryError: {exc}", "seconds": time.perf_counter() - t0}
print(json.dumps(out))
"""

LAYER_PROBE = r"""
import json, resource, sys, time
from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift.coeffring import make_ring

ctx = coh.make_context(hc.generate(sys.argv[1], make_ring(int(sys.argv[2]))))
layer = sys.argv[3]
if layer == "d_0":
    # what _contraction builds of d_0, its assembly included, whichever way the
    # checkout does it; both idempotents come first, untimed; the rank is that of d_1
    coh._require_idempotents(ctx)
    build = lambda: coh._contraction(ctx)  # noqa: E731
else:
    mat = {"d_c ad_2": coh._dc_ad_matrix, "ad_2": coh._ad_matrix}[layer](ctx, 2)
    build = lambda: coh.FieldSolver(ctx.ring, mat)  # noqa: E731
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
t0 = time.perf_counter()
try:
    out = {"rank": build().rank, "correct": True}
except MemoryError as exc:
    out = {"error": f"MemoryError: {exc}"}
out.update(seconds=time.perf_counter() - t0, rss_before_mb=before)
if "error" not in out:
    mat = coh._contraction(ctx).d0_rev.M if layer == "d_0" else mat  # d_0 with its rows reversed
    out.update(shape=list(mat.shape), nnz=int(mat.rows.size))
print(json.dumps(out))
"""

TRANSPORT_PROBE = r"""
import hashlib, json, sys, time
import numpy as np
from hopflift import cohomology as coh
from hopflift import coeffring as cr
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift.coeffring import make_ring
from hopflift.tensorcalc import MultiMap

# H conjugated by a seeded P invertible mod p: m' = P^-1 m (P x P),
# Delta' = (P^-1 x P^-1) Delta P, u' = P^-1 u, eps' = eps P, S' = P^-1 S P,
# which makes every structure tensor dense
desc = make_ring(int(sys.argv[2]))
H, rng = hc.generate(sys.argv[1], desc), np.random.default_rng(int(sys.argv[3]))
N, p = H.dim, desc.q
while True:
    P = rng.integers(0, p, size=(N, N))
    if coh.FieldSolver(desc, P[..., None]).rank == N:
        break
Pi = cr.matrix_inverse(desc, P[..., None])[..., 0]


def conj(t, left, right):
    return MultiMap(desc, t.arity_in, t.arity_out, N, N, ((left @ t.coeffs[..., 0] % p @ right % p)[..., None]))


kron = lambda a, b: np.kron(a, b) % p  # noqa: E731
one = np.ones((1, 1), dtype=np.int64)
H = hc.make_presentation(
    desc, conj(H.mul, Pi, kron(P, P)), conj(H.unit, Pi, one), conj(H.comul, kron(Pi, Pi), P), conj(H.counit, one, P),
    conj(H.antipode, Pi, P),
)
ctx = coh.make_context(H)
out = {}
try:
    coh._require_idempotents(ctx)
    t0 = time.perf_counter()
    out["rank"] = coh._contraction(ctx).rank
    out["setup_s"] = time.perf_counter() - t0
    coh._CACHE.clear()
    t0 = time.perf_counter()
    st = lf.lift(H, 4, "perturbed:1")
    out.update(seconds=time.perf_counter() - t0, correct=not hc.verify_hopf(st.current).failing())
    obj = ser.liftstate_to_json(st)
    obj["transcript"] = [{k: v for k, v in rec.items() if k != "seconds"} for rec in obj["transcript"]]
    out["sha256"] = hashlib.sha256(ser.dumps(obj).encode()).hexdigest()
except MemoryError as exc:
    out["error"] = f"MemoryError: {exc}"
print(json.dumps(out))
"""

GEN_PROBE = r"""
import json, sys, time
from hopflift import hopfcore as hc
from hopflift.coeffring import make_ring

t0 = time.perf_counter()
H = hc.generate(sys.argv[1], make_ring(int(sys.argv[2])))
print(json.dumps({"seconds": time.perf_counter() - t0, "correct": H.verified}))
"""

RMATRIX_PROBE = r"""
import hashlib, json, sys, time
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift.coeffring import make_ring

H, R = hc.drinfeld_double(hc.generate(sys.argv[1], make_ring(int(sys.argv[2]))))
st = lf.lift(H, 4, sys.argv[3])
t0 = time.perf_counter()
try:
    out_r = lf.lift_rmatrix(H, R, st)
    out = {"seconds": time.perf_counter() - t0, "correct": out_r.quasitriangular}
    out["sha256"] = hashlib.sha256(ser.dumps(ser.rmatrix_to_json(st.current, out_r.R)).encode()).hexdigest()
except MemoryError as exc:
    out = {"error": f"MemoryError: {exc}", "seconds": time.perf_counter() - t0}
print(json.dumps(out))
"""

RECONCILE_PROBE = r"""
import hashlib, json, sys, time
import numpy as np
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift.coeffring import make_ring

p = int(sys.argv[2])
H = hc.generate(sys.argv[1], make_ring(p))
canonical, perturbed = lf.lift(H, 4), lf.lift(H, 4, sys.argv[3])
t0 = time.perf_counter()
try:
    eta = lf.reconcile(canonical, perturbed)
    out = {"seconds": time.perf_counter() - t0, "correct": np.array_equal(eta.coeffs[..., 0] % p, np.eye(H.dim, dtype=np.int64))}
    out["sha256"] = hashlib.sha256(ser.dumps({"eta": eta.coeffs.transpose(1, 0, 2).tolist()}).encode()).hexdigest()
except MemoryError as exc:
    out = {"error": f"MemoryError: {exc}", "seconds": time.perf_counter() - t0}
print(json.dumps(out))
"""

# label, probe, its arguments, extra environment
H2_AT_8 = {"HOPFLIFT_H2_BUDGET": "8"}
DIM_16 = {"HOPFLIFT_COBOUNDARY_BUDGET": "16"}
BOTH_16 = {"HOPFLIFT_H2_BUDGET": "16", "HOPFLIFT_COBOUNDARY_BUDGET": "16"}
CASES = [
    ("S3/F7", PROBE, ["S3", "7", "1"], {}),
    ("S3/F25", PROBE, ["S3", "5", "2"], {}),
    ("C2.double/F5", PROBE, ["C2.double", "5", "1"], {}),
    ("D4/F3, HOPFLIFT_H2_BUDGET=8", PROBE, ["D4", "3", "1"], H2_AT_8),
    ("Q8/F7, HOPFLIFT_H2_BUDGET=8", PROBE, ["Q8", "7", "1"], H2_AT_8),
    ("dual(D4)/F5, HOPFLIFT_H2_BUDGET=8", PROBE, ["dual(D4)", "5", "1"], H2_AT_8),
    ("S3/F3, p divides |G|", PROBE, ["S3", "3", "1"], {}),
    ("S3/F2, p divides |G|", PROBE, ["S3", "2", "1"], {}),
    ("C6/F3, p divides |G|", PROBE, ["C6", "3", "1"], {}),
    ("D4/F2, p divides |G|, HOPFLIFT_H2_BUDGET=8", PROBE, ["D4", "2", "1"], H2_AT_8),
    ("cold lift C4.double/F5 p^4, HOPFLIFT_COBOUNDARY_BUDGET=16", LIFT_PROBE, ["C4.double", "5"], DIM_16),
    ("cold lift C2xC2.double/F3 p^4, HOPFLIFT_COBOUNDARY_BUDGET=16", LIFT_PROBE, ["C2xC2.double", "3"], DIM_16),
    ("C4.double/F5, both budgets 16", PROBE, ["C4.double", "5", "1"], BOTH_16),
    ("C2xC2.double/F3, both budgets 16", PROBE, ["C2xC2.double", "3", "1"], BOTH_16),
] + [
    (f"cold lift {name}/F{p} p^4, HOPFLIFT_COBOUNDARY_BUDGET=64", LIFT_PROBE, [name, p], {"HOPFLIFT_COBOUNDARY_BUDGET": "64"})
    for name, p in (("S3.double", "7"), ("D4.double", "3"), ("Q8.double", "3"))
] + [
    (f"{layer} solver build, {label}, HOPFLIFT_COBOUNDARY_BUDGET=64", LAYER_PROBE, [name, p, layer], {"HOPFLIFT_COBOUNDARY_BUDGET": "64"})
    for label, name, p in (("D(S3)/F7", "S3.double", "7"), ("D(D4)/F3", "D4.double", "3"))
    for layer in ("d_c ad_2", "ad_2", "d_0")
] + [
    ("transported C4.double/F5 by a seed-5 P: contraction set-up and cold lift p^4, HOPFLIFT_COBOUNDARY_BUDGET=16", TRANSPORT_PROBE,
     ["C4.double", "5", "5"], DIM_16),
] + [
    ("generate D4.double/F3", GEN_PROBE, ["D4.double", "3"], {}),
    ("lift_rmatrix S3.double/F7 perturbed:1 p^4, HOPFLIFT_COBOUNDARY_BUDGET=64", RMATRIX_PROBE, ["S3", "7", "perturbed:1"],
     {"HOPFLIFT_COBOUNDARY_BUDGET": "64"}),
    ("reconcile S3.double/F7 perturbed:1 p^4, HOPFLIFT_COBOUNDARY_BUDGET=64", RECONCILE_PROBE, ["S3.double", "7", "perturbed:1"],
     {"HOPFLIFT_COBOUNDARY_BUDGET": "64"}),
]
CLI_STEP = "cli: cohomology d2.json --degree 0,1,2 --invariants (C2.double/F5)"


def run_child(tree, argv, extra_env, cap_bytes, cwd=None):
    """python argv from tree in one fresh process: (stdout, stderr, exit code, wall s, peak RSS MB)."""
    pin = pipeline.pinned()

    def limits():
        pin()
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd or tree, env={**pipeline.bench_env(tree), **extra_env},
                                stdout=out, stderr=err, text=True, preexec_fn=limits)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return out.read(), err.read(), proc.returncode, wall, usage.ru_maxrss / 1024


def probe(tree, code_text, argv, extra_env, cap_bytes):
    out, err, code, wall, rss = run_child(tree, ["-c", code_text, *argv], extra_env, cap_bytes)
    row = json.loads(out.strip().splitlines()[-1]) if code == 0 else {"error": f"exit {code}: {err[-300:]}"}
    row.update(wall_s=wall, peak_rss_mb=rss)
    if "rss_before_mb" in row:
        row["rise_mb"] = rss - row["rss_before_mb"]
    row.setdefault("correct", False)
    return row


def cli_step(tree, cap_bytes):
    workdir = tempfile.mkdtemp(prefix="bench-cohomology-")
    try:
        gen = ["-m", "hopflift.cli", "gen", "C2.double", "--p", "5", "-o", "d2.json"]
        if run_child(tree, gen, {}, cap_bytes, workdir)[2]:
            sys.exit(f"gen C2.double in {tree} failed")
        argv = ["-m", "hopflift.cli", "cohomology", "d2.json", "--degree", "0,1,2", "--invariants"]
        out, err, code, wall, rss = run_child(tree, argv, {}, cap_bytes, workdir)
        want = [f"H^{n} = 0   invariants complex: 0" for n in (0, 1, 2)]
        return {"correct": code == 0 and out.splitlines() == want, "wall_s": wall, "peak_rss_mb": rss}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary(rows):
    """The paired summary of both sides, and the lift digests and solver ranks of each."""
    out = {}
    for key in ("seconds", "setup_s", "wall_s", "peak_rss_mb", "rise_mb"):
        series = {side: [r.get(key) for r in runs] for side, runs in rows.items()}
        if None not in series["parent"] + series["change"]:
            out[key] = pipeline.paired(series, "lower")
    for key in ("sha256", "rank"):
        found = {side: sorted({r[key] for r in runs if key in r}) for side, runs in rows.items()}
        if any(found.values()):
            out[key] = found
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=HERE)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", default="1001-1006")
    ap.add_argument("--cap-gb", type=float, default=4.0)
    ap.add_argument("--cases", default=None)
    ap.add_argument("--out", default=os.path.join(HERE, "BENCH_reduced_cohomology.json"))
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        pipeline.check_no_bytecode(tree)
    cap = int(args.cap_gb * (1 << 30))
    lo, hi = (int(s) for s in args.seeds.split("-"))

    cases = [case for case in CASES if args.cases is None or any(t in case[0] for t in args.cases.split("|"))]
    labels = [label for label, *_ in cases] + ([CLI_STEP] if args.cases is None else [])
    runs = {label: {"parent": [], "change": []} for label in labels}
    for i in range(args.repeats):
        for side in pipeline.sides(i):
            for label, code_text, argv, env in cases:
                runs[label][side].append(probe(trees[side], code_text, argv, env, cap))
            if args.cases is None:
                runs[CLI_STEP][side].append(cli_step(trees[side], cap))
        print(f"repeat {i + 1}/{args.repeats}: cohomology probes done", flush=True)

    names = pipeline.WORKLOADS if args.cases is None else ()
    workloads = {w: {"parent": [], "change": []} for w in names}
    for i, seed in enumerate(range(lo, hi + 1)):
        for name in names:
            for side in pipeline.sides(i):
                row = pipeline.run_workload(trees[side], name, seed)
                workloads[name][side].append({"seed": seed, "first": pipeline.sides(i)[0], **row})
                print(f"seed {seed} {name} {side}: " + json.dumps(row), flush=True)

    def series(rows, key):
        return {side: [r[key] for r in rows[side]] for side in rows}

    record = {
        "what": (
            f"cohomology_dim in degrees 0-2 (group algebras with p dividing |G| included), cold lifts at dimensions 16, 36 and 64, the CLI cohomology step and the "
            f"solver builds of d_c ad_2, ad_2 and d_0 at dimensions 36 and 64, the contraction set-up and cold lift of "
            f"C4.double/F5 conjugated by a seed-5 P, generate(D4.double/F3) and "
            f"lift_rmatrix of D(S3)/F7 through its perturbed p^4 lift, reconcile of D(S3)/F7's canonical and perturbed p^4 lifts"
            f"{'' if args.cases is None else f' (only those labelled *{args.cases}*, no CLI step, no workloads)'}, "
            f"{args.repeats} fresh processes per side "
            f"under a {args.cap_gb:g} GB address-space cap; perfbench/run.py --workload W --seed S at default "
            f"settings, seeds {args.seeds}. Parent and change run from separate checkouts, the side that runs "
            "first alternating, every process pinned to one CPU. Produced by scripts/bench_reduced_cohomology.py"
        ),
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "cohomology": {
            label: {
                "runs": runs[label],
                "summary": summary(runs[label]),
                "all_correct": {side: all(r["correct"] for r in rows) for side, rows in runs[label].items()},
            }
            for label in labels
        },
        "workloads": {
            name: {
                "runs": workloads[name],
                "summary": {k: pipeline.paired(series(workloads[name], k), b) for k, b in pipeline.METRICS.items()},
                "all_correct": all(r["correct"] for side in workloads[name].values() for r in side),
            }
            for name in names
        },
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
