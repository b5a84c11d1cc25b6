#!/usr/bin/env python3
"""Cohomology dimensions on the reduced complex: two source checkouts compared.

Usage:
  python scripts/bench_reduced_cohomology.py --parent DIR [--change DIR] [--repeats 5]
                                             [--seeds 1001-1006] [--cap-gb 4]
                                             [--out BENCH_reduced_cohomology.json]

DIR is a source checkout, e.g. made by `git archive REV | tar -x -C DIR`;
--change defaults to this checkout.  Both must be free of __pycache__ under
src/.  Two parts, each of which alternates the side that runs first:

- cohomology: `cohomology_dim` in degrees 0-2 of S3/F7, S3/F25 and
  C2.double/F5, and the CLI step `hopflift cohomology d2.json --degree 0,1,2
  --invariants` of C2.double/F5, each in a fresh process pinned to one CPU
  with one BLAS thread and an address-space cap of --cap-gb GB: its wall time
  and its peak RSS.  D4/F3, Q8/F7 and dual(D4)/F5 run with
  HOPFLIFT_H2_BUDGET=8 on the change only, since the parent's whole
  bicomplex cannot factor their degree-2 differential under the cap.  A run
  that fails records its exception instead of dimensions.
- workloads: `perfbench/run.py --workload W --seed S` at default settings,
  for the three workloads and every seed, as in scripts/bench_cli_pipeline.py.

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
    out = {"dims": [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)]}
except MemoryError as exc:
    out = {"error": f"MemoryError: {exc}"}
out["seconds"] = time.perf_counter() - t0
print(json.dumps(out))
"""

# label, PROBE arguments, extra environment, whether the parent runs it too
CASES = [
    ("S3/F7", ["S3", "7", "1"], {}, True),
    ("S3/F25", ["S3", "5", "2"], {}, True),
    ("C2.double/F5", ["C2.double", "5", "1"], {}, True),
    ("D4/F3, HOPFLIFT_H2_BUDGET=8", ["D4", "3", "1"], {"HOPFLIFT_H2_BUDGET": "8"}, False),
    ("Q8/F7, HOPFLIFT_H2_BUDGET=8", ["Q8", "7", "1"], {"HOPFLIFT_H2_BUDGET": "8"}, False),
    ("dual(D4)/F5, HOPFLIFT_H2_BUDGET=8", ["dual(D4)", "5", "1"], {"HOPFLIFT_H2_BUDGET": "8"}, False),
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


def probe(tree, argv, extra_env, cap_bytes):
    out, err, code, wall, rss = run_child(tree, ["-c", PROBE, *argv], extra_env, cap_bytes)
    row = json.loads(out.strip().splitlines()[-1]) if code == 0 else {"error": f"exit {code}: {err[-300:]}"}
    row.update(wall_s=wall, peak_rss_mb=rss)
    row["correct"] = row.get("dims") == [0, 0, 0]
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


def summary(rows, change_only):
    """Medians of the change alone, or the paired summary of both sides."""
    out = {}
    for key in ("wall_s", "peak_rss_mb"):
        series = {side: [r[key] for r in runs] for side, runs in rows.items()}
        if change_only:
            out[key] = {"change_median": statistics.median(series["change"])}
        else:
            out[key] = pipeline.paired(series, "lower")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=HERE)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seeds", default="1001-1006")
    ap.add_argument("--cap-gb", type=float, default=4.0)
    ap.add_argument("--out", default=os.path.join(HERE, "BENCH_reduced_cohomology.json"))
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        pipeline.check_no_bytecode(tree)
    cap = int(args.cap_gb * (1 << 30))
    lo, hi = (int(s) for s in args.seeds.split("-"))

    labels = [label for label, *_ in CASES] + [CLI_STEP]
    runs = {label: {"parent": [], "change": []} for label in labels}
    for i in range(args.repeats):
        for side in pipeline.sides(i):
            for label, argv, env, both in CASES:
                if both or side == "change":
                    runs[label][side].append(probe(trees[side], argv, env, cap))
            runs[CLI_STEP][side].append(cli_step(trees[side], cap))
        print(f"repeat {i + 1}/{args.repeats}: cohomology probes done", flush=True)

    workloads = {w: {"parent": [], "change": []} for w in pipeline.WORKLOADS}
    for i, seed in enumerate(range(lo, hi + 1)):
        for name in pipeline.WORKLOADS:
            for side in pipeline.sides(i):
                row = pipeline.run_workload(trees[side], name, seed)
                workloads[name][side].append({"seed": seed, "first": pipeline.sides(i)[0], **row})
                print(f"seed {seed} {name} {side}: " + json.dumps(row), flush=True)

    def series(rows, key):
        return {side: [r[key] for r in rows[side]] for side in rows}

    record = {
        "what": (
            f"cohomology_dim in degrees 0-2 and the CLI cohomology step, {args.repeats} fresh processes per side "
            f"under a {args.cap_gb:g} GB address-space cap; perfbench/run.py --workload W --seed S at default "
            f"settings, seeds {args.seeds}. Parent and change run from separate checkouts, the side that runs "
            "first alternating, every process pinned to one CPU. Produced by scripts/bench_reduced_cohomology.py"
        ),
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "cohomology": {
            label: {
                "runs": {side: rows for side, rows in runs[label].items() if rows},
                "summary": summary(runs[label], not runs[label]["parent"]),
                "all_correct": {side: all(r["correct"] for r in rows) for side, rows in runs[label].items() if rows},
            }
            for label in labels
        },
        "workloads": {
            name: {
                "runs": workloads[name],
                "summary": {k: pipeline.paired(series(workloads[name], k), b) for k, b in pipeline.METRICS.items()},
                "all_correct": all(r["correct"] for side in workloads[name].values() for r in side),
            }
            for name in pipeline.WORKLOADS
        },
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
