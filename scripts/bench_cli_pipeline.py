#!/usr/bin/env python3
"""Paired benchmark of two source checkouts on the CLI pipeline.

Usage:
  python scripts/bench_cli_pipeline.py --parent DIR [--change DIR] [--seeds 1001-1006]
                                       [--repeats 5] [--workloads cli_pipeline,lift_cold,lift_warm]
                                       [--gate 0] [--out BENCH_cli_pipeline.json]

DIR is a source checkout, e.g. made by `git archive REV | tar -x -C DIR`;
--change defaults to this checkout.  Up to four parts, each of which alternates
the side that runs first:

- workloads: `perfbench/run.py --workload W --seed S` at default settings,
  for the three workloads and every seed, run from each checkout;
- steps: the 20 commands of the cli_pipeline workload, each one
  `python -m hopflift.cli` with the benchmark's environment (one BLAS thread,
  PYTHONDONTWRITEBYTECODE=1, pinned to one CPU); the wall time and the peak
  RSS (the child's ru_maxrss, from os.wait4) of every step in --repeats
  passes and their medians;
- kernels: grouplikes, presentation_from_json (with and without its
  verify_hopf), presentation_to_json, verify_hopf and verify_qt (of its
  canonical R) of S3.double/F7, and drinfeld_double(S3/F7); and the
  FieldSolver builds of a cold perturbed lift to p^4 of D4/F3, D4.dual/F5
  and Q8/F7, each distinct input once, labelled by the function that built
  it (integral, _ad_solver, _dc_ad_solver, _contraction) and its shape: the
  median of five calls each, in one fresh process per side and repeat;
- gate (with --gate N): N pairs of one fresh process that runs the
  acceptance gate's criteria 2 and 4, and the seconds of each.

--repeats 0 skips the steps and the kernels.

Both checkouts must be free of __pycache__ under src/, as fresh ones are:
bytecode left in one tree would spare that side's CLI children the compile
time the other side pays.

Writes every raw run, the medians, the parent's quartiles and the number of
pairs in which the change did better to --out.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli_pipeline", "lift_cold", "lift_warm")
METRICS = {"ops_per_s": "higher", "op_s.p50": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}

KERNELS = r"""
import hashlib, json, statistics, time, traceback
from hopflift import _linalg
from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift.coeffring import make_ring

S3 = hc.generate("S3", make_ring(7))
H, R = hc.drinfeld_double(S3)
obj = ser.loads(ser.dumps(ser.presentation_to_json(H)))


def median_s(fn, k=5):
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# label -> (desc, input, rank_only) of each distinct FieldSolver input of a
# cold perturbed lift to p^4 of name/F_p, in the order first built
def solver_builds(name, p):
    builds, seen, real = {}, set(), _linalg.FieldSolver.__init__

    def record(self, desc, marr, rank_only=False):
        coo = marr if isinstance(marr, _linalg.CooMatrix) else _linalg.CooMatrix.from_dense(marr % desc.q)
        key = hashlib.sha256(b"".join(a.tobytes() for a in (coo.rows, coo.cols, coo.vals))).hexdigest()
        if key not in seen:
            seen.add(key)
            # the innermost caller that is not a memo or its builder
            role = next(f.name for f in traceback.extract_stack()[-2::-1] if f.name not in ("<lambda>", "memo", "build"))
            label = f"FieldSolver({name}/F{p}: {role} {marr.shape[0]}x{marr.shape[1]}"
            same = sum(k.startswith(label) for k in builds)
            builds[label + (f" #{same + 1})" if same else ")")] = (desc, marr, rank_only)
        real(self, desc, marr, rank_only)

    coh._CACHE.clear()
    _linalg.FieldSolver.__init__ = record
    try:
        lf.lift(hc.generate(name, make_ring(p)), 4, "perturbed:1")
    finally:
        _linalg.FieldSolver.__init__ = real
    return builds


solvers = {}
for name, p in (("D4", 3), ("D4.dual", 5), ("Q8", 7)):
    for label, (desc, marr, rank_only) in solver_builds(name, p).items():
        solvers[label] = median_s(lambda: _linalg.FieldSolver(desc, marr, rank_only))

print(json.dumps({
    **solvers,
    "grouplikes(S3.double/F7)": median_s(lambda: hc.grouplikes(H)),
    "presentation_from_json(S3.double/F7, verify=False)": median_s(lambda: ser.presentation_from_json(obj, verify=False)),
    "presentation_from_json(S3.double/F7)": median_s(lambda: ser.presentation_from_json(obj)),
    "presentation_to_json(S3.double/F7)": median_s(lambda: ser.presentation_to_json(H)),
    "drinfeld_double(S3/F7)": median_s(lambda: hc.drinfeld_double(S3)),
    "verify_hopf(S3.double/F7)": median_s(lambda: hc.verify_hopf(H)),
    "verify_qt(S3.double/F7)": median_s(lambda: hc.verify_qt(H, R.R)),
}))
"""

STEPS = r"""
import json, sys
sys.path.insert(0, "perfbench")
import workload
workload.write_cli_inputs(sys.argv[1])
strategy = workload.CLI_STRATEGIES[0]
print(json.dumps([[label, [strategy if a == workload.STRATEGY else a for a in argv], code]
                  for label, argv, code, _, _ in workload.CLI_STEPS]))
"""


def bench_env(tree):
    env = {k: v for k, v in os.environ.items() if not k.startswith("HOPFLIFT_")}
    env.update(PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def pinned():
    cpu = max(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def python(tree, args, cwd=None):
    proc = subprocess.run([sys.executable, *args], cwd=cwd or tree, env=bench_env(tree), capture_output=True,
                          text=True, preexec_fn=pinned())
    if proc.returncode:
        sys.exit(f"{args[:2]} in {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout


def check_no_bytecode(tree):
    for root, dirs, _ in os.walk(os.path.join(tree, "src")):
        if "__pycache__" in dirs:
            sys.exit(f"{os.path.join(root, '__pycache__')} exists: bench a fresh checkout")


def run_workload(tree, name, seed):
    out = python(tree, ["perfbench/run.py", "--workload", name, "--seed", str(seed)])
    result = json.loads(out.strip().splitlines()[-1])
    row = {k: result[k] for k in ("correct", "attempted", "failed")}
    row.update({k: m["value"] for k, m in result["metrics"].items()})
    return row


def run_steps(tree):
    """Wall seconds and peak RSS (MB) of each cli_pipeline command, in pipeline order."""
    workdir = tempfile.mkdtemp(prefix="bench-steps-")
    try:
        steps = json.loads(python(tree, ["-c", STEPS, workdir]))
        times, peaks = {}, {}
        for label, argv, code in steps:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "hopflift.cli", *argv], cwd=workdir, env=bench_env(tree),
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=pinned())
            _, status, usage = os.wait4(proc.pid, 0)
            times[label], peaks[label] = time.perf_counter() - t0, usage.ru_maxrss / 1024
            if os.waitstatus_to_exitcode(status) != code:
                sys.exit(f"{label} in {tree} exited {os.waitstatus_to_exitcode(status)}, expected {code}")
        return times, peaks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


GATE = r"""
import json, sys
from hopflift import acceptance

results = acceptance.run([int(a) for a in sys.argv[1:]], report=lambda line: None)
print(json.dumps([[r.number, r.passed, r.detail, r.seconds] for r in results]))
"""
# criterion 2 calls d_coalg the most, criterion 4 is most of the gate's time
GATE_CRITERIA = (2, 4)


def run_gate(tree):
    """Seconds of each criterion in GATE_CRITERIA, in one fresh process."""
    results = json.loads(python(tree, ["-c", GATE, *map(str, GATE_CRITERIA)]).strip().splitlines()[-1])
    for number, passed, detail, _ in results:
        if not passed:
            sys.exit(f"criterion {number} failed in {tree}: {detail}")
    return {number: seconds for number, _, _, seconds in results}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def paired(runs, better):
    """Medians, the parent's quartiles and the pairs the change won."""
    parent, change = runs["parent"], runs["change"]
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    return {
        "parent_median": statistics.median(parent),
        "parent_quartiles": quartiles(parent) if len(parent) > 1 else None,
        "change_median": statistics.median(change),
        "ratio": statistics.median(change) / statistics.median(parent) if statistics.median(parent) else None,
        "change_better_pairs": f"{wins}/{len(parent)}",
    }


def sides(i):
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=HERE)
    ap.add_argument("--seeds", default="1001-1006")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--gate", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "BENCH_cli_pipeline.json"))
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        check_no_bytecode(tree)
    lo, hi = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    workloads = args.workloads.split(",")

    kernels = {"parent": [], "change": []}
    steps = {"parent": [], "change": []}
    steps_rss = {"parent": [], "change": []}
    for i in range(args.repeats):
        for side in sides(i):
            kernels[side].append(json.loads(python(trees[side], ["-c", KERNELS]).strip().splitlines()[-1]))
            times, peaks = run_steps(trees[side])
            steps[side].append(times)
            steps_rss[side].append(peaks)
        print(f"repeat {i + 1}/{args.repeats}: kernels and steps done", flush=True)

    gate = {n: {"parent": [], "change": []} for n in GATE_CRITERIA}
    for i in range(args.gate):
        for side in sides(i):
            for n, seconds in run_gate(trees[side]).items():
                gate[n][side].append(seconds)
        print(f"gate pair {i + 1}/{args.gate}: " + json.dumps({n: {s: gate[n][s][-1] for s in gate[n]} for n in gate}),
              flush=True)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i, seed in enumerate(seeds):
        for name in workloads:
            for side in sides(i):
                row = run_workload(trees[side], name, seed)
                runs[name][side].append({"seed": seed, "first": sides(i)[0], **row})
                print(f"seed {seed} {name} {side}: " + json.dumps(row), flush=True)

    def series(rows, key):
        return {side: [r[key] for r in rows[side]] for side in rows}

    record = {
        "what": (
            f"perfbench/run.py --workload W --seed S at default settings for W in {args.workloads}, seeds "
            f"{args.seeds}; the 20 cli_pipeline commands timed one by one with their peak RSS, {args.repeats} passes, "
            f"and kernels of S3.double/F7 in a fresh process, {args.repeats} repeats of a median of five calls (none if 0); "
            f"criteria {GATE_CRITERIA} of the acceptance gate, {args.gate} pairs. Parent and change run from separate "
            "checkouts, the side that runs first alternating. Produced by scripts/bench_cli_pipeline.py"
        ),
        "machine": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "pinning": "every timed process is pinned to one CPU",
        },
        "workloads": {
            name: {
                "runs": runs[name],
                "summary": {k: paired(series(runs[name], k), better) for k, better in METRICS.items()},
                "all_correct": all(r["correct"] for side in runs[name].values() for r in side),
            }
            for name in workloads
        },
    }
    if args.repeats:
        record.update(
            steps_s={label: paired(series(steps, label), "lower") for label in steps["change"][0]},
            steps_total_s=paired({s: [sum(p.values()) for p in steps[s]] for s in steps}, "lower"),
            steps_peak_rss_mb={label: paired(series(steps_rss, label), "lower") for label in steps_rss["change"][0]},
            kernels_s={key: paired(series(kernels, key), "lower") for key in kernels["change"][0]},
            raw_steps_s=steps,
            raw_steps_peak_rss_mb=steps_rss,
            raw_kernels_s=kernels,
        )
    if args.gate:
        record.update({f"criterion{n}_s": {"summary": paired(gate[n], "lower"), "runs": gate[n]} for n in gate})
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
