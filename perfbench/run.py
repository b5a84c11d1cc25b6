"""Benchmark of record for hopflift.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Runs from the root of a source checkout and measures the package in ./src.
Each workload runs in a fresh process (perfbench/workload.py) with every
HOPFLIFT_* variable cleared and the BLAS thread count fixed.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
the traced run with --trace 1.  The lines before it give the environment and
any notes.  `--workload all` runs every workload in turn, prints a table of
its metrics and can write the whole record (environment included) to --out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import per_layer_metrics  # noqa: E402

WORKLOADS = ("lift_cold", "lift_warm", "cli_pipeline")
# the workload whose result carries the note of workload.probe_defect, which
# runs in a process of its own so that it counts in no metric
PROBED_WORKLOAD = "lift_warm"
# today the probe fails within a second; a probe that hangs must not push the
# run past its time limit
PROBE_TIMEOUT_S = 30
# one BLAS thread, and the workload process with its children pinned to one
# CPU (the highest one allowed): on a shared 2-core host this made a cold
# D4/F3 lift both faster and steadier, and lets the calibration sample run on
# the CPU that runs the operations
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 175
P90_MIN_OPS = 100
# set-up is repeated in extra set-up-only processes, SETUP_SAMPLES[name] in all
# with the run's own; setup_s is their median (lift_warm sets up for about 10 s)
SETUP_SAMPLES = {"lift_cold": 5, "lift_warm": 3, "cli_pipeline": 5}
# Operation times of calibrated workloads, and set-up times of workloads with a
# calibrated set-up, are reported at a reference machine speed: each is scaled
# by CALIBRATION_REF_S / (the fastest of three runs of
# workload.calibration_sample just before the op, or just after the set-up).
# The constant is a typical calibration time on the 2-core x86-64 host the
# bounds were set on (scipy-openblas 0.3.31, one BLAS thread).  Other times
# are wall-clock.
CALIBRATION_REF_S = 0.010


def metric_units(kind):
    """name -> unit for the BENCHMARK.json metrics of one kind (end_to_end or per_layer)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HOPFLIFT_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def machine():
    info = {"nproc": os.cpu_count(), "ram_mb": None, "git_rev": None, "git_dirty": None}
    try:
        with open("/proc/meminfo") as fh:
            info["ram_mb"] = int(fh.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            info["git_rev"] = rev.stdout.strip() or None
            info["git_dirty"] = bool(dirty.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def run_child(name, seed, seconds, trace, *extra):
    """Run workload.py once; return its report and [set-up seconds, calibration seconds or None]."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    spawned = time.time()
    child = run_process(args, f"workload {name}")
    return child, [child["first_op_wall"] - spawned, child["setup_calibration_s"]]


def run_process(args, what, timeout=CHILD_TIMEOUT_S):
    """Run workload.py ARGS pinned to one CPU; return the JSON object on its last line."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *args]
    cpu = max(os.sched_getaffinity(0))
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{what} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_note(seed):
    """The note of workload.probe_defect; a probe that crashes or hangs gives a note too."""
    try:
        return run_process(["--probe-defect", "--seed", str(seed)], "defect probe", PROBE_TIMEOUT_S)["note"]
    except (SystemExit, subprocess.TimeoutExpired) as exc:
        return f"known defect changed: the probe did not finish ({exc})"


def scaled(seconds, calibration_s):
    """Seconds at the reference machine speed; as measured where there is no calibration."""
    return seconds * CALIBRATION_REF_S / calibration_s if calibration_s else seconds


def run_workload(name, seed, seconds, trace):
    """Run one workload; return (result for the last stdout line, full record)."""
    child, setup_s = run_child(name, seed, seconds, trace)
    setups = [setup_s]
    while not trace and len(setups) < SETUP_SAMPLES[name]:
        setups.append(run_child(name, seed, seconds, trace, "--setup-only")[1])
    raw_s = [seconds for seconds, _ in child["ops"]]
    scaled_s = [scaled(seconds, cal) for seconds, cal in child["ops"]]
    raw = {
        "ops_per_s": len(raw_s) / sum(raw_s),
        "op_s.p50": statistics.median(raw_s),
        "setup_s": statistics.median(seconds for seconds, _ in setups),
    }
    cals = [cal for _, cal in child["ops"] if cal]
    if cals:
        raw["calibration_s"] = statistics.median(cals)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "blas_threads": BLAS_THREADS,
        "passes": child["passes"],
        "ops": len(raw_s),
        "attempted": child["attempted"],
        "failed": child["failed"],
        "fail_frac": child["failed"] / child["attempted"],
        "errors": child["errors"],
        "notes": [],
        "setup_samples_s": setups,
        "env": {**child["env"], **machine()},
        "raw": raw,
    }
    if name == PROBED_WORKLOAD:
        record["notes"].append(probe_note(seed))
    if trace:
        units = metric_units("per_layer")
        t = child["trace"]
        values = per_layer_metrics(list(units), t["snapshot"], t["ops"], t["coverage"], t["overhead"])
    else:
        units = metric_units("end_to_end")
        values = {
            "ops_per_s": len(scaled_s) / sum(scaled_s),
            "op_s.p50": statistics.median(scaled_s),
            "setup_s": statistics.median(scaled(seconds, cal) for seconds, cal in setups),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        if len(scaled_s) >= P90_MIN_OPS:
            record["op_s.p90"] = statistics.quantiles(scaled_s, n=10)[-1]
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record["metrics"] = metrics
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    return result, record


def print_table(record):
    print(f"== {record['workload']} (seed {record['seed']}, {record['ops']} ops in {record['passes']} passes, "
          f"failed {record['failed']}/{record['attempted']}, fail_frac {record['fail_frac']:.4f})")
    for k, m in record["metrics"].items():
        print(f"   {k:45s} {m['value']:14.6g} {m['unit']}")
    if "op_s.p90" in record:
        print(f"   {'op_s.p90':45s} {record['op_s.p90']:14.6g} s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="with --workload all: write every record to this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hopflift", "__init__.py")):
        sys.exit(f"no hopflift sources under {SRC}: run from a source checkout")

    if args.workload != "all":
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("# env " + json.dumps(record["env"], sort_keys=True))
        print("# unscaled " + json.dumps(record["raw"], sort_keys=True))
        print("# setup samples " + json.dumps(record["setup_samples_s"]))
        for note in record["notes"] + record["errors"]:
            print("# " + note)
        print(json.dumps(result))
        return 0

    records = []
    for name in WORKLOADS:
        _, record = run_workload(name, args.seed, args.seconds, args.trace)
        print_table(record)
        print("   # unscaled " + json.dumps(record["raw"], sort_keys=True))
        for note in record["notes"] + record["errors"]:
            print("   # " + note)
        records.append(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    ok = all(r["failed"] == 0 for r in records)
    print(json.dumps({"correct": ok, "workloads": [r["workload"] for r in records]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
