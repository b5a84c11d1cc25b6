"""Run-to-run spread of the end-to-end metrics, the basis of the bounds.

    python3 perfbench/spread.py --workloads lift_warm,cli_pipeline --seeds 1-10 [--out FILE]

Runs run.py once per (workload, seed), one run at a time, and prints for
every end-to-end metric its median, quartiles and (Q3 - Q1) / median, with
the quartiles of statistics.quantiles(values, n=4).  For setup_s it also
prints the spread of the run's own set-up alone, without the extra set-up
samples.  --out keeps the raw values, set-up samples included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, scaled  # noqa: E402

SETUP_LINE = "# setup samples "


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect result {result}")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            runs[-1]["setup_samples"] = next(json.loads(x[len(SETUP_LINE):]) for x in lines if x.startswith(SETUP_LINE))
        raw[name] = runs
        for metric in bounds:
            q1, med, q3, s = spread([r[metric] for r in runs])
            flag = "" if s < bounds[metric] / 3 else "  <-- above a third of the bound"
            print(f"  {name:13s} {metric:12s} median {med:10.5g}  Q1 {q1:10.5g}  Q3 {q3:10.5g}  "
                  f"spread {s:.4f} (bound {bounds[metric]}){flag}", flush=True)
        _, med, _, s = spread([scaled(*r["setup_samples"][0]) for r in runs])
        print(f"  {name:13s} setup_s of the run's own set-up alone: median {med:.5g}  spread {s:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": seconds, "runs": raw}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
