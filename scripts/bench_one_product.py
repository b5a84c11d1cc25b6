#!/usr/bin/env python3
"""Products in F_{p^m} and GR(p^n, m), m = 2, 3 and 4, end to end and in the
kernels: two source checkouts compared.

Usage:
  python scripts/bench_one_product.py --parent DIR [--change DIR] [--repeats 5]
                                      [--cap-gb 4] [--cases TEXT]
                                      [--out BENCH_one_product.json]

DIR is a source checkout, e.g. made by `git archive REV | tar -x -C DIR`;
--change defaults to this checkout.  Both must be free of __pycache__ under
src/.  Each repeat runs every probe once per side, the side that runs first
alternating, each in a fresh process pinned to one CPU with one BLAS thread
and an address-space cap of --cap-gb GB (scripts/bench_reduced_cohomology.py's
probe): its in-process seconds, wall time, peak RSS and the SHA-256 of its
output.

- m = 2: cohomology_dim in degrees 0-2 of S3/F25; the perturbed:1 lifts to
  p^4 of S3/F25 and D4/F9, and 20 of C3/F4 in one process (the first cold);
  verify_hopf and grouplikes of S3.double/F25.
- m = 3 and 4: the perturbed:1 lifts to p^4 of D4/F27, S3/F125, C3/F16 and
  C7/F8; cohomology_dim in degrees 0-2 of S3/F125; verify_hopf of
  S3.double/F27 and grouplikes of C4.double/F16.
- kernels: _arrays.elem_mul and _arrays.reg_rep on 8, 1,000 and 200,000
  random elements of F25, F27, F16 and F_((2^31-1)^2): the median over 5
  batches of the seconds per call, each batch at least 0.05 s.
- int64_mod: _arrays.int64_mod, numpy's in-place % and the division
  r - (r // q) q in one unchunked pass on 64 to 2^22 random int64 cells in
  [-2^62, 2^62), mod q = 2, 81, 7^10, 2^31 - 1 and 2^61 - 1: the median over
  5 batches of the seconds per call, less those of the copy that gives each
  call its fresh input.

A lift's digest is that of its JSON without the transcript's wall-clock
seconds; the others hash the dimensions, the failing axioms, the grouplikes
or the kernels' outputs.  --cases TEXT runs only the probes whose label
contains TEXT (several texts separated by "|").  Writes every raw run, the
medians, the parent's quartiles and the pairs in which the change did better
to --out.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "scripts"))
import bench_cli_pipeline as pipeline  # noqa: E402
import bench_reduced_cohomology as reduced  # noqa: E402

PROBE = r"""
import hashlib, json, sys, time
from hopflift import cohomology as coh
from hopflift import hopfcore as hc
from hopflift import lifting as lf
from hopflift import serialize as ser
from hopflift.coeffring import make_ring

kind, name, p, m = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
H = hc.generate(name, make_ring(p, 1, m))
t0 = time.perf_counter()
if kind == "cohomology":
    ctx = coh.make_context(H)
    result = [coh.cohomology_dim(ctx, n) for n in (0, 1, 2)]
    correct = result == [0, 0, 0]
elif kind == "lift":
    for _ in range(int(sys.argv[5])):
        st = lf.lift(H, 4, "perturbed:1")
    correct = not hc.verify_hopf(st.current).failing()
    result = ser.liftstate_to_json(st)
    result["transcript"] = [{k: v for k, v in rec.items() if k != "seconds"} for rec in result["transcript"]]
elif kind == "verify_hopf":
    result = hc.verify_hopf(H).failing()
    correct = result == []
else:
    result = [g.tolist() for g in hc.grouplikes(H)]
    correct = len(result) > 0
seconds = time.perf_counter() - t0
digest = hashlib.sha256(ser.dumps(result).encode()).hexdigest()
print(json.dumps({"seconds": seconds, "correct": correct, "sha256": digest}))
"""

KERNELS = r"""
import hashlib, json, statistics, time
import numpy as np
from hopflift import _arrays as ra
from hopflift.coeffring import make_ring

RINGS = {"F25": (5, 2), "F27": (3, 3), "F16": (2, 4), "F_(2^31-1)^2": ((1 << 31) - 1, 2)}
out, h = {}, hashlib.sha256()
for label, (p, m) in RINGS.items():
    desc = make_ring(p, 1, m)
    rng = np.random.default_rng(0)
    for size in (8, 1000, 200000):
        a, b = (rng.integers(0, desc.q, size=(size, m), dtype=np.int64) for _ in range(2))
        for kernel, call in (("elem_mul", lambda: ra.elem_mul(desc, a, b)), ("reg_rep", lambda: ra.reg_rep(desc, a))):
            h.update(call().tobytes())
            per_call = []
            for _ in range(5):
                calls, t0 = 0, time.perf_counter()
                while calls == 0 or time.perf_counter() - t0 < 0.05:
                    call()
                    calls += 1
                per_call.append((time.perf_counter() - t0) / calls)
            out[f"{kernel} {label} x{size}"] = statistics.median(per_call)
print(json.dumps({"kernels": out, "sha256": h.hexdigest(), "correct": True}))
"""

INT64_MOD = r"""
import hashlib, json, statistics, time
import numpy as np
from hopflift import _arrays as ra

RINGS = {"2": 2, "81": 81, "7^10": 7**10, "2^31-1": (1 << 31) - 1, "2^61-1": (1 << 61) - 1}
out, h = {}, hashlib.sha256()
rng = np.random.default_rng(0)


def divide(r, q):
    t = r // q
    t *= q
    r -= t


def per_call(fn, src, buf):
    times = []
    for _ in range(5):
        calls, t0 = 0, time.perf_counter()
        while calls == 0 or time.perf_counter() - t0 < 0.05:
            np.copyto(buf, src)
            fn(buf)
            calls += 1
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


for label, q in RINGS.items():
    for size in (64, 256, 512, 1024, 2048, 4096, 1 << 16, 1 << 20, 1 << 22):
        src = rng.integers(-(1 << 62), 1 << 62, size=size, dtype=np.int64)
        buf = src.copy()
        h.update(ra.int64_mod(buf, q).tobytes())
        copy = per_call(lambda r: None, src, buf)
        kinds = (
            ("int64_mod", lambda r: ra.int64_mod(r, q)),
            ("%", lambda r: np.remainder(r, q, out=r)),
            ("r - (r // q) q", lambda r: divide(r, q)),
        )
        for kind, fn in kinds:
            out[f"{kind} q={label} x{size}"] = max(0.0, per_call(fn, src, buf) - copy)
print(json.dumps({"kernels": out, "sha256": h.hexdigest(), "correct": True}))
"""

# label, probe argv
CASES = [
    ("cohomology_dim 0-2 S3/F25", ["cohomology", "S3", "5", "2"]),
    ("lift S3/F25 perturbed:1 p^4", ["lift", "S3", "5", "2", "1"]),
    ("20 lifts C3/F4 perturbed:1 p^4", ["lift", "C3", "2", "2", "20"]),
    ("lift D4/F9 perturbed:1 p^4", ["lift", "D4", "3", "2", "1"]),
    ("verify_hopf S3.double/F25", ["verify_hopf", "S3.double", "5", "2"]),
    ("grouplikes S3.double/F25", ["grouplikes", "S3.double", "5", "2"]),
    ("lift D4/F27 perturbed:1 p^4", ["lift", "D4", "3", "3", "1"]),
    ("lift S3/F125 perturbed:1 p^4", ["lift", "S3", "5", "3", "1"]),
    ("lift C3/F16 perturbed:1 p^4", ["lift", "C3", "2", "4", "1"]),
    ("lift C7/F8 perturbed:1 p^4", ["lift", "C7", "2", "3", "1"]),
    ("cohomology_dim 0-2 S3/F125", ["cohomology", "S3", "5", "3"]),
    ("verify_hopf S3.double/F27", ["verify_hopf", "S3.double", "3", "3"]),
    ("grouplikes C4.double/F16", ["grouplikes", "C4.double", "2", "4"]),
]
KERNEL_LABEL = "kernels elem_mul, reg_rep"
INT64_MOD_LABEL = "kernels int64_mod, %, r - (r // q) q"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", default=HERE)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--cap-gb", type=float, default=4.0)
    ap.add_argument("--cases", default=None)
    ap.add_argument("--out", default=os.path.join(HERE, "BENCH_one_product.json"))
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        pipeline.check_no_bytecode(tree)
    cap = int(args.cap_gb * (1 << 30))

    cases = [(label, PROBE, argv) for label, argv in CASES] + [(KERNEL_LABEL, KERNELS, []), (INT64_MOD_LABEL, INT64_MOD, [])]
    cases = [case for case in cases if args.cases is None or any(t in case[0] for t in args.cases.split("|"))]
    runs = {label: {"parent": [], "change": []} for label, *_ in cases}
    for i in range(args.repeats):
        for side in pipeline.sides(i):
            for label, code_text, argv in cases:
                runs[label][side].append(reduced.probe(trees[side], code_text, argv, {}, cap))
        print(f"repeat {i + 1}/{args.repeats} done", flush=True)

    record = {
        "what": (
            "m = 2, 3 and 4 probes (cohomology_dim 0-2, perturbed:1 lifts to p^4, verify_hopf, grouplikes), the "
            f"elem_mul and reg_rep kernels and int64_mod against % and r - (r // q) q{'' if args.cases is None else f' (only those labelled *{args.cases}*)'}, "
            f"{args.repeats} fresh processes per side under a {args.cap_gb:g} GB address-space cap. Parent and "
            "change run from separate checkouts, the side that runs first alternating, every process pinned to one "
            "CPU. Produced by scripts/bench_one_product.py"
        ),
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "probes": {},
    }
    for label, rows in runs.items():
        entry = {"runs": rows, "summary": reduced.summary(rows),
                 "all_correct": {side: all(r["correct"] for r in side_rows) for side, side_rows in rows.items()}}
        if all("kernels" in r for side_rows in rows.values() for r in side_rows):
            keys = rows["parent"][0]["kernels"]
            entry["kernels"] = {
                key: pipeline.paired({side: [r["kernels"][key] for r in side_rows] for side, side_rows in rows.items()}, "lower")
                for key in keys
            }
        record["probes"][label] = entry
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
