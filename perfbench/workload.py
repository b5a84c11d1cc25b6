"""One workload process of the benchmark: set up, run the timed phase, report.

run.py starts this file in a fresh interpreter, pinned to one CPU, with a
cleaned environment (no HOPFLIFT_* variables, one BLAS thread,
PYTHONPATH=<checkout>/src) and reads the JSON object printed on the last line
of standard output.

Every workload is a closed loop with one client: the next operation starts
when the previous one returned.  The timed phase runs whole passes over the
workload's inputs until --seconds have elapsed, so every run measures the same
mix of operations.  With --trace 1 the same passes are run again with the
layer wrappers installed; outputs of the two phases must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "cli_digests.json")
WORK = os.path.join(ROOT, ".perfbench_tmp")

import numpy as np  # noqa: E402

import hopflift  # noqa: E402

if os.path.dirname(os.path.abspath(hopflift.__file__)) != os.path.join(SRC, "hopflift"):
    sys.exit(f"hopflift imported from {hopflift.__file__}, not from {SRC}")

from hopflift import cohomology as coh  # noqa: E402
from hopflift import hopfcore as hc  # noqa: E402
from hopflift import lifting as lf  # noqa: E402
from hopflift import serialize as ser  # noqa: E402
from hopflift.coeffring import make_ring  # noqa: E402

import tracer as trace_mod  # noqa: E402


class CheckFailed(Exception):
    """An operation returned, but its output is not the exact expected one."""


@dataclass
class Op:
    label: str
    run: Callable  # timed; returns the value that check() inspects
    check: Callable  # untimed; raises CheckFailed, returns the output digest
    cold: bool = False  # start from an empty context cache, as a new process does


SETUP_PASS = 1 << 30  # pass index of the seeds used during set-up


def derive_seed(seed, *index):
    return int(np.random.default_rng([seed & 0xFFFFFFFF, *index]).integers(1, 1 << 31))


def sha(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def lift_json(state):
    """Canonical lift-state JSON without the transcript's wall-clock seconds."""
    obj = ser.liftstate_to_json(state)
    obj["transcript"] = [{k: v for k, v in rec.items() if k != "seconds"} for rec in obj["transcript"]]
    return ser.dumps(obj)


def check_lift(state, base, precision):
    if state.precision != precision or state.current.ring.n != precision:
        raise CheckFailed(f"lift reached precision {state.precision}, not {precision}")
    if not hc.verify_hopf(state.current).all_pass:
        raise CheckFailed("verify_hopf fails on the lift")
    if hc.reduce_presentation(state.current, base.ring) != base:
        raise CheckFailed("lift does not reduce to its base")


def check_identity_mod_p(eta, p):
    n, m = eta.shape[0], eta.shape[-1]
    ident = np.zeros((n, n, m), dtype=np.int64)
    ident[np.arange(n), np.arange(n), 0] = 1
    if not np.array_equal(np.asarray(eta) % p, ident):
        raise CheckFailed("reconcile is not the identity mod p")


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.integers(0, 7, size=(64, 8, 8))
_CAL_B = _CAL_RNG.integers(0, 7, size=(8, 8, 64))
_CAL_M = _CAL_RNG.integers(0, 7, size=(300, 300)).astype(np.float64)
CALIBRATIONS_PER_OP = 3


def calibration_sample():
    """Seconds for a fixed task that mixes small numpy contractions, interpreter
    work and one BLAS product, without hopflift.

    On a shared host the speed of in-process, cache-resident work changes from
    second to second; the fastest of three samples taken just before a short
    operation tracks it, and run.py scales that operation's time by it.  It
    does not track long, memory-heavy operations, so only workloads that set
    ``calibrated`` use it."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(150):
        r = np.tensordot(_CAL_A.astype(np.float64), _CAL_B.astype(np.float64), ([1, 2], [0, 1]))
        acc += int(r.astype(np.int64)[0, 0] % 7)
        acc += sum({i: i * i for i in range(200)}.values()) % 3
    acc += int((_CAL_M @ _CAL_M)[0, 0]) % 3
    return time.perf_counter() - t0


class Workload:
    """Set-up in __init__; ops(i) yields the operations of pass i."""

    calibrated = False  # scale op times by calibration_sample (see there)
    # scale the set-up time by a calibration_sample taken just after it; on a
    # shared 2-core host the import-bound set-ups run at one of two speeds,
    # and this cut the quartile spread of setup_s in six of seven sets of
    # seeds, e.g. from 0.45 to 0.05 (perfbench/README.md)
    setup_calibrated = True

    def close(self):
        """Remove what set-up left on disk."""


def warm_up():
    """Load the numpy and BLAS code paths once, outside any timing."""
    lf.lift(hc.generate("C2", make_ring(3)), 2, "perturbed:1")
    coh._CACHE.clear()


# ---------------------------------------------------------------------------
# lift_cold: one-off degree-1 context set-up plus a lift, per operation

COLD_BASES = (("D4", 3), ("D4.dual", 5), ("Q8", 7))
COLD_PRECISION = 4


class LiftCold(Workload):
    def __init__(self, seed):
        self.seed = seed
        self.bases = [(f"{name}/F{p}", hc.generate(name, make_ring(p))) for name, p in COLD_BASES]
        warm_up()

    def ops(self, i):
        for j, (label, base) in enumerate(self.bases):
            strategy = f"perturbed:{derive_seed(self.seed, i, j)}"

            def run(base=base, strategy=strategy):
                return lf.lift(base, COLD_PRECISION, strategy)

            def check(state, base=base):
                check_lift(state, base, COLD_PRECISION)
                return sha(lift_json(state))

            yield Op(f"lift {label} p^{COLD_PRECISION}", run, check, cold=True)


# ---------------------------------------------------------------------------
# lift_warm: perturbed lifts against warm contexts, verified and reconciled

WARM_BASES = (("D4", 3, 1, 4), ("S3", 7, 1, 10), ("C3", 2, 2, 4))
# lift(C2/F7, 11) takes the object-dtype kernel path and raises today
DEFECT_PROBE = ("C2", 7, 1, 11)


class LiftWarm(Workload):
    # ops of 0.1-0.5 s on small arrays: calibration pairing cut the spread of
    # op_s.p50 over 10 s windows from 0.17 to 0.03 on a shared 2-core host
    calibrated = True
    # most of the set-up is one cold D4/F3 context set-up (6-7 s), a long,
    # memory-heavy step that the calibration does not track: scaled, the
    # spread of the set-up time over six seeds rose from 0.13 to 0.17
    setup_calibrated = False

    def __init__(self, seed):
        self.seed = seed
        self.bases = []
        for name, p, m, n in WARM_BASES:
            base = hc.generate(name, make_ring(p, 1, m))
            canonical = lf.lift(base, n)
            check_lift(canonical, base, n)
            check_lift(lf.lift(base, n, f"perturbed:{derive_seed(seed, SETUP_PASS, 0)}"), base, n)
            self.bases.append((f"{name}/F{p**m} p^{n}", base, n, canonical))

    def ops(self, i):
        for j, (label, base, n, canonical) in enumerate(self.bases):
            strategy = f"perturbed:{derive_seed(self.seed, i, j)}"

            def run(base=base, n=n, canonical=canonical, strategy=strategy):
                state = lf.lift(base, n, strategy)
                verified = hc.verify_hopf(state.current).all_pass
                reduces = hc.reduce_presentation(state.current, base.ring) == base
                eta = lf.reconcile(canonical, state)
                return state, verified, reduces, eta

            def check(value, base=base):
                state, verified, reduces, eta = value
                if not verified:
                    raise CheckFailed("verify_hopf fails on the lift")
                if not reduces:
                    raise CheckFailed("lift does not reduce to its base")
                check_identity_mod_p(eta.coeffs, base.ring.p)
                return sha(lift_json(state) + ser.dumps(eta.coeffs.tolist()))

            yield Op(f"warm lift {label}", run, check)


def probe_defect(seed):
    """One note on the known lift(C2/F7, 11) defect; run.py runs it in a process of its own."""
    name, p, m, n = DEFECT_PROBE
    label = f"lift({name}/F{p**m}, {n})"
    try:
        base = hc.generate(name, make_ring(p, 1, m))
        state = lf.lift(base, n, f"perturbed:{derive_seed(seed, SETUP_PASS, 1)}")
        check_lift(state, base, n)
    except AttributeError as exc:
        return f"known defect: {label} raises AttributeError ({exc}); object-dtype path, ROADMAP item 4"
    except Exception as exc:  # a changed failure is reported, never fatal
        return f"known defect changed: {label} now fails with {type(exc).__name__}: {exc}"
    return f"{label} lifts and verifies: the object-dtype defect no longer shows"


# ---------------------------------------------------------------------------
# cli_pipeline: the README pipelines as sequential `python -m hopflift.cli` runs

STRATEGY = "{strategy}"
# the perturbed strategies of the seed-dependent steps; the workload seed picks
# one, and cli_digests.json holds the digests of every one of them
CLI_STRATEGIES = tuple(f"perturbed:{s}" for s in (11, 23, 37, 41, 53, 67, 79, 97))
# (label, argv, expected exit code, output file or None, depends on the seed)
CLI_STEPS = (
    ("gen S3/F7", ["gen", "S3", "--p", "7", "-o", "s3.json"], 0, "s3.json", False),
    ("validate S3/F7", ["validate", "s3.json"], 0, None, False),
    ("analyze S3/F7", ["analyze", "s3.json"], 0, None, False),
    ("gen C3/F3", ["gen", "C3", "--p", "3", "-o", "c3.json"], 0, "c3.json", False),
    ("analyze C3/F3", ["analyze", "c3.json"], 1, None, False),
    ("gen C2.double/F5", ["gen", "C2.double", "--p", "5", "-o", "d2.json"], 0, "d2.json", False),
    ("cohomology C2.double/F5", ["cohomology", "d2.json", "--degree", "0,1,2", "--invariants"], 0, None, False),
    ("gen C2/F5", ["gen", "C2", "--p", "5", "-o", "c2.json"], 0, "c2.json", False),
    ("lift C2/F5 perturbed", ["lift", "c2.json", "--precision", "4", "--strategy", STRATEGY, "-o", "lift.json"], 0, "lift.json", True),
    ("lift C2/F5 canonical", ["lift", "c2.json", "--precision", "4", "-o", "canon.json"], 0, "canon.json", False),
    ("reconcile", ["reconcile", "canon.json", "lift.json", "-o", "eta.json"], 0, "eta.json", True),
    ("gen C4/F5", ["gen", "C4", "--p", "5", "-o", "c4.json"], 0, "c4.json", False),
    ("lift C4/F5 canonical", ["lift", "c4.json", "--precision", "4", "-o", "c4lift.json"], 0, "c4lift.json", False),
    ("lift-map", ["lift-map", "--map", "phi.json", "--lift-a", "lift.json", "--lift-b", "c4lift.json", "-o", "map.json"], 0, "map.json", True),
    ("lift-rmatrix", ["lift-rmatrix", "--r", "r1.json", "--lift", "lift.json", "-o", "rlift.json"], 0, "rlift.json", True),
    ("lemma41", ["lemma41", "--poly", "2,1,1", "--r", "3", "--p", "7"], 0, None, False),
    ("threshold", ["threshold", "--dim", "8"], 0, None, False),
    ("gen S3.double/F7", ["gen", "S3.double", "--p", "7", "-o", "s3d.json"], 0, "s3d.json", False),
    ("validate S3.double/F7", ["validate", "s3d.json"], 0, None, False),
    ("analyze S3.double/F7", ["analyze", "s3d.json"], 0, None, False),
)


def output_digest(stdout, workdir, out_file):
    """Digest of stdout plus the output file; lift states lose their seconds."""
    data = b""
    if out_file is not None:
        with open(os.path.join(workdir, out_file), "rb") as fh:
            data = fh.read()
        obj = json.loads(data)
        if isinstance(obj, dict) and "transcript" in obj:
            data = lift_json(ser.liftstate_from_json(obj)).encode()
    return sha(stdout + b"\0" + data)


def write_cli_inputs(workdir):
    """The morphism C2 -> C4 (g -> h^2) and an R-matrix of C2, over F5."""
    from hopflift import tensorcalc as tc

    f5 = make_ring(5)
    c2, c4 = hc.generate("C2", f5), hc.generate("C4", f5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    phi = hc.make_morphism(c2, c4, tc.MultiMap(f5, 1, 1, 2, 4, inc))
    r1 = tc.MultiMap(f5, 0, 2, 2, 2, np.array([3, 3, 3, 2], dtype=np.int64).reshape(4, 1, 1))
    with open(os.path.join(workdir, "phi.json"), "w") as fh:
        fh.write(ser.dumps(ser.morphism_to_json(phi)))
    with open(os.path.join(workdir, "r1.json"), "w") as fh:
        fh.write(ser.dumps(ser.rmatrix_to_json(c2, r1)))


def run_in_process(workdir, argv):
    """Run one CLI command through hopflift.cli.main in this process."""
    from hopflift import cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue().encode()


def digest_key(label, strategy, seeded):
    return f"{label} [{strategy}]" if seeded else label


def record_cli_digests():
    """Store the digests of every CLI step: once, and once per strategy for the seeded ones."""
    digests = {}
    for strategy in CLI_STRATEGIES:
        workdir = os.path.join(WORK, f"record-{os.getpid()}")
        os.makedirs(workdir)
        try:
            write_cli_inputs(workdir)
            for label, argv, code, out_file, seeded in CLI_STEPS:
                got, stdout = run_in_process(workdir, [strategy if a == STRATEGY else a for a in argv])
                if got != code:
                    raise CheckFailed(f"in-process {label} exited {got}, expected {code}")
                digests[digest_key(label, strategy, seeded)] = output_digest(stdout, workdir, out_file)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")


def read_json(workdir, name):
    with open(os.path.join(workdir, name)) as fh:
        return json.load(fh)


def check_cli_output(workdir, label):
    """Exact checks of a seeded step's output that do not rest on its digest."""
    if label == "lift C2/F5 perturbed":
        state = ser.liftstate_from_json(read_json(workdir, "lift.json"))
        check_lift(state, state.base, 4)
    elif label == "reconcile":
        check_identity_mod_p(np.array(read_json(workdir, "eta.json")["eta"], dtype=np.int64), 5)
    elif label == "lift-map":
        phi = ser.morphism_from_json(read_json(workdir, "map.json"), verify=False)
        fails = hc.morphism_failures(phi)
        if fails:
            raise CheckFailed(f"the lifted map fails {fails}")
        base = ser.morphism_from_json(read_json(workdir, "phi.json"))
        if not np.array_equal(phi.map.coeffs % 5, base.map.coeffs):
            raise CheckFailed("the lifted map does not reduce to the input map")
    elif label == "lift-rmatrix":
        state = ser.liftstate_from_json(read_json(workdir, "lift.json"))
        R = ser.rmatrix_from_json(read_json(workdir, "rlift.json"))
        if not hc.verify_qt(state.current, R).quasitriangular:
            raise CheckFailed("the lifted R-matrix is not quasitriangular")
        if not np.array_equal(R.coeffs % 5, ser.rmatrix_from_json(read_json(workdir, "r1.json")).coeffs):
            raise CheckFailed("the lifted R-matrix does not reduce to R")


class CliPipeline(Workload):
    # run.py pins the workload process, and so its CLI children, to one CPU;
    # the calibration then runs where the commands run, and pairing cut the
    # spread of the median command time over passes from 0.22 to 0.10
    calibrated = True

    def __init__(self, seed):
        self.strategy = CLI_STRATEGIES[derive_seed(seed, 0) % len(CLI_STRATEGIES)]
        self.tracer = None
        self.workdir = os.path.join(WORK, f"cli-{os.getpid()}")
        with open(DIGESTS) as fh:
            self.reference = json.load(fh)
        os.makedirs(self.workdir)
        write_cli_inputs(self.workdir)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def argv(self, argv):
        return [self.strategy if a == STRATEGY else a for a in argv]

    def command(self, argv, trace_file):
        if trace_file is None:
            return [sys.executable, "-m", "hopflift.cli", *argv]
        return [sys.executable, os.path.join(HERE, "cli_shim.py"), trace_file, *argv]

    def ops(self, i):
        for label, argv, code, out_file, seeded in CLI_STEPS:

            def run(argv=self.argv(argv)):
                trace_file = None if self.tracer is None else os.path.join(self.workdir, "trace.json")
                proc = subprocess.run(
                    self.command(argv, trace_file),
                    cwd=self.workdir,
                    env={**os.environ, "PYTHONPATH": SRC},
                    capture_output=True,
                    timeout=120,
                )
                if trace_file is not None:
                    with open(trace_file) as fh:
                        self.tracer.merge_child(json.load(fh))
                return proc

            def check(proc, label=label, code=code, out_file=out_file, seeded=seeded):
                if proc.returncode != code:
                    raise CheckFailed(f"{label} exited {proc.returncode}, expected {code}: {proc.stderr[-300:]!r}")
                digest = output_digest(proc.stdout, self.workdir, out_file)
                if digest != self.reference[digest_key(label, self.strategy, seeded)]:
                    raise CheckFailed(f"{label} output differs from its reference digest")
                check_cli_output(self.workdir, label)
                return digest

            yield Op(label, run, check)


WORKLOADS = {
    "lift_cold": LiftCold,
    "lift_warm": LiftWarm,
    "cli_pipeline": CliPipeline,
}


# ---------------------------------------------------------------------------
# the timed phase


@dataclass
class Record:
    label: str
    seconds: float
    calibration_s: float | None  # fastest calibration sample just before the op
    error: str | None
    digest: str | None
    covered_s: float = 0.0
    paused_s: float = 0.0


def run_phase(wl, seconds=None, passes=None, tracer=None):
    """Run whole passes: until `seconds` have elapsed, or exactly `passes`."""
    records = []
    t0 = time.perf_counter()
    i = 0
    while True:
        for op in wl.ops(i):
            calibration = None
            if wl.calibrated:
                calibration = min(calibration_sample() for _ in range(CALIBRATIONS_PER_OP))
            if op.cold:
                coh._CACHE.clear()
            if tracer is not None:
                top0, paused0 = tracer.top_level_s, tracer.paused_s
                tracer.recording = True
            start = time.perf_counter()
            try:
                value, error = op.run(), None
            except Exception as exc:  # a raising operation is a failed one
                value, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            rec = Record(op.label, elapsed, calibration, error, None)
            if tracer is not None:
                tracer.recording = False
                rec.covered_s = tracer.top_level_s - top0
                rec.paused_s = tracer.paused_s - paused0
            if error is None:
                try:
                    rec.digest = op.check(value)
                except CheckFailed as exc:
                    rec.error = f"check failed: {exc}"
            records.append(rec)
        i += 1
        if passes is not None and i >= passes:
            break
        if passes is None and time.perf_counter() - t0 >= seconds:
            break
    return records, i


def environment():
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up, report the time and exit")
    ap.add_argument("--probe-defect", action="store_true", help="probe the known lift defect, print a note and exit")
    ap.add_argument("--record-cli-digests", action="store_true", help=f"rewrite {os.path.basename(DIGESTS)} and exit")
    args = ap.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    if args.record_cli_digests:
        record_cli_digests()
        return 0
    if args.probe_defect and args.seed is not None:
        print(json.dumps({"note": probe_defect(args.seed)}))
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    wl = WORKLOADS[args.workload](args.seed)
    first_op_wall = time.time()
    setup_calibration_s = None
    if wl.setup_calibrated:
        setup_calibration_s = min(calibration_sample() for _ in range(CALIBRATIONS_PER_OP))
    if args.setup_only:
        wl.close()
        print(json.dumps({"first_op_wall": first_op_wall, "setup_calibration_s": setup_calibration_s}))
        return 0
    try:
        plain, passes = run_phase(wl, seconds=args.seconds)
        result = {"first_op_wall": first_op_wall, "setup_calibration_s": setup_calibration_s, "passes": passes}
        records = plain
        if args.trace:
            tracer = trace_mod.Tracer()
            tracer.install()
            wl.tracer = tracer
            try:
                traced, _ = run_phase(wl, passes=passes, tracer=tracer)
            finally:
                tracer.uninstall()
                wl.tracer = None
            records = plain + traced
            for a, b in zip(plain, traced):
                if b.error is None and a.digest != b.digest:
                    b.error = "tracing changed the output bytes"
            covered = sum(r.covered_s for r in traced)
            wall = sum(r.seconds - r.paused_s for r in traced)
            coverage = covered / wall
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0
            if args.workload == "lift_cold" and coverage < 0.95:
                traced[-1].error = traced[-1].error or f"trace coverage {coverage:.3f} < 0.95"
            result["trace"] = {"snapshot": tracer.snapshot(), "ops": len(traced), "coverage": coverage, "overhead": overhead}
    finally:
        wl.close()
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(
        {
            "ops": [[r.seconds, r.calibration_s] for r in plain if r.error is None],
            "attempted": len(records),
            "failed": sum(r.error is not None for r in records),
            "errors": sorted({f"{r.label}: {r.error}" for r in records if r.error is not None})[:10],
            "peak_rss_mb": max(usage_self, usage_children) / 1024.0,
            "env": environment(),
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
