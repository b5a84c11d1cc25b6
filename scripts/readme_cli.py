#!/usr/bin/env python3
"""Run the CLI block of README.md and check every documented exit code and output.

Usage: python scripts/readme_cli.py

Each command runs as `python -m hopflift.cli` in a temporary directory, with
the checkout's src/ first on PYTHONPATH.  The inputs the README takes as given
(a morphism C2 -> C4, an R-matrix of C2, a non-Hopf presentation) are written
first.  `hopflift accept` is left out: the acceptance gate has its own test
run.  The degree-2 cohomology of C4.double/F5 and the perturbed lift of
S3.double/F7 (dimension 36) run under a 1.5 GB address-space cap (RLIMIT_AS)
with one BLAS thread, so an allocation of gigabytes fails the check; the
lift's JSON, without the transcript's wall-clock seconds, must have the
SHA-256 LIFT_S3D_SHA256, and the perturbed lift of C3/F4 to GR(2^4, 2) the
SHA-256 LIFT_C3F4_SHA256.  Prints one line per checked command, with its
peak RSS (the child's ru_maxrss, from os.wait4), and exits 1 if any check
fails.
"""

import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
CAP_BYTES = 3 << 29  # 1.5 GB
LIFT_S3D_SHA256 = "a1a00442d486003394e57641b3630ab67d73264d68143c3f1e62ac3f1ed04516"
LIFT_C3F4_SHA256 = "67ba26585653e3ecea3ea64cf255022d418c01e3844b1e4c7a61898ec4282b3a"


def hopflift(workdir, *argv, stdin=None, extra_env=None, cap_bytes=None):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    env.update(extra_env or {})
    if cap_bytes:
        # one BLAS thread: each idle thread's stack and buffers count against the cap
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    argv = [sys.executable, "-m", "hopflift.cli", *argv]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.PIPE, stdout=out, stderr=err, text=True,
                                preexec_fn=cap if cap_bytes else None)
        with contextlib.suppress(BrokenPipeError):  # a command that exits before reading its input
            proc.stdin.write(stdin or "")
            proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(argv, os.waitstatus_to_exitcode(status), out.read(), err.read())
    done.peak_rss_mb = usage.ru_maxrss / 1024
    return done


def in_child(name, *args):
    """name(*args), a function of this file, run in a fresh interpreter; its
    printed result.  This process imports neither numpy nor hopflift: a child's
    ru_maxrss counts the peak of the process that forked it."""
    code = f"import sys; sys.path.insert(0, {HERE!r}); import readme_cli; print(readme_cli.{name}(*sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True).stdout.strip()


def write_inputs(workdir):
    """phi.json (C2 -> C4, g -> h^2), r.json (an R-matrix of C2) and
    broken.json (C2 with S(g) = 1, which fails both antipode axioms), over F5."""
    import numpy as np

    from hopflift import hopfcore as hc
    from hopflift import serialize as ser
    from hopflift import tensorcalc as tc
    from hopflift.coeffring import make_ring

    f5 = make_ring(5)
    c2, c4 = hc.generate("C2", f5), hc.generate("C4", f5)
    inc = np.zeros((4, 2, 1), dtype=np.int64)
    inc[0, 0, 0] = 1
    inc[2, 1, 0] = 1
    phi = hc.make_morphism(c2, c4, tc.MultiMap(f5, 1, 1, 2, 4, inc))
    r = tc.MultiMap(f5, 0, 2, 2, 2, np.array([3, 3, 3, 2], dtype=np.int64).reshape(4, 1, 1))
    broken = ser.presentation_to_json(c2)
    broken["S"][1] = [[1], [0]]
    files = {"phi.json": ser.morphism_to_json(phi), "r.json": ser.rmatrix_to_json(c2, r), "broken.json": broken}
    for name, obj in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(ser.dumps(obj))


def is_identity_mod_5(path):
    eta = json.load(open(path))["eta"]
    return all(c[0] % 5 == (i == j) for i, row in enumerate(eta) for j, c in enumerate(row))


def lift_digest(path):
    """SHA-256 of a lift JSON without the transcript's wall-clock seconds."""
    from hopflift import serialize as ser

    obj = json.load(open(path))
    obj["transcript"] = [{k: v for k, v in rec.items() if k != "seconds"} for rec in obj["transcript"]]
    return hashlib.sha256(ser.dumps(obj).encode()).hexdigest()


def main():
    failures = 0

    def check(label, proc, code, ok=True):
        nonlocal failures
        good = proc.returncode == code and ok
        failures += not good
        print(f"{'ok  ' if good else 'FAIL'} {label}: exit {proc.returncode} (documented {code}), peak {proc.peak_rss_mb:.1f} MB")
        if not good:
            print(f"     stdout {proc.stdout[-300:]!r}\n     stderr {proc.stderr[-300:]!r}")

    with tempfile.TemporaryDirectory() as wd:
        in_child("write_inputs", wd)
        s3 = hopflift(wd, "gen", "S3", "--p", "7").stdout
        p = hopflift(wd, "validate", stdin=s3)
        check("gen S3 --p 7 | validate", p, 0, "FAIL" not in p.stdout)
        c3 = hopflift(wd, "gen", "C3", "--p", "3").stdout
        p = hopflift(wd, "analyze", stdin=c3)
        check("gen C3 --p 3 | analyze", p, 1, "not semisimple" in p.stderr)
        p = hopflift(wd, "analyze", stdin=hopflift(wd, "gen", "C3.dual", "--p", "3").stdout)
        glikes = "grouplikes       1 (1 central)" in p.stdout.splitlines()
        check("gen C3.dual --p 3 | analyze", p, 1, "not cosemisimple" in p.stderr and glikes)
        p = hopflift(wd, "analyze", stdin=hopflift(wd, "gen", "S3", "--p", "5", "--m", "2").stdout)
        lines = p.stdout.splitlines()
        f25_ok = "grouplikes       6 (1 central)" in lines and any(line.startswith("trace(S^2)       [1, 0] ") for line in lines)
        check("gen S3 --p 5 --m 2 | analyze (trace(S^2) [1, 0], grouplikes 6)", p, 0, f25_ok)
        check("gen C2.double --p 5 -o d2.json", hopflift(wd, "gen", "C2.double", "--p", "5", "-o", "d2.json"), 0)
        p = hopflift(wd, "cohomology", "d2.json", "--degree", "0,1", "--invariants")
        check("cohomology d2.json --degree 0,1 --invariants", p, 0, p.stdout.startswith("H^0 = "))
        check("gen S3 --p 7 -o s3.json", hopflift(wd, "gen", "S3", "--p", "7", "-o", "s3.json"), 0)
        p = hopflift(wd, "cohomology", "s3.json", "--degree", "0,1,2")
        check("cohomology s3.json --degree 0,1,2 (H^2 = 0)", p, 0, "H^2 = 0" in p.stdout.splitlines())
        check("gen D4 --p 3 -o d4.json", hopflift(wd, "gen", "D4", "--p", "3", "-o", "d4.json"), 0)
        p = hopflift(wd, "cohomology", "d4.json", "--degree", "2", extra_env={"HOPFLIFT_H2_BUDGET": "8"})
        check("HOPFLIFT_H2_BUDGET=8 cohomology d4.json --degree 2 (H^2 = 0)", p, 0, "H^2 = 0" in p.stdout.splitlines())
        check("gen S3 --p 3 -o s3f3.json", hopflift(wd, "gen", "S3", "--p", "3", "-o", "s3f3.json"), 0)
        p = hopflift(wd, "cohomology", "s3f3.json", "--degree", "0,1,2")
        dims_ok = p.stdout.splitlines() == ["H^0 = 0", "H^1 = 0", "H^2 = 0"]
        check("cohomology s3f3.json --degree 0,1,2 (H^2 = 0, by the dual context)", p, 0, dims_ok)
        check("gen C4.double --p 5 -o c4d.json", hopflift(wd, "gen", "C4.double", "--p", "5", "-o", "c4d.json"), 0)
        budgets = {"HOPFLIFT_H2_BUDGET": "16", "HOPFLIFT_COBOUNDARY_BUDGET": "16"}
        p = hopflift(wd, "cohomology", "c4d.json", "--degree", "2", extra_env=budgets, cap_bytes=CAP_BYTES)
        check(
            "HOPFLIFT_H2_BUDGET=16 HOPFLIFT_COBOUNDARY_BUDGET=16 cohomology c4d.json --degree 2 (H^2 = 0, 1.5 GB cap)",
            p,
            0,
            "H^2 = 0" in p.stdout.splitlines(),
        )
        check("gen S3.double --p 7 -o s3d.json", hopflift(wd, "gen", "S3.double", "--p", "7", "-o", "s3d.json"), 0)
        argv = ["lift", "s3d.json", "--precision", "4", "--strategy", "perturbed:1", "-o", "s3dlift.json"]
        p = hopflift(wd, *argv, extra_env={"HOPFLIFT_COBOUNDARY_BUDGET": "64"}, cap_bytes=CAP_BYTES)
        digest_ok = p.returncode == 0 and in_child("lift_digest", os.path.join(wd, "s3dlift.json")) == LIFT_S3D_SHA256
        check(
            "HOPFLIFT_COBOUNDARY_BUDGET=64 lift s3d.json --precision 4 --strategy perturbed:1 (SHA-256 a1a00442..., 1.5 GB cap)",
            p,
            0,
            digest_ok,
        )
        check("gen C3 --p 2 --m 2 -o c3f4.json", hopflift(wd, "gen", "C3", "--p", "2", "--m", "2", "-o", "c3f4.json"), 0)
        p = hopflift(wd, "lift", "c3f4.json", "--precision", "4", "--strategy", "perturbed:1", "-o", "c3f4lift.json")
        digest_ok = p.returncode == 0 and in_child("lift_digest", os.path.join(wd, "c3f4lift.json")) == LIFT_C3F4_SHA256
        check("lift c3f4.json --precision 4 --strategy perturbed:1 (SHA-256 67ba2658...)", p, 0, digest_ok)
        check("gen C2 --p 5 -o c2.json", hopflift(wd, "gen", "C2", "--p", "5", "-o", "c2.json"), 0)
        p = hopflift(wd, "lift", "c2.json", "--precision", "4", "--strategy", "perturbed:7", "-o", "lift.json")
        check("lift c2.json --precision 4 --strategy perturbed:7", p, 0)
        check("lift c2.json --precision 4", hopflift(wd, "lift", "c2.json", "--precision", "4", "-o", "canon.json"), 0)
        p = hopflift(wd, "reconcile", "canon.json", "lift.json", "-o", "eta.json")
        eta_ok = p.returncode == 0 and is_identity_mod_5(os.path.join(wd, "eta.json"))
        check("reconcile canon.json lift.json (== id mod 5)", p, 0, eta_ok)
        check("gen C4 --p 5 -o c4.json", hopflift(wd, "gen", "C4", "--p", "5", "-o", "c4.json"), 0)
        check("lift c4.json --precision 4", hopflift(wd, "lift", "c4.json", "--precision", "4", "-o", "c4lift.json"), 0)
        p = hopflift(wd, "lift-map", "--map", "phi.json", "--lift-a", "lift.json", "--lift-b", "c4lift.json")
        check("lift-map --map phi.json --lift-a lift.json --lift-b c4lift.json", p, 0)
        p = hopflift(wd, "lift-rmatrix", "--r", "r.json", "--lift", "lift.json")
        check("lift-rmatrix --r r.json --lift lift.json", p, 0)
        p = hopflift(wd, "lemma41", "--poly", "2,1,1", "--r", "3", "--p", "7")
        check("lemma41 --poly 2,1,1 --r 3 --p 7", p, 0, "conclusion: nonvanishing-guaranteed" in p.stdout)
        p = hopflift(wd, "threshold", "--dim", "8")
        check("threshold --dim 8 (prints 64)", p, 0, p.stdout.strip() == "64")
        p = hopflift(wd, "analyze", "broken.json")
        check(
            "analyze broken.json (axioms violated, no predicate)",
            p,
            1,
            p.stdout == "" and p.stderr.strip() == "axioms violated: antipode_left, antipode_right",
        )
        p = hopflift(wd, "lift", "broken.json", "--precision", "2")
        check(
            "lift broken.json --precision 2 (AxiomsViolated, no lift)",
            p,
            1,
            p.stdout == ""
            and p.stderr.strip() == "AxiomsViolated: base fails the Hopf axioms antipode_left, antipode_right",
        )
        p = hopflift(wd, "dual", "broken.json")
        check(
            "dual broken.json (InternalAxiomFailure, no dual)",
            p,
            1,
            p.stdout == ""
            and p.stderr.strip() == "InternalAxiomFailure: presentation fails axioms: ['antipode_left', 'antipode_right']",
        )
    print(f"{failures} checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
