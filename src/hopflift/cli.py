"""Batch command-line front end.

Exit codes: 0 success / predicate holds, 1 predicate fails (axiom violated,
not semisimple, lemma not guaranteed), 2 usage, IO or schema errors and
moduli p^n above 2^62.
All outputs are deterministic given the inputs and seeds.
Each command imports the modules it uses when it runs, so a command pays
only for its own imports.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import suppress

from .errors import HopfliftError, InternalAxiomFailure, SchemaViolation, UnsupportedModulus


def _read_json(path):
    from . import serialize as ser

    text = sys.stdin.read() if path in (None, "-") else open(path).read()
    return ser.loads(text)


def _write(obj, out):
    from . import serialize as ser

    text = ser.dumps(obj)
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _load_presentation(path):
    from . import hopfcore as hc
    from . import serialize as ser

    H = ser.presentation_from_json(_read_json(path), verify=False)
    with suppress(InternalAxiomFailure):  # verified once the parsed JSON is freed; one that fails stays unmarked
        H = hc.verified(H)
    return H


def _axioms_violated(H):
    """Refuse a presentation _load_presentation left unmarked: exit 1, stdout empty."""
    from . import hopfcore as hc

    print(f"axioms violated: {', '.join(hc.verify_hopf(H).failing())}", file=sys.stderr)
    return 1


def cmd_gen(args):
    from . import hopfcore as hc
    from . import serialize as ser
    from .coeffring import make_ring

    ring = make_ring(args.p, args.n, args.m)
    H = hc.generate(args.name, ring)
    _write(ser.presentation_to_json(H), args.output)
    return 0


def cmd_validate(args):
    from . import hopfcore as hc
    from . import serialize as ser

    H = ser.presentation_from_json(_read_json(args.file), verify=False)
    report = hc.verify_hopf(H)
    if args.json:
        payload = {
            "all_pass": report.all_pass,
            "checks": [
                {"name": c.name, "ok": c.ok, "residuals": c.residual_count, "sample": c.residual_sample}
                for c in report.checks
            ],
        }
        _write(payload, None)
    else:
        for c in report.checks:
            mark = "ok" if c.ok else f"FAIL ({c.residual_count} residuals, e.g. {c.residual_sample[:2]})"
            print(f"{c.name:24s} {mark}")
    return 0 if report.all_pass else 1


def cmd_analyze(args):
    from . import hopfcore as hc

    H = _load_presentation(args.file)
    if not H.ring.is_field:
        print("analyze requires a presentation over a field (n = 1)", file=sys.stderr)
        return 2
    if not H.verified:
        return _axioms_violated(H)
    rep = hc.analyze(H)
    payload = {
        "semisimple": rep.semisimple,
        "cosemisimple": rep.cosemisimple,
        "commutative": rep.commutative,
        "cocommutative": rep.cocommutative,
        "antipode_order": rep.antipode_order,
        "antipode_sq_order": rep.antipode_sq_order,
        "trace_S2": list(rep.trace_S2.coeffs),
        "dim_in_k": list(rep.dim_in_k.coeffs),
        "grouplikes": [g.tolist() for g in rep.grouplikes],
        "central_grouplikes": [g.tolist() for g in rep.central_grouplikes],
    }
    if args.json:
        _write(payload, None)
    else:
        for key in ("semisimple", "cosemisimple", "commutative", "cocommutative"):
            print(f"{key:16s} {payload[key]}")
        print(f"antipode order   {rep.antipode_order} (S^2 order {rep.antipode_sq_order})")
        print(f"trace(S^2)       {list(rep.trace_S2.coeffs)}  dim in k {list(rep.dim_in_k.coeffs)}")
        print(f"grouplikes       {len(rep.grouplikes)} ({len(rep.central_grouplikes)} central)")
    if not rep.semisimple:
        print("not semisimple", file=sys.stderr)
        return 1
    if not rep.cosemisimple:
        print("not cosemisimple", file=sys.stderr)
        return 1
    return 0


def cmd_cohomology(args):
    from . import cohomology as coh
    from . import serialize as ser

    H = _load_presentation(args.file)
    ctx = coh.make_context(H)
    if not H.verified:
        return _axioms_violated(H)
    if args.cocycle:
        z = ser.cochain_from_json(_read_json(args.cocycle), ctx)
        closed = coh.is_cocycle(z)
        if args.json:
            _write({"degree": z.degree, "cocycle": closed}, None)
        else:
            print(f"cocycle: {closed}")
        return 0 if closed else 1
    degrees = [int(d) for d in args.degree.split(",")]
    dims = {}
    for n in degrees:
        dims[n] = coh.cohomology_dim(ctx, n)
    payload = {"dims": {str(k): v for k, v in dims.items()}}
    if args.invariants:
        payload["invariants_dims"] = {str(n): coh.invariants_complex_dim(ctx, n) for n in degrees}
    if args.json:
        _write(payload, None)
    else:
        for n in degrees:
            extra = ""
            if args.invariants:
                extra = f"   invariants complex: {payload['invariants_dims'][str(n)]}"
            print(f"H^{n} = {dims[n]}{extra}")
    return 0


def cmd_lift(args):
    from . import lifting as lf
    from . import serialize as ser

    H = _load_presentation(args.file)
    state = lf.lift(H, args.precision, args.strategy)
    for rec in state.transcript:
        print(
            f"level {rec['level']}: precision {rec['precision']}, obstruction support "
            f"{rec['obstruction_support']}, corrected {rec['correction_applied']}, {rec['seconds']:.3f}s",
            file=sys.stderr,
        )
    _write(ser.liftstate_to_json(state), args.output)
    return 0


def cmd_reconcile(args):
    from . import lifting as lf
    from . import serialize as ser

    s1 = ser.liftstate_from_json(_read_json(args.lift_a))
    s2 = ser.liftstate_from_json(_read_json(args.lift_b))
    eta = lf.reconcile(s1, s2)
    _write({"eta": eta.coeffs.transpose(1, 0, 2).tolist()}, args.output)
    return 0


def cmd_lift_map(args):
    from . import lifting as lf
    from . import serialize as ser

    phi = ser.morphism_from_json(_read_json(args.map))
    s1 = ser.liftstate_from_json(_read_json(args.lift_a))
    s2 = ser.liftstate_from_json(_read_json(args.lift_b))
    out = lf.lift_morphism(phi, s1, s2)
    _write(ser.morphism_to_json(out), args.output)
    return 0


def cmd_lift_rmatrix(args):
    from . import lifting as lf
    from . import serialize as ser

    robj = _read_json(args.r)
    state = ser.liftstate_from_json(_read_json(args.lift))
    R = ser.rmatrix_from_json(robj)
    out = lf.lift_rmatrix(state.base, R, state)
    _write(ser.rmatrix_to_json(state.current, out.R), args.output)
    return 0


def cmd_double(args):
    from . import hopfcore as hc
    from . import serialize as ser

    H = _load_presentation(args.file)
    D, R = hc.drinfeld_double(H)
    _write({"double": ser.presentation_to_json(D), "R": ser.multimap_to_json(R.R)}, args.output)
    return 0


def cmd_dual(args):
    from . import hopfcore as hc
    from . import serialize as ser

    H = _load_presentation(args.file)
    _write(ser.presentation_to_json(hc.dual(hc.verified(H))), args.output)
    return 0


def cmd_lemma41(args):
    import dataclasses

    from . import arithcheck as ac

    coeffs = [int(c) for c in args.poly.split(",")]
    rep = ac.lemma41(coeffs, args.r, args.p)
    if args.json:
        _write(dataclasses.asdict(rep), None)
    else:
        print(f"r = {rep.r}, D = {rep.D}, phi(r) = {rep.phi_r}, bound D^(phi/2) = {rep.bound}, N = {rep.N}")
        print(
            f"p = {rep.p}: exceeds bound {rep.p_exceeds_bound}, coprime to r {rep.p_coprime_to_r}, "
            f"divides N {rep.p_divides_N}, gcd route trivial {rep.gcd_with_cyclotomic_trivial}"
        )
        print(f"conclusion: {rep.conclusion}")
    return 0 if rep.conclusion == "nonvanishing-guaranteed" else 1


def cmd_threshold(args):
    from . import arithcheck as ac

    thr, phi = ac.kaplansky_threshold(args.dim)
    if args.json:
        _write({"dim": args.dim, "phi": phi, "threshold": thr}, None)
    else:
        print(thr)
    return 0


def cmd_accept(args):
    from .acceptance import run

    numbers = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    results = run(numbers)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="hopflift", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="emit a builtin presentation as JSON")
    p.add_argument("name", help="C2..C8, C2xC2, S3, D4, Q8, with optional .dual / .double suffixes")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=1, help="coefficient precision (1 = field)")
    p.add_argument("--m", type=int, default=1, help="extension degree")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="verify the ten Hopf axioms exactly")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("analyze", help="semisimplicity, flags, antipode orders, grouplikes")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("cohomology", help="bialgebra cohomology dimensions and cocycle checks")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--degree", default="0,1,2")
    p.add_argument("--invariants", action="store_true", help="cross-check with the invariants complex")
    p.add_argument("--cocycle", default=None, help="check that a serialized cochain is closed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("lift", help="lift a presentation to GR(p^n, m)")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--precision", type=int, required=True)
    p.add_argument("--strategy", default="canonical", help="canonical or perturbed:SEED")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("reconcile", help="isomorphism between two lifts of one base")
    p.add_argument("lift_a")
    p.add_argument("lift_b")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_reconcile)

    p = sub.add_parser("lift-map", help="lift a Hopf morphism between two lifts")
    p.add_argument("--map", required=True, help="morphism JSON file")
    p.add_argument("--lift-a", required=True)
    p.add_argument("--lift-b", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_lift_map)

    p = sub.add_parser("lift-rmatrix", help="lift a quasitriangular structure")
    p.add_argument("--r", required=True, help="R-matrix JSON file")
    p.add_argument("--lift", required=True, help="lift state JSON file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_lift_rmatrix)

    p = sub.add_parser("double", help="Drinfeld double with its canonical R-matrix")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_double)

    p = sub.add_parser("dual", help="dual presentation")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("lemma41", help="cyclotomic nonvanishing report")
    p.add_argument("--poly", required=True, help="comma separated integer coefficients, ascending")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lemma41)

    p = sub.add_parser("threshold", help="d^(phi(d)/2)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--criteria", default=None, help="comma separated criterion numbers (default: all)")
    p.set_defaults(fn=cmd_accept)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaViolation as exc:
        print(f"schema error at {exc.path}: {exc.message}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return 2
    except UnsupportedModulus as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except HopfliftError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
