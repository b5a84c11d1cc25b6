"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the hopflift modules from here, without
touching the package: every module global that is the original function is
replaced (so names imported with ``from .x import f`` are wrapped too), and
``FieldSolver.__init__`` / ``FieldSolver.solve`` are wrapped on the class.

Each wrapped call is a span.  A span's self time is its duration minus the
time covered by the spans it encloses.  Bookkeeping done by hooks (path
classification, nonzero counts) is paused time: it is taken out of every
enclosing span and out of the operation time used for coverage.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_F32_SAFE = 1 << 24
_F64_SAFE = 1 << 52
_I64_SAFE = 1 << 62

# (module, function, span key); FieldSolver methods are handled separately
WRAPPED = [
    ("_arrays", "tensordot", "arrays.tensordot"),
    ("_arrays", "elem_mul", "arrays.elem_mul"),
    ("_linalg", "_exact_dot", "linalg.exact_dot"),
    ("coeffring", "hensel_solve_array", "coeffring.hensel_solve"),
    ("tensorcalc", "compose", "tensorcalc.compose"),
    ("tensorcalc", "tensor", "tensorcalc.tensor"),
    ("tensorcalc", "permute", "tensorcalc.permute"),
    ("tensorcalc", "iterate", "tensorcalc.iterate"),
    ("cohomology", "dtotal_matrix", "cohomology.dtotal_matrix"),
    ("cohomology", "d_total", "cohomology.d_total"),
    ("cohomology", "solve_coboundary", "cohomology.solve_coboundary"),
    ("cohomology", "cohomology_dim", "cohomology.cohomology_dim"),
    ("cohomology", "invariants_complex_dim", "cohomology.invariants_complex_dim"),
    ("lifting", "lift", "lifting.lift"),
    ("lifting", "obstruction", "lifting.obstruction"),
    ("lifting", "correct", "lifting.correct"),
    ("lifting", "solve_antipode", "lifting.solve_antipode"),
    ("lifting", "reconcile", "lifting.reconcile"),
    ("lifting", "lift_morphism", "lifting.lift_morphism"),
    ("lifting", "lift_rmatrix", "lifting.lift_rmatrix"),
    ("hopfcore", "verify_hopf", "hopfcore.verify_hopf"),
    ("hopfcore", "drinfeld_double", "hopfcore.drinfeld_double"),
    ("hopfcore", "verify_qt", "hopfcore.verify_qt"),
    ("hopfcore", "analyze", "hopfcore.analyze"),
    ("hopfcore", "grouplikes", "hopfcore.grouplikes"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "loads", "serialize.loads"),
    ("arithcheck", "lemma41", "arithcheck.lemma41"),
    ("cli", "main", "cli.main"),
]


class Tracer:
    """Span recorder: per-key call counts, self and total times, and counters."""

    def __init__(self):
        self.recording = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.top_level_s = 0.0
        self.paused_s = 0.0
        self._stack = []  # child-span seconds accumulated per open span
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def _wrap(self, fn, key, before=None, after=None):
        """Wrap fn as a span; key is a name or a function of the call's args."""
        tracer = self
        key_of = key if callable(key) else (lambda args: key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            name = key_of(args)
            state = None
            if before is not None:
                h0 = time.perf_counter()
                state = before(tracer, args, kwargs)
                tracer.paused_s += time.perf_counter() - h0
            paused0 = tracer.paused_s
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0 - (tracer.paused_s - paused0)
                child = tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += span - child
                if tracer._stack:
                    tracer._stack[-1] += span
                else:
                    tracer.top_level_s += span
            if after is not None:
                h0 = time.perf_counter()
                after(tracer, args, kwargs, result, state)
                tracer.paused_s += time.perf_counter() - h0
            return result

        return traced

    def install(self):
        """Wrap every binding site of the traced functions in loaded hopflift modules."""
        mods = [m for name, m in list(sys.modules.items()) if name.startswith("hopflift") and m is not None]
        pkg = "hopflift."
        for modname, fname, key in WRAPPED:
            home = sys.modules.get(pkg + modname)
            if home is None:
                continue
            orig = getattr(home, fname)
            hooks = _HOOKS.get(key, (None, None))
            wrapped = self._wrap(orig, key, *hooks)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig))
        linalg = sys.modules.get(pkg + "_linalg")
        if linalg is not None:
            cls = linalg.FieldSolver
            for attr, key, hooks in (
                ("__init__", _factor_key, (None, _after_factor)),
                ("solve", "linalg.solve", (None, None)),
            ):
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(orig, key, *hooks))
                self._restore.append((cls, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------
    def snapshot(self):
        """Raw totals; a CLI child sends them back for merge_child."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "top_level_s": self.top_level_s,
            "paused_s": self.paused_s,
        }

    def merge_child(self, snap):
        """Fold in a CLI child's snapshot; its import time counts as covered."""
        for key, v in snap["calls"].items():
            self.calls[key] += v
        for key, v in snap["self_s"].items():
            self.self_s[key] += v
        for key, v in snap["counters"].items():
            self.counters[key] += v
        self.counters["cli.import_s"] += snap["import_s"]
        self.top_level_s += snap["top_level_s"] + snap["import_s"]
        self.paused_s += snap["paused_s"]


# -- hooks ------------------------------------------------------------------


def _before_tensordot(tr, args, kwargs):
    desc, a, b, axes = args[:4]
    k = 1
    for ax in axes[0]:
        k *= a.shape[ax % (a.ndim - 1)]
    m, q = desc.m, desc.q
    out = (a.size // a.shape[-1]) // k * ((b.size // b.shape[-1]) // k)
    if m > 1:
        path = "ext"
    else:
        bound = k * (q - 1) * (q - 1)
        path = "f64" if bound < _F64_SAFE else "i64" if bound < _I64_SAFE else "object"
    tr.counters["arrays.tensordot.calls." + path] += 1
    tr.counters["arrays.tensordot.madds"] += out * k * m**3
    tr.counters["arrays.tensordot.bytes"] += 8 * (a.size * m + b.size * m + out * m * m)


def _before_exact_dot(tr, args, kwargs):
    a, b, q = args[:3]
    k = a.shape[-1] if a.ndim > 1 else a.shape[0]
    bound = k * (q - 1) * (q - 1)
    if bound < _F32_SAFE:
        path = "f32"
    elif bound < _F64_SAFE:
        path = "f64"
    elif bound < _I64_SAFE:
        path = "i64"
    else:
        path = "object"
    tr.counters["linalg.exact_dot.calls." + path] += 1


def _factor_key(args):
    return "linalg.factor_ext" if args[1].m > 1 else "linalg.factor"


def _after_factor(tr, args, kwargs, result, state):
    solver = args[0]
    cells = solver.nrows * solver.ncols
    tr.counters["linalg.factor.cells"] += cells
    tr.counters["linalg.factor.rank"] += solver.rank
    # fill of the echelon factor: U of the m == 1 path, the RREF rows of the
    # m > 1 path; a rank-only factorization keeps no factor
    factor = getattr(solver, "_U", None)
    if factor is None:
        factor = getattr(solver, "_rref", None)
    if factor is not None and factor.size:
        nonzero = factor != 0 if factor.ndim == 2 else np.any(factor != 0, axis=-1)
        tr.counters["linalg.factor.u_cells"] += nonzero.size
        tr.counters["linalg.factor.u_nnz"] += int(np.count_nonzero(nonzero))


def _before_dtotal_matrix(tr, args, kwargs):
    return tr.calls["cohomology.d_total"]


def _after_dtotal_matrix(tr, args, kwargs, result, d_total_before):
    cols = tr.calls["cohomology.d_total"] - d_total_before
    tr.counters["cohomology.dtotal_matrix.cols_assembled"] += cols
    if cols == 0:
        tr.counters["cohomology.dtotal_matrix.hits"] += 1
    else:
        tr.counters["cohomology.dtotal_matrix.bytes"] += result.nbytes


def _after_dumps(tr, args, kwargs, result, state):
    tr.counters["serialize.bytes"] += len(result)


def _before_loads(tr, args, kwargs):
    tr.counters["serialize.bytes"] += len(args[0])


_HOOKS = {
    "arrays.tensordot": (_before_tensordot, None),
    "linalg.exact_dot": (_before_exact_dot, None),
    "cohomology.dtotal_matrix": (_before_dtotal_matrix, _after_dtotal_matrix),
    "serialize.dumps": (None, _after_dumps),
    "serialize.loads": (_before_loads, None),
}


def per_layer_metrics(names, snap, n_ops, coverage_frac, overhead_frac):
    """Fold raw totals into the named per-layer metrics; counts and times per operation.

    A name ``<span>.calls`` or ``<span>.self_s`` reads that span's totals; any
    other name reads the counter of that name.
    """
    calls, self_s, ctr = snap["calls"], snap["self_s"], snap["counters"]
    per = 1.0 / max(n_ops, 1)
    vals = {}
    for name in names:
        head, _, field = name.rpartition(".")
        if field == "calls":
            vals[name] = calls.get(head, 0) * per
        elif field == "self_s":
            vals[name] = self_s.get(head, 0.0) * per
        else:
            vals[name] = ctr.get(name, 0.0) * per
    # linalg.factor covers both fields; linalg.factor_ext is its m > 1 share
    for field, totals in (("calls", calls), ("self_s", self_s)):
        vals["linalg.factor." + field] = (totals.get("linalg.factor", 0) + totals.get("linalg.factor_ext", 0)) * per
    vals["tensorcalc.self_s"] = per * sum(
        self_s.get("tensorcalc." + f, 0.0) for f in ("compose", "tensor", "permute", "iterate")
    )
    u_cells = ctr.get("linalg.factor.u_cells", 0.0)
    vals["linalg.factor.nnz_frac"] = ctr.get("linalg.factor.u_nnz", 0.0) / u_cells if u_cells else 0.0
    # no dtotal_matrix call assembles nothing, as a cache hit does
    dmat = calls.get("cohomology.dtotal_matrix", 0)
    vals["cohomology.dtotal_matrix.hit_frac"] = ctr.get("cohomology.dtotal_matrix.hits", 0.0) / dmat if dmat else 1.0
    vals["trace.coverage_frac"] = coverage_frac
    vals["trace.overhead_frac"] = overhead_frac
    return {name: vals[name] for name in names}
