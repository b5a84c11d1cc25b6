"""Canonical JSON (de)serialization for rings, presentations, maps and lifts.

Key order and coefficient order are fixed, so serialize(deserialize(s)) == s
byte-for-byte on canonical input.  Every RingElement appears as the list
[c_0, .., c_{m-1}]; structure constants use the documented index conventions:
m[i][j][k] is the e_k coefficient of e_i * e_j, delta[i][j][k] the
e_j (x) e_k coefficient of Delta(e_i), S[i][j] the e_j coefficient of S(e_i).
"""

from __future__ import annotations

import json
from contextlib import suppress
from itertools import chain

import numpy as np

from . import hopfcore as hc
from .coeffring import RingDescriptor, make_ring
from .errors import InternalAxiomFailure, SchemaViolation
from .hopfcore import HopfMorphism, HopfPresentation
from .tensorcalc import MultiMap


def _expect(cond, path, message):
    if not cond:
        raise SchemaViolation(path, message)


def _expect_key(obj, key, path):
    _expect(isinstance(obj, dict), path, "expected an object")
    if key not in obj:
        raise SchemaViolation(f"{path}.{key}", "missing field")
    return obj[key]


def _elem_from_json(val, ring: RingDescriptor, path) -> list:
    _expect(isinstance(val, list) and len(val) == ring.m, path, f"expected a list of {ring.m} integers")
    out = []
    for t, c in enumerate(val):
        _expect(isinstance(c, int) and not isinstance(c, bool), f"{path}[{t}]", "expected an integer")
        _expect(0 <= c < ring.q, f"{path}[{t}]", f"coefficient {c} outside [0, {ring.q})")
        out.append(c)
    return out


def ring_to_json(ring: RingDescriptor) -> dict:
    out = {"p": ring.p, "n": ring.n, "m": ring.m}
    if ring.m > 1:
        out["modulus"] = [int(c) for c in ring.modulus]
    return out


def ring_from_json(obj, path=".ring") -> RingDescriptor:
    p = _expect_key(obj, "p", path)
    n = _expect_key(obj, "n", path)
    m = _expect_key(obj, "m", path)
    for k, v in (("p", p), ("n", n), ("m", m)):
        _expect(isinstance(v, int) and v >= 1, f"{path}.{k}", "expected a positive integer")
    modulus = obj.get("modulus")
    if m > 1:
        _expect(modulus is not None, f"{path}.modulus", "required when m > 1")
    try:
        return make_ring(p, n, m, modulus)
    except Exception as exc:
        raise SchemaViolation(path, str(exc)) from exc


def presentation_to_json(H: HopfPresentation) -> dict:
    n, m = H.dim, H.ring.m
    return {
        "ring": ring_to_json(H.ring),
        "dim": n,
        "m": H.mul.coeffs.reshape(n, n, n, m).transpose(1, 2, 0, 3).tolist(),
        "unit": H.unit.coeffs[:, 0].tolist(),
        "delta": H.comul.coeffs.reshape(n, n, n, m).transpose(2, 0, 1, 3).tolist(),
        "counit": H.counit.coeffs[0].tolist(),
        "S": H.antipode.coeffs.transpose(1, 0, 2).tolist(),
    }


def _nested(obj, path, dims, ring):
    """Validate and read a nested coefficient table with given dimensions."""
    if not dims:
        return _elem_from_json(obj, ring, path)
    _expect(isinstance(obj, list) and len(obj) == dims[0], path, f"expected a list of length {dims[0]}")
    return [_nested(v, f"{path}[{i}]", dims[1:], ring) for i, v in enumerate(obj)]


def _table(obj, path, dims, ring) -> np.ndarray:
    """A nested coefficient table as an int64 array of shape dims + (m,).

    One pass at C speed accepts a table of plain lists of the right lengths
    at every level whose coefficients are plain ints in [0, q): exactly what
    _nested accepts, which runs only when that pass fails, to raise the
    SchemaViolation with its path (or to read list and int subclasses)."""
    level = [obj]
    for d in dims + (ring.m,):
        if set(map(type, level)) != {list} or set(map(len, level)) != {d}:
            return np.array(_nested(obj, path, dims, ring), dtype=np.int64)
        level = list(chain.from_iterable(level))
    if set(map(type, level)) != {int} or min(level) < 0 or max(level) >= ring.q:
        return np.array(_nested(obj, path, dims, ring), dtype=np.int64)
    return np.array(level, dtype=np.int64).reshape(dims + (ring.m,))


def presentation_from_json(obj, path="", verify=True) -> HopfPresentation:
    ring = ring_from_json(_expect_key(obj, "ring", path), f"{path}.ring")
    n = _expect_key(obj, "dim", path)
    _expect(isinstance(n, int) and n >= 1, f"{path}.dim", "expected a positive integer")

    def table(key, dims):
        return _table(_expect_key(obj, key, path), f"{path}.{key}", dims, ring)

    m_tab = table("m", (n, n, n))  # [i, j, k]
    unit_tab = table("unit", (n,))
    delta_tab = table("delta", (n, n, n))  # [i, j, k]
    counit_tab = table("counit", (n,))
    s_tab = table("S", (n, n))  # [i, j]
    m = ring.m
    pres = HopfPresentation(
        ring,
        n,
        MultiMap(ring, 2, 1, n, n, np.ascontiguousarray(m_tab.transpose(2, 0, 1, 3)).reshape(n, n * n, m)),
        MultiMap(ring, 0, 1, n, n, unit_tab.reshape(n, 1, m)),
        MultiMap(ring, 1, 2, n, n, np.ascontiguousarray(delta_tab.transpose(1, 2, 0, 3)).reshape(n * n, n, m)),
        MultiMap(ring, 1, 0, n, n, counit_tab.reshape(1, n, m)),
        MultiMap(ring, 1, 1, n, n, np.ascontiguousarray(s_tab.transpose(1, 0, 2))),
    )
    if verify:
        with suppress(InternalAxiomFailure):  # a presentation that fails the axioms is returned unmarked
            pres = hc.verified(pres)
    return pres


def multimap_to_json(mm: MultiMap) -> dict:
    return {
        "in": mm.arity_in,
        "out": mm.arity_out,
        "coeffs": mm.coeffs.reshape(-1, mm.ring.m).tolist(),
    }


def multimap_from_json(obj, ring, dim_in, dim_out, path=".map") -> MultiMap:
    ai = _expect_key(obj, "in", path)
    ao = _expect_key(obj, "out", path)
    coeffs = _expect_key(obj, "coeffs", path)
    rows, cols = dim_out**ao, dim_in**ai
    _expect(isinstance(coeffs, list) and len(coeffs) == rows * cols, f"{path}.coeffs", f"expected {rows * cols} entries")
    arr = _table(coeffs, f"{path}.coeffs", (rows * cols,), ring)
    return MultiMap(ring, ai, ao, dim_in, dim_out, arr.reshape(rows, cols, ring.m))


def rmatrix_to_json(H: HopfPresentation, R: MultiMap) -> dict:
    return {"ring": ring_to_json(H.ring), "dim": H.dim, "R": multimap_to_json(R)}


def rmatrix_from_json(obj) -> MultiMap:
    ring = ring_from_json(_expect_key(obj, "ring", ""), ".ring")
    dim = _expect_key(obj, "dim", "")
    return multimap_from_json(_expect_key(obj, "R", ""), ring, dim, dim, ".R")


def morphism_to_json(phi: HopfMorphism) -> dict:
    return {
        "source": presentation_to_json(phi.source),
        "target": presentation_to_json(phi.target),
        "map": phi.map.coeffs.transpose(1, 0, 2).tolist(),
    }


def morphism_from_json(obj, verify=True) -> HopfMorphism:
    src = presentation_from_json(_expect_key(obj, "source", ""), ".source", verify=verify)
    tgt = presentation_from_json(_expect_key(obj, "target", ""), ".target", verify=verify)
    tab = _table(_expect_key(obj, "map", ""), ".map", (src.dim, tgt.dim), src.ring)  # [i, j]
    arr = np.ascontiguousarray(tab.transpose(1, 0, 2))
    return hc.make_morphism(src, tgt, MultiMap(src.ring, 1, 1, src.dim, tgt.dim, arr), verify=verify)


def liftstate_to_json(state) -> dict:
    return {
        "base": presentation_to_json(state.base),
        "precision": state.precision,
        "current": presentation_to_json(state.current),
        "transcript": state.transcript,
    }


def liftstate_from_json(obj):
    from . import lifting as lf

    base = presentation_from_json(_expect_key(obj, "base", ""), ".base")
    precision = _expect_key(obj, "precision", "")
    current = presentation_from_json(_expect_key(obj, "current", ""), ".current")
    transcript = obj.get("transcript", [])
    _expect(current.ring.n == precision, ".precision", "precision disagrees with the current ring")
    return lf.LiftState(base, precision, current, transcript)


def cochain_to_json(z) -> dict:
    comps = []
    for (p, q) in sorted(z.components, key=lambda pq: -pq[0]):
        comps.append({"p": p, "q": q, "map": multimap_to_json(z.components[(p, q)])})
    return {"degree": z.degree, "components": comps}


def cochain_from_json(obj, ctx):
    from . import cohomology as coh

    degree = _expect_key(obj, "degree", "")
    comps = {}
    items = _expect_key(obj, "components", "")
    _expect(isinstance(items, list), ".components", "expected a list")
    for t, entry in enumerate(items):
        p = _expect_key(entry, "p", f".components[{t}]")
        q = _expect_key(entry, "q", f".components[{t}]")
        mm = multimap_from_json(
            _expect_key(entry, "map", f".components[{t}]"),
            ctx.ring,
            ctx.A.dim,
            ctx.B.dim,
            f".components[{t}].map",
        )
        comps[(p, q)] = mm
    try:
        return coh.TotalCochain(ctx, degree, comps)
    except Exception as exc:
        raise SchemaViolation(".components", str(exc)) from exc


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(".", f"invalid JSON: {exc}") from exc
