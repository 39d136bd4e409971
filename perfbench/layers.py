"""Which program functions the traced run wraps, and the per-layer metrics.

A layer is one haarweight module. Every plain function in a layer module's
`__all__` gets a span named `<layer>.<function>`, plus `WeightSpec.realize`
(config) and each entry of `acceptance.CRITERIA`. Counters that an
optimisation is expected to move are read from the call's arguments and
result, never from inside the program.
"""

from __future__ import annotations

import hashlib
import inspect
import os

import numpy as np

import tracer as tr

LAYERS = ("dyadic", "weights", "reducing", "stopping", "multipliers",
          "analysis", "serialization", "config")

# per-layer metric -> unit; BENCHMARK.json lists the same names
METRICS = {
    "reducing.build_family.calls": "count",
    "reducing.build_family.dup": "count",
    "reducing.build_family.self_s": "s",
    "reducing.duality_check.s": "s",
    "reducing.ellipsoid_cubes": "count",
    "reducing.shortcut_frac": "fraction",
    "reducing.kappa_max": "ratio",
    "weights.spd_power_stack.calls": "count",
    "weights.spd_power_stack.matrices": "count",
    "weights.self_s": "s",
    "stopping.calibrate.calls": "count",
    "stopping.calibrate.dup": "count",
    "stopping.calibrate.self_s": "s",
    "stopping.build_generations.self_s": "s",
    "multipliers.calls": "count",
    "multipliers.self_s": "s",
    "analysis.sharpness_probe.calls": "count",
    "analysis.sharpness_probe.self_s": "s",
    "analysis.sharpness_probe.gflop": "Gflop-computed",
    "analysis.equivalence.self_s": "s",
    "analysis.other.self_s": "s",
    "dyadic.calls": "count",
    "dyadic.self_s": "s",
    "serialization.self_s": "s",
    "serialization.bytes": "bytes",
    "config.self_s": "s",
    "experiments.concurrency": "ratio",
    **{f"acceptance.c{i:02d}.s": "s" for i in range(1, 14)},
    "trace.spans": "count",
    "trace.overhead_frac": "fraction",
}


def _digest(cells) -> str:
    return hashlib.sha1(np.ascontiguousarray(cells).tobytes()).hexdigest()


def _family_attrs(args, kwargs, fam):
    weight = args[0] if args else kwargs["weight"]
    from haarweight.reducing import METHOD_NAMES

    ell = METHOD_NAMES.index("ellipsoid")
    codes = list(fam.method) + list(fam.method_dual)
    return {
        "key": f"{_digest(weight.cells)}/{fam.p!r}/{fam.max_depth}",
        "ellipsoid": int(sum(int((c == ell).sum()) for c in codes)),
        "cubes": int(sum(c.size for c in codes)),
        "kappa": fam.max_kappa(),
    }


def _power_attrs(args, kwargs, result):
    mats = np.asarray(args[0] if args else kwargs["mats"])
    return {"matrices": int(mats.size // max(mats.shape[-1] ** 2, 1))}


def _calibrate_attrs(args, kwargs, result):
    entries = args[0] if args else kwargs["weights_and_families"]
    parts = [f"{name}/{_digest(w.cells)}/{fam.p!r}/{fam.max_depth}"
             for name, w, fam in entries]
    rest = repr((args[1:], sorted(kwargs.items())))
    return {"key": "|".join(parts) + rest}


def _probe_attrs(args, kwargs, probe):
    """Dense generalized eigensolve of order N = (cells - 1) n: the Gram matrix
    costs n(n+1)/2 products of 2 m^2 cells flops, eigh about 8/3 N^3."""
    weight = args[0] if args else kwargs["weight"]
    n_order = probe.size
    m = n_order // weight.n
    cells = m + 1
    flop = weight.n * (weight.n + 1) / 2 * 2.0 * m * m * cells
    flop += 8.0 / 3.0 * n_order ** 3
    return {"gflop": flop / 1e9}


def _bytes_attrs(args, kwargs, result):
    if isinstance(result, os.PathLike) and os.path.isfile(result):
        return {"bytes": os.path.getsize(result)}
    return None


_ATTRS = {
    "reducing.build_reducing_family": _family_attrs,
    "weights.spd_power_stack": _power_attrs,
    "stopping.calibrate_lambdas": _calibrate_attrs,
    "analysis.sharpness_probe": _probe_attrs,
}


def instrument(tracer: tr.Tracer, haarweight) -> list:
    """Wrap the program's public functions; returns the undo list."""
    undo = []
    for layer in LAYERS:
        mod = getattr(haarweight, layer)
        for fname in getattr(mod, "__all__", ()):
            obj = getattr(mod, fname, None)
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            span = f"{layer}.{fname}"
            attrs = _ATTRS.get(span, _bytes_attrs if layer == "serialization" else None)
            undo += tr.wrap_everywhere(tracer, span, mod, fname, "haarweight", attrs)
    undo += tr.wrap_everywhere(tracer, "config.WeightSpec.realize",
                               haarweight.config.WeightSpec, "realize", "haarweight")
    acc = haarweight.acceptance
    original = acc.CRITERIA
    acc.CRITERIA = tuple(tracer.wrap(f"acceptance.{fn.__name__[:3]}", fn)
                         for fn in original)
    undo.append((acc, "CRITERIA", original))
    return undo


def layer_metrics(spans, traced_wall: float, span_cost: float) -> dict:
    """The per-layer metrics of one traced repeat.

    trace.overhead_frac is the tracer's own time, spans x the wrapper's
    measured cost per call, as a share of the untraced wall it implies. A
    traced/untraced pair of single repeats cannot resolve it: host noise
    between two repeats is larger than the tracer's cost.
    """
    selfs = tr.self_times(spans)
    out = {k: 0.0 for k in METRICS}

    def add(key, val):
        out[key] += val

    seen_fam, seen_cal = set(), set()
    cubes = 0
    for s in spans:
        layer, _, fname = s.name.partition(".")
        own = selfs[s.id]
        dur = s.end - s.start
        if layer in ("dyadic", "multipliers"):
            add(f"{layer}.calls", 1)
        if layer in ("weights", "dyadic", "multipliers", "serialization", "config"):
            add(f"{layer}.self_s", own)
        if layer == "acceptance":
            add(f"{s.name}.s", dur)
        elif s.name == "reducing.build_reducing_family":
            add("reducing.build_family.calls", 1)
            add("reducing.build_family.self_s", own)
            key = s.attrs["key"]
            add("reducing.build_family.dup", key in seen_fam)
            seen_fam.add(key)
            add("reducing.ellipsoid_cubes", s.attrs["ellipsoid"])
            cubes += s.attrs["cubes"]
            out["reducing.kappa_max"] = max(out["reducing.kappa_max"], s.attrs["kappa"])
        elif s.name == "reducing.duality_check":
            add("reducing.duality_check.s", dur)
        elif s.name == "weights.spd_power_stack":
            add("weights.spd_power_stack.calls", 1)
            add("weights.spd_power_stack.matrices", s.attrs["matrices"])
        elif s.name == "stopping.calibrate_lambdas":
            add("stopping.calibrate.calls", 1)
            add("stopping.calibrate.self_s", own)
            add("stopping.calibrate.dup", s.attrs["key"] in seen_cal)
            seen_cal.add(s.attrs["key"])
        elif s.name == "stopping.build_generations":
            add("stopping.build_generations.self_s", own)
        elif s.name == "analysis.sharpness_probe":
            add("analysis.sharpness_probe.calls", 1)
            add("analysis.sharpness_probe.self_s", own)
            add("analysis.sharpness_probe.gflop", s.attrs["gflop"])
        elif s.name == "analysis.equivalence_ratios":
            add("analysis.equivalence.self_s", own)
        elif layer == "analysis":
            add("analysis.other.self_s", own)
        if layer == "serialization" and s.attrs:
            add("serialization.bytes", s.attrs["bytes"])
    if cubes:
        out["reducing.shortcut_frac"] = 1.0 - out["reducing.ellipsoid_cubes"] / cubes
    out["experiments.concurrency"] = sum(selfs.values()) / traced_wall
    out["trace.spans"] = len(spans)
    cost = len(spans) * span_cost
    out["trace.overhead_frac"] = cost / (traced_wall - cost)
    return out
