"""Per-layer tracing for the benchmark, installed from outside the library.

The layers are the package's modules.  The library imports its functions by
name (``from .ince import solve_ince``), so each public function is replaced
in every module namespace that holds it, and a call from any module passes
through the one wrapper.  A wrapper records the call count, the call's total
duration and its self time (duration minus the durations of the traced calls
made inside it), plus a few work counts taken from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "ince", "quantum", "beams", "vortex", "verify", "cli")

# The cli layer is traced at its entry point only, so argument parsing,
# 17-digit formatting and the sha256 manifest all count as cli self time.
ENTRY_POINTS = {"cli": ("main",)}


def _mode_eps_key(mode, ellipticity):
    return (mode, float(ellipticity))


def _field_key(mode, ellipticity, geometry, x, y):
    # the IG norm constant depends on (mode, eps, waist) only
    return (mode, float(ellipticity), geometry.waist)


# Inputs whose repetition a cache could serve: repeats / calls is the
# function's hit ratio, independent of how (or whether) the library caches.
REUSE_KEYS = {
    "ince.solve_ince": _mode_eps_key,
    "quantum.decompose": _mode_eps_key,
    "beams.eval_ig": _field_key,
}


# Work done per call: names of the counts, and a function of the result and
# the arguments giving their values.
WORK_COUNTS = {
    "ince.eval_angular": (("points",), lambda result, poly, eta: (np.size(eta),)),
    "ince.eval_radial": (("points",), lambda result, poly, xi: (np.size(xi),)),
    "quantum.oam_curve": (("points",), lambda result, *a, **k: (result.epsilons.size,)),
    "beams.sample_grid": (("points",), lambda result, *a, **k: (result.nx * result.ny,)),
    "vortex.find_vortices": (
        ("plaquettes", "found"),
        lambda result, field, *a, **k: ((field.nx - 1) * (field.ny - 1), len(result)),
    ),
    "verify.run_checks": (("checks",), lambda result, *a, **k: (len(result.results),)),
}


class Tracer:
    """Wraps the library's public functions and accumulates per-call stats."""

    def __init__(self):
        # name -> [calls, self_s, total_s, repeats]
        self.stats = {}
        self.counts = Counter(
            {f"{name}.{what}": 0 for name, (whats, _) in WORK_COUNTS.items() for what in whats}
        )
        self.active = True
        self._seen = {name: set() for name in REUSE_KEYS}
        self._stack = [0.0]
        self._patched = []

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        key_of = REUSE_KEYS.get(name)
        seen = self._seen.get(name)
        whats, count_of = WORK_COUNTS.get(name, ((), None))
        keys = [f"{name}.{what}" for what in whats]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key_of is not None:
                key = key_of(*args, **kwargs)
                if key in seen:
                    stats[3] += 1
                else:
                    seen.add(key)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                stats[2] += elapsed
                stack[-1] += elapsed
            if count_of is not None:
                for key, amount in zip(keys, count_of(result, *args, **kwargs)):
                    self.counts[key] += amount
            return result

        return traced

    def install(self):
        """Replace every traced function in every package namespace."""
        package = importlib.import_module("elliptic_oam")
        modules = [package] + [importlib.import_module(f"elliptic_oam.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            names = ENTRY_POINTS.get(layer) or [
                name
                for name, obj in vars(module).items()
                if not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, entry[1])
        return self

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Let calls through untraced, e.g. while the benchmark checks results."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()}, "counts": dict(self.counts)}


def merge(snapshots) -> dict:
    """Sum the stats and counts of several snapshots (one per process)."""
    stats, counts = {}, Counter()
    for snap in snapshots:
        for name, values in snap["stats"].items():
            total = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(values):
                total[i] += value
        counts.update(snap["counts"])
    return {"stats": stats, "counts": dict(counts)}


def layer_metrics(snapshot) -> dict:
    """Per-function and per-layer metrics from a (merged) snapshot."""
    stats, counts = snapshot["stats"], snapshot["counts"]
    out = {}
    for name, (calls, self_s, _total, repeats) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.repeats"] = repeats
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[1] for k, v in stats.items() if k.startswith(layer + "."))
    out.update(counts)

    def ratio(name):
        calls = out.get(f"{name}.calls", 0)
        return out.get(f"{name}.repeats", 0) / calls if calls else 0.0

    out["ince.solve_hit_ratio"] = ratio("ince.solve_ince")
    out["quantum.decompose_hit_ratio"] = ratio("quantum.decompose")
    out["beams.norm_hit_ratio"] = ratio("beams.eval_ig")
    out["quantum.analysis.self_s"] = out.get("quantum.find_turning_points.self_s", 0.0) + out.get(
        "quantum.find_crossings.self_s", 0.0
    )
    out["vortex.found"] = counts.get("vortex.find_vortices.found", 0)
    out["verify.checks"] = counts.get("verify.run_checks.checks", 0)
    return out
