"""Spans around the public functions of every ``polysafe`` layer, and the
per-layer metrics derived from them.

:meth:`Tracer.install` wraps each public function and each public method of
the public classes defined in the layer modules.  A name imported by value
into other modules (``interval_enclosure`` in ``synthesis``, ``verify`` and
``datagen``; ``collect_informative`` in ``cli``; ...) is replaced in every
``polysafe`` module that holds it, so calls through any import are traced.

A span records its name, start, end, parent and the operation it belongs
to, plus a few counts taken from the call's arguments or result.  Spans
stay in memory until :meth:`Tracer.dump`.  A span's self time is its
duration minus the durations of its children; calls are sequential, so the
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "datagen", "dynamics", "lpcore", "polytope", "synthesis", "verify")

# span fields, stored as lists to keep the per-call cost small
ID, OP, NAME, PARENT, START, END, ATTRS = range(7)


def _points(args, kwargs, result) -> dict:
    shape = np.shape(args[1] if len(args) > 1 else kwargs["x"])
    return {"points": int(np.prod(shape[:-1])) if len(shape) > 1 else 1}


def _solve(args, kwargs, result) -> dict:
    lp = args[0]
    return {"rows": lp.n_constraints, "cols": lp.n_variables,
            "pivots": result.iterations, "infeasible": result.status.value == "infeasible"}


# counts taken at a boundary, keyed by span name
COUNTERS = {
    "dynamics.Dictionary.values": _points,
    "lpcore.LinearProgram.solve": _solve,
    "polytope.sample_grid": lambda a, k, r: {"points": len(r)},
    "verify.grid_contractivity": lambda a, k, r: {"samples": r.samples},
    "verify.monte_carlo_invariance": lambda a, k, r: {"steps": r.samples, "exits": r.violations},
    "synthesis.baseline_search": lambda a, k, r: {"candidates": len(r.candidates)},
}


def _public_callables(module):
    """(qualified name, owner, attribute, function) for the module's own public API."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", module, attr, obj
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield f"{layer}.{attr}.{meth}", obj, meth, fn


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), self.op, name, stack[-1][ID] if stack else None,
                    clock(), None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[ATTRS] = count(args, kwargs, result)
                return result
            except BaseException as err:
                span[ATTRS] = {"error": type(err).__name__}
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public API of every layer, in every module that imported it."""
        modules = [importlib.import_module(f"polysafe.{layer}") for layer in LAYERS]
        wrappers = {}
        for module in modules:
            for name, owner, attr, fn in _public_callables(module):
                wrappers[id(fn)] = self._wrap(name, fn)
                self._patch(owner, attr, wrappers[id(fn)])
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polysafe" and not mod_name.startswith("polysafe."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, wrappers[id(obj)])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        fields = ["id", "op", "name", "parent", "start", "end", "attrs"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


def layer_metrics(spans: list[list], n_ops: int) -> dict:
    """Per-operation means of the per-layer metrics (maxima for ``*_max``)."""
    by_id = {s[ID]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]

    def ancestors(span):
        while span[PARENT] is not None:
            span = by_id[span[PARENT]]
            yield span[NAME]

    def named(*names):
        return [s for s in spans if s[NAME] in names]

    def outer_time(*names):
        """Time in spans of ``names``, not counting one nested in another of them."""
        return sum(s[END] - s[START] for s in named(*names)
                   if not any(a in names for a in ancestors(s)))

    def total(name, key):
        return sum((s[ATTRS] or {}).get(key, 0) for s in named(name))

    def inside(name, outer):
        return sum(1 for s in named(name) if outer in ancestors(s))

    self_time = defaultdict(float)
    for s in spans:
        self_time[s[NAME].split(".")[0]] += s[END] - s[START] - child_time[s[ID]]

    solves = named("lpcore.LinearProgram.solve")
    sizes = [(s[ATTRS]["rows"], s[ATTRS]["cols"]) for s in solves if "rows" in (s[ATTRS] or {})]
    mc_s = outer_time("verify.monte_carlo_invariance")
    mc_steps = total("verify.monte_carlo_invariance", "steps")
    per_op = {
        "verify.mc_s": mc_s,
        "verify.mc_steps": mc_steps,
        "verify.mc_exits": total("verify.monte_carlo_invariance", "exits"),
        "dynamics.values_s": outer_time("dynamics.Dictionary.values"),
        "dynamics.values_calls": len(named("dynamics.Dictionary.values")),
        "dynamics.points": total("dynamics.Dictionary.values", "points"),
        "verify.grid_s": outer_time("verify.grid_contractivity"),
        "verify.grid_samples": total("verify.grid_contractivity", "samples"),
        "polytope.grid_s": outer_time("polytope.sample_grid"),
        "polytope.grid_points": total("polytope.sample_grid", "points"),
        "lpcore.solve_s": outer_time("lpcore.LinearProgram.solve"),
        "lpcore.solves": len(solves),
        "lpcore.pivots": total("lpcore.LinearProgram.solve", "pivots"),
        "lpcore.infeasible": total("lpcore.LinearProgram.solve", "infeasible"),
        "lpcore.errors": sum(1 for s in solves if "error" in (s[ATTRS] or {})),
        "lpcore.build_s": outer_time("lpcore.LinearProgram.add_block",
                                     "lpcore.LinearProgram.add_constraint",
                                     "lpcore.LinearProgram.add_constraint_rows"),
        "synthesis.sweep_s": outer_time("synthesis.minimal_contraction"),
        "synthesis.sweep_lps": inside("lpcore.LinearProgram.solve", "synthesis.minimal_contraction"),
        "synthesis.gain_search_s": outer_time("synthesis.baseline_search"),
        "synthesis.gain_candidates": total("synthesis.baseline_search", "candidates"),
        "synthesis.expansion_s": outer_time("synthesis.pick_expansion_point"),
        "synthesis.expansion_candidates": inside("dynamics.expansion_point",
                                                 "synthesis.pick_expansion_point"),
        "synthesis.design_s": outer_time("synthesis.synthesize_noiseless",
                                         "synthesis.synthesize_robust",
                                         "synthesis.synthesize_min_remainder"),
        "polytope.enclosure_s": outer_time("polytope.interval_enclosure"),
        "polytope.enclosure_calls": len(named("polytope.interval_enclosure")),
        "polytope.vertices_s": outer_time("polytope.enumerate_vertices"),
        "datagen.collect_s": outer_time("datagen.collect_informative"),
        "datagen.experiments": len(named("datagen.collect")),
        "bench.traced_op_s": outer_time("cli.main"),
        "bench.spans": len(spans),
    }
    per_op.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    metrics = {name: value / n_ops for name, value in per_op.items()}
    metrics["verify.mc_steps_per_s"] = mc_steps / mc_s if mc_s else 0.0
    metrics["lpcore.rows_max"] = max((r for r, _ in sizes), default=0)
    metrics["lpcore.cols_max"] = max((c for _, c in sizes), default=0)
    metrics["lpcore.model_mb_max"] = max((r * c * 8 / 1e6 for r, c in sizes), default=0.0)
    return metrics
