"""Per-layer metrics of the traced run, computed from spans.

The traced run wraps the public names that callers look up at call time
(``WRAPPED``); the benchmark adds spans around whole CLI commands
(``cli.*``), ``integrate_estimate`` and single-point ``evaluate``.  The
layers are the modules that define the wrapped functions.  A wrapped name
that no longer exists makes the metrics that depend on it missing
(``DEPENDS``); the run goes on.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass, field

import numpy as np

from spans import Tracer

# (module, attribute, span name)
WRAPPED = (
    ("mfrde.cli", "fit", "estimator.fit"),
    ("mfrde.cli", "read_dataset", "datasets.read_dataset"),
    ("mfrde.cli", "save_model", "estimator.save_model"),
    ("mfrde.cli", "load_model", "estimator.load_model"),
    ("mfrde.cli", "evaluate_batch", "estimator.evaluate_batch"),
    ("mfrde.estimator", "build_forest", "geometry.build_forest"),
    ("mfrde.estimator", "assign_blocks", "estimator.assign_blocks"),
    ("mfrde.estimator", "leaf_indices", "geometry.leaf_indices"),
    ("mfrde.evaluation", "fit", "estimator.fit"),
    ("mfrde.evaluation", "evaluate_batch", "estimator.evaluate_batch"),
    ("mfrde.evaluation", "generate", "datasets.generate"),
    ("mfrde.evaluation", "make_grid", "evaluation.make_grid"),
)

# Wrapped only around ``integrate_estimate``, to see the densities at the
# quadrature nodes.
NODE_DENSITIES = ("mfrde.estimator", "evaluate_batch", "estimator.evaluate_batch")

_FIT_FACTS = ["estimator.quadrature_nodes", "estimator.gathered_counts",
              "estimator.count_bytes", "estimator.tail_dropped", "estimator.out_of_box"]
_SWEEP_EVALS = ["evaluation.points_evaluated", "evaluation.useful_eval_frac"]
_SELF = ["estimator.fit_self_s", "cli.fit.self_s", "cli.score.self_s",
         "cli.eval_grid.self_s"]

DEPENDS = {
    "mfrde.cli.fit": ["estimator.fit_s"] + _FIT_FACTS + _SELF,
    "mfrde.cli.read_dataset": ["datasets.read_s", "datasets.rows"] + _SELF,
    "mfrde.cli.save_model": ["estimator.save_model_s"] + _SELF,
    "mfrde.cli.load_model": ["estimator.load_model_s"] + _SELF,
    "mfrde.cli.evaluate_batch": ["estimator.evaluate_batch_s"] + _SELF,
    "mfrde.estimator.build_forest": ["geometry.build_forest_s"] + _SELF,
    "mfrde.estimator.assign_blocks": ["estimator.assign_blocks_s"] + _SELF,
    "mfrde.estimator.leaf_indices": ["geometry.leaf_indices_s", "geometry.leaf_walks",
                                     "geometry.walks_per_s"] + _SELF,
    "mfrde.evaluation.fit": ["evaluation.fit_calls"] + _SWEEP_EVALS,
    "mfrde.evaluation.evaluate_batch": _SWEEP_EVALS,
    "mfrde.evaluation.generate": ["datasets.generate_s"],
    "mfrde.estimator.evaluate_batch": ["estimator.zero_density_frac"],
}


def quadrature_nodes(model) -> int:
    quad, d = model.quadrature, model.box.d
    if quad.method == "exact-dyadic":
        return 2 ** (model.depth * d)
    if quad.method == "regular-grid":
        return quad.grid_points**d
    return quad.mc_draws


@dataclass
class Facts:
    """What the wrappers saw, keyed by span id."""

    fits: dict = field(default_factory=dict)
    evals: dict = field(default_factory=dict)


def _points_arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_densities(sp, args, kwargs, result) -> None:
    sp.counts["points"] = int(result.shape[0])
    sp.counts["zeros"] = int(np.count_nonzero(result == 0))


def install(tracer: Tracer, facts: Facts) -> None:
    """Wrap every name in ``WRAPPED``; the hooks fill ``facts``."""

    def on_read(sp, args, kwargs, result):
        sp.counts["rows"] = int(result.n)

    def on_leaf(sp, args, kwargs, result):
        sp.counts["points"] = int(np.shape(_points_arg(args, kwargs, 2, "points"))[0])

    def on_fit(sp, args, kwargs, model):
        s, t = model.n_blocks, model.n_trees
        nodes = quadrature_nodes(model)
        facts.fits[sp.id] = {
            "model": model,
            "nodes": nodes,
            "gathered": nodes * s * t,
            "count_bytes": int(model.counts.nbytes),
            "dropped": int(model.dropped),
            "out_of_box": int(s * model.m - model.counts[:, 0, :].sum()),
        }

    def on_eval(sp, args, kwargs, result):
        _count_densities(sp, args, kwargs, result)
        facts.evals[sp.id] = (args[0], _points_arg(args, kwargs, 1, "points"))

    hooks = {"datasets.read_dataset": on_read, "geometry.leaf_indices": on_leaf,
             "estimator.fit": on_fit, "estimator.evaluate_batch": on_eval}
    for module, attr, name in WRAPPED:
        tracer.wrap(importlib.import_module(module), attr, name, hooks.get(name))


def integrate_traced(tracer: Tracer, model) -> float:
    """``integrate_estimate`` in a span, with the node densities counted."""
    estimator = importlib.import_module("mfrde.estimator")
    module, attr, name = NODE_DENSITIES
    with tracer.wrapping(importlib.import_module(module), attr, name, _count_densities):
        with tracer.op("estimator.integrate_estimate"):
            return estimator.integrate_estimate(model)


def _sum(spans, name: str) -> float:
    return float(sum(s.duration for s in spans if s.name == name))


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def _distinct_points(facts: Facts, fit_spans, eval_spans) -> int:
    """Distinct points each fitted model was evaluated at, quadrature included.

    Call it with the wrappers removed: it builds regular-grid nodes itself.
    """
    make_grid = importlib.import_module("mfrde.evaluation").make_grid
    by_model: dict[int, list] = {}
    for sp in eval_spans:
        model, pts = facts.evals[sp.id]
        by_model.setdefault(id(model), []).append(np.asarray(pts, dtype=float))
    distinct = 0
    for sp in fit_spans:
        fact = facts.fits[sp.id]
        model = fact["model"]
        pts = by_model.get(id(model), [])
        if model.quadrature.method == "regular-grid":
            pts = pts + [make_grid(model.box, model.quadrature.grid_points).points]
        else:  # dyadic centres and random draws miss the evaluation points
            distinct += fact["nodes"]
        if pts:
            distinct += int(np.unique(np.concatenate(pts), axis=0).shape[0])
    return distinct


def cycle_metrics(tracer: Tracer, facts: Facts, run: int) -> dict:
    """Layer metrics of one traced cycle (every span with ``run``).

    The ``geometry`` and ``estimator`` fit metrics describe ``mfrde fit`` of
    the served model; the ``evaluation`` metrics and ``datasets.generate_s``
    describe the ``mfrde benchmark`` sweep.
    """
    kids = tracer.children()
    spans = [s for s in tracer.spans if s.run == run]
    ops = {s.name: s for s in spans if s.parent is None}
    in_cmd = tracer.descendants(ops["cli.fit"], kids)
    in_sweep = tracer.descendants(ops["cli.benchmark"], kids)
    serving = [s for op in ("cli.score", "cli.eval_grid")
               for s in tracer.descendants(ops[op], kids)]

    reads = [s for s in spans if s.name == "datasets.read_dataset"]
    leaf = [s for s in in_cmd if s.name == "geometry.leaf_indices"]
    leaf_s = _sum(leaf, "geometry.leaf_indices")
    walks = sum(s.counts.get("points", 0) for s in leaf)
    fits = [s for s in in_cmd if s.name == "estimator.fit"]
    fit_facts = [facts.fits[s.id] for s in fits]
    m = {
        "datasets.read_s": _sum(reads, "datasets.read_dataset"),
        "datasets.rows": sum(s.counts.get("rows", 0) for s in reads),
        "datasets.generate_s": _sum(in_sweep, "datasets.generate"),
        "geometry.build_forest_s": _sum(in_cmd, "geometry.build_forest"),
        "geometry.leaf_indices_s": leaf_s,
        "geometry.leaf_walks": walks,
        "geometry.walks_per_s": walks / leaf_s if leaf_s > 0 else 0.0,
        "estimator.assign_blocks_s": _sum(in_cmd, "estimator.assign_blocks"),
        "estimator.fit_s": _sum(fits, "estimator.fit"),
        "estimator.fit_self_s": float(sum(tracer.self_time(s, kids) for s in fits)),
        "estimator.quadrature_nodes": sum(f["nodes"] for f in fit_facts),
        "estimator.gathered_counts": sum(f["gathered"] for f in fit_facts),
        "estimator.count_bytes": max((f["count_bytes"] for f in fit_facts), default=0),
        "estimator.tail_dropped": sum(f["dropped"] for f in fit_facts),
        "estimator.out_of_box": sum(f["out_of_box"] for f in fit_facts),
        "estimator.evaluate_batch_s": _sum(serving, "estimator.evaluate_batch"),
        "estimator.evaluate_us": 1e6 * _median(
            [s.duration for s in spans if s.name == "estimator.evaluate"]),
        "estimator.save_model_s": _median(
            [s.duration for s in spans if s.name == "estimator.save_model"]),
        "estimator.load_model_s": _median(
            [s.duration for s in spans if s.name == "estimator.load_model"]),
        "cli.fit.self_s": tracer.self_time(ops["cli.fit"], kids),
        "cli.score.self_s": tracer.self_time(ops["cli.score"], kids),
        "cli.eval_grid.self_s": tracer.self_time(ops["cli.eval_grid"], kids),
    }
    sweep_fits = [s for s in in_sweep if s.name == "estimator.fit"]
    evals = [s for s in in_sweep if s.name == "estimator.evaluate_batch"]
    evaluated = (sum(s.counts["points"] for s in evals)
                 + sum(facts.fits[s.id]["nodes"] for s in sweep_fits))
    m["evaluation.fit_calls"] = len(sweep_fits)
    m["evaluation.points_evaluated"] = evaluated
    m["evaluation.useful_eval_frac"] = (
        _distinct_points(facts, sweep_fits, evals) / evaluated if evaluated else 0.0)
    return m


def node_metrics(tracer: Tracer) -> dict:
    """Normalizer time and zero-density share from the traced integration."""
    kids = tracer.children()
    spans = [s for s in tracer.spans if s.name == "estimator.integrate_estimate"]
    nodes = [c for s in spans for c in kids.get(s.id, ())
             if c.name == "estimator.evaluate_batch"]
    points = sum(c.counts.get("points", 0) for c in nodes)
    zeros = sum(c.counts.get("zeros", 0) for c in nodes)
    return {
        "estimator.normalizer_s": _median([s.duration for s in spans]),
        "estimator.zero_density_frac": zeros / points if points else 0.0,
    }


def combine(per_cycle: list[dict], extra: dict, missing: list[str]) -> dict:
    """Median over traced cycles, plus run-level values, minus missing layers."""
    out = {k: _median([c[k] for c in per_cycle]) for k in per_cycle[0]}
    out.update(extra)
    for name in missing:
        for metric in DEPENDS.get(name, ()):
            out.pop(metric, None)
    return out
