"""The package names that the benchmark in ``perfbench/`` wraps or calls.

The traced benchmark run wraps ``(module, attr)`` pairs at call time and
drops the metrics of any name that no longer resolves, so an API cut would
only show up there as ``missing_layers``.  These tests make it a failure.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then get the rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def test_wrapped_names_resolve(layers):
    pairs = list(layers.WRAPPED) + [layers.NODE_DENSITIES]
    missing = [f"{module}.{attr}" for module, attr, _ in pairs
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_called_names_resolve():
    names = {"mfrde.evaluation.make_grid", "mfrde.estimator.integrate_estimate"}
    for source in ("run.py", "workloads.py", "layers.py"):
        text = (PERFBENCH / source).read_text()
        names |= {"mfrde." + m.rstrip(".")
                  for m in re.findall(r"\bmfrde\.([A-Za-z_][\w.]*)", text)}
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []
    assert "mfrde.evaluate_batch" in names and "mfrde.cli" in names


def test_integrate_estimate_calls_evaluate_batch_at_call_time(monkeypatch):
    from mfrde import estimator

    model = estimator.fit(
        np.random.default_rng(0).random((40, 2)),
        estimator.EstimatorConfig(m=10, trees=2, depth=2, seed=0),
    )
    seen = []
    original = estimator.evaluate_batch

    def spy(model, points):
        seen.append(len(points))
        return original(model, points)

    monkeypatch.setattr(estimator, "evaluate_batch", spy)
    assert estimator.integrate_estimate(model) == pytest.approx(1.0)
    assert sum(seen) == 2 ** (2 * 2)


def test_fit_and_evaluate_batch_call_leaf_indices_at_call_time(monkeypatch):
    # perfbench's geometry.leaf_indices_s spans wrap this name, and count
    # the walks of the data inside ``cli.fit`` as geometry.leaf_walks
    from mfrde import estimator

    data = np.random.default_rng(1).random((40, 2))
    seen = []
    original = estimator.leaf_indices

    def spy(forest, points):
        seen.append(len(points))
        return original(forest, points)

    monkeypatch.setattr(estimator, "leaf_indices", spy)
    model = estimator.fit(data, estimator.EstimatorConfig(m=10, trees=2, depth=2, seed=0))
    # the 40 data points; the exact-dyadic normalizer takes its cells'
    # leaf ids from their integer codes, not through this name
    assert seen == [40]
    # an in-budget model looks its points up in its cell table: no walk
    estimator.evaluate_batch(model, data[:7])
    assert seen == [40]
    # past the table budget (set to 0 here) a query walks through the name
    monkeypatch.setattr(estimator, "_TABLE_CELLS", 0)
    estimator.evaluate_batch(dataclasses.replace(model), data[:7])
    assert seen[1:] == [7]


def test_estimator_passes_points_to_leaf_indices_by_keyword(monkeypatch):
    # perfbench's leaf hook reads ``points`` from the keywords, else from a
    # third positional argument, which leaf_indices does not have
    from mfrde import estimator

    calls = []
    original = estimator.leaf_indices

    def spy(*args, **kwargs):
        calls.append((len(args), tuple(kwargs)))
        return original(*args, **kwargs)

    monkeypatch.setattr(estimator, "leaf_indices", spy)
    data = np.random.default_rng(2).random((40, 2))
    # within the table budget and past it (0), where queries walk too
    for budget in (estimator._TABLE_CELLS, 0):
        monkeypatch.setattr(estimator, "_TABLE_CELLS", budget)
        for spec in ("exact", "grid:5", "mc:50"):
            model = estimator.fit(data, estimator.EstimatorConfig(
                m=10, trees=2, depth=2, seed=0, quadrature=estimator.Quadrature.parse(spec)))
            estimator.evaluate_batch(model, data[:7])
            estimator.evaluate(model, data[0])
            estimator.integrate_estimate(model)
    assert len(calls) > 6
    assert set(calls) == {(1, ("points",))}


def test_benchmark_forests_stay_on_the_full_table(monkeypatch):
    # perfbench's timings and reference digests assume that every forest it
    # builds reads its leaf ids in one gather (table depth k = p), and that
    # each served model integrates on the exact dyadic lattice
    from mfrde import estimator
    from mfrde.geometry import _table_depth

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    served = list(workloads.WORKLOADS.values()) + list(workloads.TINY.values())
    sweeps = [wl.sweep for wl in served] + [workloads.SWEEP, workloads.TINY_SWEEP]
    shapes = [(wl.trees, wl.depth, len(wl.box.split(","))) for wl in served]
    shapes += [(trees, depth, len(sweep["box"]["lo"])) for sweep in sweeps
               for trees in sweep["trees"] for depth in sweep["depths"]]
    assert shapes
    for trees, depth, d in shapes:
        assert d == 2
        assert _table_depth(trees, depth, d) == depth, (trees, depth)
    for wl in served:
        quad = estimator.Quadrature.parse(wl.quadrature)
        assert quad.method == "auto"
        resolved = estimator._plan(wl.trees, wl.depth, wl.m, wl.n, 2, quad).quadrature
        assert resolved.method == "exact-dyadic"
        # big-blocks gathers 7.9e6 counts and many-blocks 7.9e7
        assert 2 ** (2 * wl.depth) * wl.trees * wl.blocks <= estimator._WORK_BUDGET


def test_benchmark_fits_stay_far_below_the_byte_budget(monkeypatch):
    # every fit perfbench runs, served or in a sweep, would pass a byte
    # budget 256 times smaller than the real one
    from mfrde import estimator

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    served = list(workloads.WORKLOADS.values()) + list(workloads.TINY.values())
    fits = [(wl.trees, wl.depth, wl.m, wl.n, wl.quadrature) for wl in served]
    fits += [(trees, depth, round(ratio * wl.sweep["n"]), wl.sweep["n"],
              wl.sweep["quadrature"])
             for wl in served for trees in wl.sweep["trees"]
             for depth in wl.sweep["depths"] for ratio in wl.sweep["m_ratios"]]
    assert len(fits) == 8
    monkeypatch.setattr(estimator, "_BYTE_BUDGET", estimator._BYTE_BUDGET // 256)
    for trees, depth, m, n, spec in fits:
        estimator._plan(trees, depth, m, n, 2, estimator.Quadrature.parse(spec))


def test_which_perfbench_evaluations_take_the_cell_path(monkeypatch):
    # Every model perfbench builds has at most 65 536 cells and holds its
    # bordered cell table.  Each sweep fit's grid:100 normalizer builds the
    # table once and looks up its 10 000 nodes in it; the fitted model
    # keeps it, so the MAE grid and the AUC's 500 data points look it up
    # too.  The served model's exact normalizer fills its table as it
    # streams, so its score (20 000 rows, out-of-box ones included) and
    # eval-grid (22 500 points) are lookups that build no table, take no
    # median and walk no leaf.  This pins routing, not values.
    import mfrde
    from mfrde import estimator, evaluation, geometry

    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    lookups, tables, walks, medians = [], [], [], []
    bordered_index, median_values = geometry._bordered_index, estimator._median_values
    cell_table, leaf_indices = estimator._cell_table, estimator.leaf_indices

    def index_spy(forest, pts):
        lookups.append((len(pts), 2 ** (forest.depth * forest.box.d)))
        return bordered_index(forest, pts)

    def median_spy(forest, leaf_major, m, points):
        medians.append(len(points))
        return median_values(forest, leaf_major, m, points)

    def table_spy(forest, leaf_major, m):
        tables.append(2 ** (forest.depth * forest.box.d))
        return cell_table(forest, leaf_major, m)

    def leaf_spy(forest, points):
        walks.append(len(points))
        return leaf_indices(forest, points=points)

    monkeypatch.setattr(geometry, "_bordered_index", index_spy)
    monkeypatch.setattr(estimator, "_median_values", median_spy)
    monkeypatch.setattr(estimator, "_cell_table", table_spy)
    monkeypatch.setattr(estimator, "leaf_indices", leaf_spy)
    for wl in workloads.WORKLOADS.values():
        for seen in (lookups, tables, walks, medians):
            seen.clear()
        evaluation.benchmark(evaluation.BenchmarkConfig.from_dict(dict(wl.sweep, seed=1)))
        # 6 fits: the 3 schemes and their single-block baselines.  Each
        # builds one table, in its normalizer, and walks its data once, in
        # its leaf counts; the quadrature nodes, the MAE grid and the data
        # points are all looked up
        assert tables == [4096] * 6
        assert len(walks) == 6 and max(walks) <= 500
        assert medians == []
        assert {cells for _, cells in lookups} == {4096}
        assert len(lookups) == 18
        assert sorted(n for n, _ in lookups)[6:] == [10_000] * 12
        assert max(sorted(n for n, _ in lookups)[:6]) <= 500

        query = workloads.query_data(mfrde, wl, seed=1)
        lo, hi = zip(*(map(float, axis.split(":")) for axis in wl.box.split(",")))
        model = estimator.fit(query, estimator.EstimatorConfig(
            m=wl.m, trees=wl.trees, depth=wl.depth, box=mfrde.Box(lo, hi)))
        assert model.quadrature.method == "exact-dyadic"
        assert model._cells.shape == (258**2,)
        for seen in (lookups, tables, walks, medians):
            seen.clear()
        estimator.evaluate_batch(model, query.points)
        estimator.evaluate_batch(model, evaluation.make_grid(model.box, wl.grid).points)
        assert lookups == [(20_000, 65_536), (22_500, 65_536)]
        assert tables == [] and walks == [] and medians == []
