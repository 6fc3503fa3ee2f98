"""Evaluation grid, MAE, AUC and the benchmark sweep harness.

The benchmark sweeps contamination schemes, outlier ratios and estimator
parameters on synthetic data, repeating every cell with fresh seeds.  For
each repetition it also fits the single-block (full-sample) forest as the
non-robust baseline.  Per-cell seeds are derived from the master seed and
the cell's position in the grid, so running cells in parallel never
changes the report.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import estimator
from .datasets import DOMAIN, _write_atomic, generate, true_density
from .estimator import (
    EstimatorConfig,
    Quadrature,
    _box_of,
    _typed,
    evaluate_batch,
    fit,
)
from .geometry import Box, _check_seed, _lattice

__all__ = [
    "EvalGrid",
    "EvalReport",
    "BenchmarkConfig",
    "make_grid",
    "auc",
    "benchmark",
]


@dataclass(frozen=True)
class EvalGrid:
    """Inclusive-endpoint lattice over a box: read-only ``(G**d, d)`` points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


def make_grid(box: Box, per_axis: int) -> EvalGrid:
    """Lattice ``lo[j] + (hi[j]-lo[j]) * i/(G-1)``; both endpoints included.

    A lattice of more than ``estimator._CELL_BUDGET`` nodes is refused
    before anything is allocated, as the regular-grid quadrature is.
    """
    if per_axis < 2:
        raise ValueError("grid needs at least 2 points per axis")
    g, d = per_axis, box.d
    estimator._check_nodes(g**d, f"evaluation grid needs G**d = {g}**{d} = {g**d} nodes",
                           "use fewer points per axis")
    axes = [np.linspace(box.lo[j], box.hi[j], per_axis) for j in range(box.d)]
    return EvalGrid(points=np.concatenate(list(_lattice(axes, estimator._QUAD_CHUNK))))


def auc(scores, labels) -> float:
    """Exact Mann-Whitney AUC of anomaly scores against outlier labels.

    Outliers (label 1) are the positive class and should receive high
    scores, inliers are label 0, and any other label raises ``ValueError``
    (``True`` and ``1.0`` are 1); rank ties get half credit.  Ranks are average ranks over the
    distinct values ``np.unique`` finds in its sort: a group of equal
    scores (``-0.0`` equals ``0.0``) takes the mean of the ranks it spans.
    ±inf scores are valid and rank as the extremes; a NaN score has no
    rank and raises ``ValueError``.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    pos = y == 1
    if not (pos | (y == 0)).all():
        raise ValueError("labels must be 0 (inlier) or 1 (outlier)")
    n_pos = int(pos.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need both classes present")
    if np.isnan(s).any():
        raise ValueError("AUC undefined: a score is NaN")
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class BenchmarkConfig:
    """Sweep definition; see :func:`benchmark`.

    ``m_ratios`` are block-size fractions of the sample (``m`` is the
    rounded product, cells with ``m < 1`` or ``m > n`` are skipped).
    ``repeats`` and ``n`` must be at least 1, ``grid_g`` at least 2,
    ``seed`` non-negative, and every list non-empty.
    """

    schemes: tuple[str, ...] = ("uniform",)
    ratios: tuple[float, ...] = (0.2,)
    m_ratios: tuple[float, ...] = (0.1,)
    trees: tuple[int, ...] = (20,)
    depths: tuple[int, ...] = (6,)
    repeats: int = 10
    seed: int = 0
    n: int = 500
    box: Box = DOMAIN
    grid_g: int = 100
    quadrature: Quadrature = field(
        default_factory=lambda: Quadrature(method="regular-grid", grid_points=100)
    )

    def __post_init__(self) -> None:
        for key, value, least in (("repeats", self.repeats, 1), ("n", self.n, 1),
                                  ("grid_G", self.grid_g, 2)):
            if value < least:
                raise ValueError(
                    f"benchmark config {key} must be at least {least}, not {value}"
                )
        for key in ("schemes", "ratios", "m_ratios", "trees", "depths"):
            if not getattr(self, key):
                raise ValueError(f"benchmark config {key} must not be empty")
        _check_seed(self.seed)

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkConfig":
        """The config a sweep document describes.

        An unknown key, or a value of the wrong JSON type, raises a
        ``ValueError`` that names the key.
        """
        if not isinstance(doc, dict):
            raise ValueError("a benchmark config must be a JSON object")
        number = (int, float)
        lists = {"schemes": (str,), "ratios": number, "m_ratios": number,
                 "trees": (int,), "depths": (int,)}
        integers = ("repeats", "seed", "n", "grid_G")
        unknown = sorted(set(doc) - {*lists, *integers, "box", "quadrature"})
        if unknown:
            raise ValueError(f"unknown benchmark config key(s): {', '.join(unknown)}")
        kwargs: dict = {}
        for key, kinds in lists.items():
            if key in doc:
                name = f"benchmark config {key}"
                kwargs[key] = tuple(_typed(v, f"{name}[{i}]", kinds)
                                    for i, v in enumerate(_typed(doc[key], name, (list,))))
        for key in integers:
            if key in doc:
                kwargs[key.lower()] = _typed(doc[key], f"benchmark config {key}")
        if "box" in doc:
            kwargs["box"] = _box_of(doc["box"], "benchmark config box")
        if "quadrature" in doc:
            kwargs["quadrature"] = Quadrature.parse(
                _typed(doc["quadrature"], "benchmark config quadrature", (str,))
            )
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "BenchmarkConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "schemes": list(self.schemes),
            "ratios": list(self.ratios),
            "m_ratios": list(self.m_ratios),
            "trees": list(self.trees),
            "depths": list(self.depths),
            "repeats": self.repeats,
            "seed": self.seed,
            "n": self.n,
            "box": {"lo": list(self.box.lo), "hi": list(self.box.hi)},
            "grid_G": self.grid_g,
        }


@dataclass
class EvalReport:
    """Per-run metric rows plus per-cell mean/std summaries."""

    runs: list[dict]
    summary: list[dict]
    meta: dict

    def to_json(self, path) -> None:
        doc = {"meta": self.meta, "runs": self.runs, "summary": self.summary}
        _write_atomic(path, json.dumps(doc, indent=1) + "\n")

    def summary_to_csv(self, path) -> None:
        if not self.summary:
            raise ValueError("empty summary")
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=list(self.summary[0].keys()))
        writer.writeheader()
        writer.writerows(self.summary)
        _write_atomic(path, text.getvalue())


def _derived_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


def _metrics(model, data, grid, truth_vals) -> tuple[float, float | None]:
    est = evaluate_batch(model, grid.points)
    mae_val = float(np.mean(np.abs(est - truth_vals)))
    auc_val = None
    if data.labels is not None and 0 < data.labels.sum() < data.n:
        auc_val = auc(-evaluate_batch(model, data.points), data.labels)
    return mae_val, auc_val


def benchmark(config: BenchmarkConfig, threads: int = 1) -> EvalReport:
    """Run the sweep and aggregate mean/std per cell.

    Every repetition of a (scheme, ratio) pair reuses one generated
    dataset across the (m_ratio, trees, depth) grid, so parameter cells
    are directly comparable, and the single-block baseline is fitted once
    per (scheme, ratio, trees, depth, repeat).  ``threads`` pool workers
    run the fits, or the calling thread when ``threads`` is 1; the report
    does not depend on their number.
    """
    grid = make_grid(config.box, config.grid_g)
    truth_vals = np.asarray(true_density(grid.points))

    datasets = {
        (si, ri, rep): generate(
            scheme,
            config.n,
            ratio,
            seed=_derived_seed(config.seed, 101, si, ri, rep),
            box=config.box,
        )
        for (si, scheme), (ri, ratio), rep in itertools.product(
            enumerate(config.schemes), enumerate(config.ratios), range(config.repeats)
        )
    }

    def run(job) -> tuple | dict:
        """One fit: a baseline's metrics when ``mi`` is None, else a sweep row."""
        si, ri, mi, ti, pi, rep = job
        if mi is None:
            m, seed = config.n, _derived_seed(config.seed, 211, si, ri, ti, pi, rep)
        else:
            row = {
                "scheme": config.schemes[si],
                "ratio": config.ratios[ri],
                "m_ratio": config.m_ratios[mi],
                "trees": config.trees[ti],
                "depth": config.depths[pi],
                "repeat": rep,
            }
            m = int(round(config.m_ratios[mi] * config.n))
            if m < 1 or m > config.n:
                row.update(m=m, skipped="infeasible block size", mae=None, auc=None)
                return row
            seed = _derived_seed(config.seed, 307, si, ri, mi, ti, pi, rep)
        data = datasets[(si, ri, rep)]
        try:
            model = fit(data, EstimatorConfig(
                m=m, trees=config.trees[ti], depth=config.depths[pi], seed=seed,
                quadrature=config.quadrature, box=config.box,
            ))
        except ValueError as exc:
            # tiny blocks with deep trees can leave the median at zero
            # everywhere; such cells carry no usable estimate
            if mi is None or "degenerate model" not in str(exc):
                raise
            row.update(m=m, skipped="degenerate model", mae=None, auc=None)
            return row
        mae_val, auc_val = _metrics(model, data, grid, truth_vals)
        if mi is None:
            return mae_val, auc_val
        row.update(m=m, mae=mae_val, auc=auc_val)
        return row

    baseline_jobs, cell_jobs = (list(itertools.product(
        range(len(config.schemes)), range(len(config.ratios)), blocks,
        range(len(config.trees)), range(len(config.depths)), range(config.repeats),
    )) for blocks in ([None], range(len(config.m_ratios))))
    # At one thread the jobs run in the calling thread: a pool worker
    # changes nothing in the report and costs time on a small host.
    pool = nullcontext() if threads == 1 else ThreadPoolExecutor(max_workers=threads)
    with pool:
        results = list((map if threads == 1 else pool.map)(run, baseline_jobs + cell_jobs))
    baselines = dict(zip(baseline_jobs, results))
    rows = results[len(baseline_jobs):]
    for row, (si, ri, _, ti, pi, rep) in zip(rows, cell_jobs):
        row["baseline_mae"], row["baseline_auc"] = baselines[(si, ri, None, ti, pi, rep)]

    summary = _summarize(rows)
    meta = {
        "config": config.to_dict(),
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return EvalReport(runs=rows, summary=summary, meta=meta)


_CELL_KEYS = ("scheme", "ratio", "m_ratio", "trees", "depth")


def _summarize(rows: list[dict]) -> list[dict]:
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("skipped"):
            continue
        cells.setdefault(tuple(row[k] for k in _CELL_KEYS), []).append(row)

    def stats(values: list) -> tuple[float | None, float | None]:
        vals = [v for v in values if v is not None]
        if not vals:
            return None, None
        arr = np.asarray(vals, dtype=float)
        return float(arr.mean()), float(arr.std())

    summary = []
    for key, group in cells.items():
        entry = dict(zip(_CELL_KEYS, key))
        entry["runs"] = len(group)
        for metric in ("mae", "auc", "baseline_mae", "baseline_auc"):
            mean, std = stats([r.get(metric) for r in group])
            entry[f"{metric}_mean"] = mean
            entry[f"{metric}_std"] = std
        summary.append(entry)
    return summary
