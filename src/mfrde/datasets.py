"""Synthetic inlier/outlier generators, contamination mixing and CSV I/O.

The two-dimensional synthetic family: the first coordinate of an inlier
is exponential with mean 2 (untruncated, so a small fraction of samples
falls outside the default estimation domain), the second is uniform on
[0, 5].  Three contamination schemes with decreasing spread are provided:
uniform over the domain, a per-axis scaled beta law with an inverse
square-root peak at the upper edge, and a finite-state Markov chain whose
states are drawn once from the upper half of the domain.

Generators are deterministic given their random stream.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .geometry import Box

__all__ = [
    "DOMAIN",
    "Dataset",
    "generate",
    "true_density",
    "read_dataset",
    "write_dataset",
    "write_provenance",
]

DOMAIN = Box((0.0, 0.0), (5.0, 5.0))

INLIER, OUTLIER = 0, 1


@dataclass
class Dataset:
    """Points with optional inlier/outlier labels (1 marks an outlier)."""

    points: np.ndarray
    labels: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.points.shape[0],):
                raise ValueError("label array length must match the point count")
            if not np.isin(self.labels, (INLIER, OUTLIER)).all():
                raise ValueError("labels must be 0 (inlier) or 1 (outlier)")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class UniformScheme:
    """Outliers i.i.d. uniform over the box, one draw per axis."""

    box: Box = DOMAIN


@dataclass(frozen=True)
class BetaScheme:
    """Per-axis i.i.d. draws with density (1/10) (1 - x/5)^(-1/2) on [0, 5).

    Sampling uses the exact inverse CDF ``x = 5 (1 - (1 - u)^2)``; the CDF
    is ``F(x) = 1 - sqrt(1 - x/5)``.
    """

    d: int = 2
    scale: float = 5.0

    def inverse_cdf(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.scale * (1.0 - (1.0 - u) ** 2)


@dataclass(frozen=True)
class DiscreteScheme:
    """Markov chain over a fixed finite state set with uniform transitions.

    States are drawn once, uniformly over ``state_box``.  The chain starts
    in a uniformly random state and each emitted point is one chain state,
    so at most ``n_states`` distinct values ever appear.
    """

    n_states: int = 30
    state_box: Box = Box((0.0, 2.5), (5.0, 5.0))

    def __post_init__(self) -> None:
        if self.n_states < 1:
            raise ValueError("need at least one state")


OutlierScheme = Union[UniformScheme, BetaScheme, DiscreteScheme]

_SCHEME_NAMES = ("uniform", "beta", "discrete")


def make_scheme(name: str, box: Box = DOMAIN) -> OutlierScheme:
    """Build one of the named contamination schemes over the given box."""
    if name == "uniform":
        return UniformScheme(box=box)
    if name == "beta":
        return BetaScheme(d=box.d)
    if name == "discrete":
        return DiscreteScheme()
    raise ValueError(f"unknown outlier scheme {name!r}; choose from {_SCHEME_NAMES}")


def gen_inliers(n: int, rng: np.random.Generator) -> np.ndarray:
    """Two-dimensional inliers: Exp(mean 2) on axis 0, U[0, 5] on axis 1."""
    if n < 0:
        raise ValueError("sample count must be non-negative")
    x1 = rng.exponential(scale=2.0, size=n)
    x2 = rng.uniform(0.0, 5.0, size=n)
    return np.column_stack([x1, x2])


def gen_outliers(scheme: OutlierScheme, k_out: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``k_out`` outliers under the given scheme."""
    if k_out < 0:
        raise ValueError("outlier count must be non-negative")
    if isinstance(scheme, UniformScheme):
        box = scheme.box
        u = rng.random((k_out, box.d))
        return box.lo_array + u * (box.hi_array - box.lo_array)
    if isinstance(scheme, BetaScheme):
        u = rng.random((k_out, scheme.d))
        return scheme.inverse_cdf(u)
    if isinstance(scheme, DiscreteScheme):
        sb = scheme.state_box
        states = sb.lo_array + rng.random((scheme.n_states, sb.d)) * (
            sb.hi_array - sb.lo_array
        )
        transition = np.full((scheme.n_states, scheme.n_states), 1.0 / scheme.n_states)
        out = np.empty((k_out, sb.d))
        state = int(rng.integers(scheme.n_states))
        for i in range(k_out):
            out[i] = states[state]
            state = int(rng.choice(scheme.n_states, p=transition[state]))
        return out
    raise TypeError(f"unsupported scheme type {type(scheme).__name__}")


def mix(
    inliers: np.ndarray,
    outliers: np.ndarray,
    rng: np.random.Generator,
    provenance: dict | None = None,
) -> Dataset:
    """Concatenate, label and uniformly shuffle inliers and outliers."""
    inl = np.atleast_2d(np.asarray(inliers, dtype=float))
    out = np.atleast_2d(np.asarray(outliers, dtype=float))
    if out.shape[0] == 0:
        out = out.reshape(0, inl.shape[1])
    if inl.shape[0] == 0:
        inl = inl.reshape(0, out.shape[1])
    if inl.shape[1] != out.shape[1]:
        raise ValueError("inliers and outliers must share one dimension")
    points = np.concatenate([inl, out], axis=0)
    labels = np.concatenate(
        [np.full(inl.shape[0], INLIER), np.full(out.shape[0], OUTLIER)]
    )
    perm = rng.permutation(points.shape[0])
    prov = dict(provenance or {})
    prov.setdefault("n_inliers", int(inl.shape[0]))
    prov.setdefault("n_outliers", int(out.shape[0]))
    return Dataset(points=points[perm], labels=labels[perm], provenance=prov)


def generate(
    scheme_name: str,
    n: int,
    outlier_ratio: float,
    seed: int,
    box: Box = DOMAIN,
) -> Dataset:
    """Contaminated sample of total size ``n`` with the given outlier share."""
    if not 0.0 <= outlier_ratio < 1.0:
        raise ValueError("outlier ratio must lie in [0, 1)")
    k_out = int(round(n * outlier_ratio))
    scheme = make_scheme(scheme_name, box=box)
    ss = np.random.SeedSequence(seed)
    rng_in, rng_out, rng_mix = (np.random.default_rng(s) for s in ss.spawn(3))
    inliers = gen_inliers(n - k_out, rng_in)
    outliers = gen_outliers(scheme, k_out, rng_out)
    return mix(
        inliers,
        outliers,
        rng_mix,
        provenance={"scheme": scheme_name, "seed": int(seed), "n": int(n),
                    "outlier_ratio": float(outlier_ratio)},
    )


def true_density(x) -> np.ndarray | float:
    """Inlier density: (1/2) exp(-x1/2) on x1 > 0 times 1/5 on x2 in [0, 5]."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != 2:
        raise ValueError("the synthetic ground truth is two-dimensional")
    x1, x2 = pts[:, 0], pts[:, 1]
    support = (x1 > 0) & (x2 >= 0) & (x2 <= 5)
    dens = np.where(support, 0.5 * np.exp(-0.5 * x1) * 0.2, 0.0)
    return float(dens[0]) if single else dens


def _write_table(path, header: list[str], values, labels=None) -> None:
    """CSV of float columns as ``%.17g`` plus an optional ``%d`` column.

    Writes the same bytes as ``csv.writer`` (CRLF line ends) for headers
    that need no quoting, formatting whole rows at once.
    """
    values = np.asarray(values, dtype=float)
    columns = [values[:, j].tolist() for j in range(values.shape[1])]
    fmt = ",".join(["%.17g"] * values.shape[1])
    if labels is not None:
        columns.append(np.asarray(labels).tolist())
        fmt += ",%d"
    fmt += "\r\n"
    text = ",".join(header) + "\r\n" + "".join([fmt % row for row in zip(*columns)])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_dataset(dataset: Dataset, path) -> None:
    """CSV with header ``x1,...,xd`` plus an optional ``label`` column."""
    header = [f"x{j + 1}" for j in range(dataset.d)]
    if dataset.labels is not None:
        header.append("label")
    _write_table(path, header, dataset.points, dataset.labels)


def write_provenance(dataset: Dataset, path) -> None:
    """Sidecar JSON recording how a dataset was generated."""
    with open(path, "w") as fh:
        json.dump(dataset.provenance, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_dataset(path) -> Dataset:
    """Parse a CSV written by :func:`write_dataset` or shaped like it.

    The body is parsed in one ``np.loadtxt`` call: a float per coordinate,
    an integer ``label``.  Blank lines are skipped and ``#`` marks no
    comment.  A malformed body raises ``ValueError`` naming its first bad
    row, counted from 1 after the header.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError("empty dataset file")
        header = [h.strip() for h in header]
        has_label = bool(header) and header[-1].lower() == "label"
        d = len(header) - (1 if has_label else 0)
        if d < 1:
            raise ValueError("dataset header declares no coordinate columns")
        fields = [("x", "f8", (d,))] + ([("label", "i8")] if has_label else [])
        # np.loadtxt warns on a body without data, so find its first row.
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            table = np.empty(0, dtype=fields)
        else:
            try:
                table = np.loadtxt(
                    itertools.chain([first], fh), dtype=fields, delimiter=",",
                    quotechar='"', comments=None, ndmin=1,
                )
            except ValueError as exc:
                raise ValueError(
                    _bad_row(path, d, has_label) or f"malformed dataset file: {exc}"
                ) from None
    labels = np.ascontiguousarray(table["label"]) if has_label else None
    if has_label and not np.isin(labels, (INLIER, OUTLIER)).all():
        raise ValueError(_bad_row(path, d, has_label) or "unknown label value")
    return Dataset(
        points=np.ascontiguousarray(table["x"]),
        labels=labels,
        provenance={"source": str(path)},
    )


def _number(cell: str, kind: type):
    """``kind(cell)`` under ``np.loadtxt``'s rules: ASCII, no ``_`` separators."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(cell)
    return kind(text)


def _bad_row(path, d: int, has_label: bool) -> str | None:
    """Name the first row :func:`read_dataset` rejects; the error path only.

    Re-reads the file with ``csv`` and checks each row as ``np.loadtxt``
    parses it.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        for rownum, row in enumerate(reader, start=1):
            if not row:  # a blank line
                continue
            if len(row) != width:
                return f"row {rownum}: expected {width} fields, got {len(row)}"
            try:
                for cell in row[:d]:
                    _number(cell, float)
            except ValueError:
                return f"row {rownum}: could not parse coordinates {row[:d]!r}"
            if has_label:
                try:
                    ok = _number(row[d], int) in (INLIER, OUTLIER)
                except ValueError:
                    ok = False
                if not ok:
                    return f"row {rownum}: unknown label value {row[d].strip()!r}"
    return None
