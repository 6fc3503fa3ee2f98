"""Shared fixtures and the from-scratch oracles used against the package.

A tree is one row of a forest's label matrix: the ``2**p - 1`` split
coordinates of its internal nodes in level order (``Forest.labels[t]``);
its depth is ``len(row).bit_length()``.  ``draw_labels`` draws such a row
with the same ``rng.integers`` call as ``mfrde.geometry.build_forest``, so
a seeded test sees the trees it always saw.  The float walker
(``leaf_index``, ``path_split_counts``, ``count_leaves``) takes one row and
descends it by recomputing each midpoint ``0.5 * (lo + hi)`` from the
current cell, one point and one tree at a time.  It is the reference for
the package's integer leaf kernel, ``mfrde.geometry.leaf_indices``.
``leaf_cell`` rebuilds a leaf's cell from a row by the same splits, and
``cell_contains`` tests membership under the boundary convention of
``mfrde.geometry``.

The naive oracle (``naive_sfde_at``, ``naive_median_at``) answers each
query by walking every row of the forest's labels and scanning raw block
points against the query's reconstructed leaf cell, with no precomputed
counts, using the same float expressions as the estimator (exact integer
count summed over trees, one division by m times the leaf volume, one by
the tree count).  ``block_densities`` gives every block's forest density
at a point from a fitted model's counts, through the package's own tree
sums.

The paper's notion of a local outlier: an outlier matters for a query
``x`` only if it shares a leaf with ``x`` in some tree
(``local_outliers``); a block is clean when its row of the block index
matrix holds no outlier at all (``clean_block_fraction``).

``json_load_counts`` decodes a model file's counts the way ``load_model``
did before it cut them out of the text: ``json.load`` of the whole file and
a nested-list ``np.asarray``.

The CSV oracles are the row-at-a-time ``csv`` loops the package's
array-at-a-time file I/O replaced: ``csv_writer_table`` formats every cell
with ``%.17g`` (labels with ``str(int(...))``) and writes rows through
``csv.writer``; ``csv_float_read`` parses every cell with ``float``.
``full_disk_open`` stands in for ``open`` in a failing-write test: reads
work, and a write lands a prefix of the text, then raises ``OSError``.

Hypothesis runs derandomized under the ``mfrde`` profile, so every run of
the suite draws the same examples.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import settings

from mfrde.estimator import FittedMFRDE, _density_denom, _tree_sums
from mfrde.geometry import Box, Forest, leaf_indices

settings.register_profile("mfrde", derandomize=True)
settings.load_profile("mfrde")


def draw_labels(d: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """One random depth-``p`` tree: each node splits a uniform coordinate."""
    return rng.integers(0, d, size=2**p - 1, dtype=np.int64)


def _walk(row: np.ndarray, box: Box, x):
    """Yield ``(split axis, went right)`` down the path of ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (box.d,):
        raise ValueError(f"expected a point of dimension {box.d}, got shape {x.shape}")
    if not box.contains_batch(x)[0]:
        raise ValueError("point outside domain")
    lo = box.lo_array.copy()
    hi = box.hi_array.copy()
    node = 0
    for _ in range(len(row).bit_length()):
        dim = int(row[node])
        mid = 0.5 * (lo[dim] + hi[dim])
        right = bool(x[dim] >= mid)
        if right:
            lo[dim] = mid
        else:
            hi[dim] = mid
        yield dim, right
        node = 2 * node + 1 + int(right)


def leaf_index(row: np.ndarray, box: Box, x) -> int:
    """Leaf id of the cell containing ``x``: the path bits, root first.

    A coordinate equal to the current midpoint goes right, which makes
    cells half-open and keeps the upper face of the box inside the last
    cell.
    """
    leaf = 0
    for _, right in _walk(row, box, x):
        leaf = (leaf << 1) | int(right)
    return leaf


def path_split_counts(row: np.ndarray, box: Box, x) -> np.ndarray:
    """How many times the root-to-leaf path of ``x`` splits each coordinate."""
    counts = np.zeros(box.d, dtype=np.int64)
    for dim, _ in _walk(row, box, x):
        counts[dim] += 1
    return counts


def count_leaves(row: np.ndarray, box: Box, points) -> tuple[np.ndarray, int]:
    """Per-leaf point counts plus the number of points outside the box.

    Points outside the box are dropped: they carry no leaf.
    ``counts.sum() + dropped == len(points)``.
    """
    pts = np.asarray(points, dtype=float)
    counts = np.zeros(len(row) + 1, dtype=np.int64)
    if pts.size == 0:
        return counts, 0
    pts = np.atleast_2d(pts)
    inside = pts[box.contains_batch(pts)]
    for x in inside:
        counts[leaf_index(row, box, x)] += 1
    return counts, int(pts.shape[0] - inside.shape[0])


def leaf_cell(row: np.ndarray, box: Box, leaf: int) -> Box:
    """Reconstruct the cell of a leaf by replaying its midpoint splits."""
    if not 0 <= leaf <= len(row):
        raise ValueError("leaf id out of range")
    lo = box.lo_array.copy()
    hi = box.hi_array.copy()
    node = 0
    for level in range(len(row).bit_length() - 1, -1, -1):
        bit = (leaf >> level) & 1
        dim = int(row[node])
        mid = 0.5 * (lo[dim] + hi[dim])
        if bit:
            lo[dim] = mid
        else:
            hi[dim] = mid
        node = 2 * node + 1 + bit
    return Box(tuple(lo), tuple(hi))


def cell_contains(cell: Box, domain: Box, points) -> np.ndarray:
    """Half-open cell membership relative to the closed domain box.

    A cell face coinciding with the domain's upper face is closed there;
    every other upper face is open.  Accepts a single point or an
    ``(n, d)`` array and returns a boolean scalar or array.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != cell.d:
        raise ValueError(f"expected points of dimension {cell.d}, got shape {pts.shape}")
    lo = cell.lo_array
    hi = cell.hi_array
    closed_hi = hi == domain.hi_array
    ok = (pts >= lo) & ((pts < hi) | (closed_hi & (pts == hi)))
    out = np.all(ok, axis=1)
    return bool(out[0]) if single else out


def naive_sfde_at(block_points: np.ndarray, forest: Forest, m: int, x) -> float:
    box = forest.box
    denom = m * (box.volume * 2.0**-forest.depth)
    total = 0
    for row in forest.labels:
        cell = leaf_cell(row, box, leaf_index(row, box, x))
        if len(block_points):
            total += int(np.sum(cell_contains(cell, box, block_points)))
    return total / denom / forest.n_trees


def naive_median_at(blocks_points: list, forest: Forest, m: int, x) -> float:
    values = sorted(naive_sfde_at(bp, forest, m, x) for bp in blocks_points)
    return values[(len(values) + 1) // 2 - 1]


def block_densities(model: FittedMFRDE, x) -> np.ndarray:
    """The ``S`` block forest densities of the model at one in-box point."""
    ids = leaf_indices(model.forest, points=np.atleast_2d(np.asarray(x, dtype=float)))
    sums = _tree_sums(model.leaf_counts, ids, np.empty((1, model.n_blocks), dtype=np.int32))
    return sums[0] / _density_denom(model.forest, model.m) / model.n_trees


def local_outliers(forest: Forest, x, outlier_points) -> np.ndarray:
    """Indices of the outlier points that share a leaf with ``x`` in any tree.

    Outlier points outside the box have no leaf and are never local.
    """
    pts = np.asarray(outlier_points, dtype=float).reshape(-1, forest.box.d)
    x_ids = leaf_indices(forest, points=np.atleast_2d(np.asarray(x, dtype=float)))
    inside = np.flatnonzero(forest.box.contains_batch(pts))
    return inside[(leaf_indices(forest, points=pts[inside]) == x_ids).any(axis=1)]


def clean_block_fraction(blocks: np.ndarray, outlier_indices) -> float:
    """Fraction of rows of the block index matrix that avoid every outlier index."""
    contaminated = np.isin(blocks, np.asarray(outlier_indices, dtype=np.int64))
    return float(1.0 - contaminated.any(axis=1).mean())


def json_load_counts(path) -> np.ndarray:
    """A model file's counts as ``(T, 2**p, S)`` int32, through ``json.load``."""
    with open(path) as fh:
        counts = np.asarray(json.load(fh)["counts"])
    assert counts.dtype == np.int64
    return np.ascontiguousarray(counts.transpose(1, 2, 0), dtype=np.int32)


def csv_writer_table(path, header, values, labels=None) -> None:
    """Float rows as ``%.17g`` plus an optional integer column, via csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, point in enumerate(values):
            row = ["%.17g" % v for v in point]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def full_disk_open(file, mode="r", **kwargs):
    """``open`` on a full disk: reads work, a write lands a prefix and raises."""
    if not set(mode) & set("wxa"):
        return open(file, mode, **kwargs)

    class FullDisk(io.TextIOWrapper):
        def write(self, text):
            super().write(text[:18])
            raise OSError("disk full")

    return FullDisk(io.FileIO(file, mode), **kwargs)


def csv_float_read(path):
    """``(points, labels or None)`` of a dataset CSV, one ``float`` per cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        has_label = header[-1].lower() == "label"
        d = len(header) - (1 if has_label else 0)
        points, labels = [], []
        for row in reader:
            points.append([float(c) for c in row[:d]])
            if has_label:
                labels.append(int(row[d].strip()))
    pts = np.asarray(points, dtype=float).reshape(len(points), d)
    return pts, (np.asarray(labels, dtype=np.int64) if has_label else None)


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
