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
``mfrde.geometry``.  ``slice_write_leaf_table`` fills a forest's id table
one slice write per leaf, the reference for the grouped fill of
``mfrde.geometry._leaf_table``.

The naive oracle (``naive_sfde_at``, ``naive_median_at``) answers each
query by walking every row of the forest's labels and scanning raw block
points against the query's reconstructed leaf cell, with no precomputed
counts, using the same float expressions as the estimator (exact integer
count summed over trees, one division by m times the leaf volume, one by
the tree count).  ``block_densities`` gives every block's forest density
at a point from a fitted model's counts, summed in int64.  The point path
is the oracle of every model's lookups: ``walked_medians`` walks each
point's leaves (``mfrde.geometry.leaf_indices``) and takes the naive
per-block median of its int64 tree sums, and ``walked_densities`` is
``evaluate_batch`` by that walk.  ``dyadic_corners`` counts the cells
whose medians the cell table must take, by comparing each cell's walked
leaf ids with its lower neighbours'.  ``table_cells`` reads the cells
back out of a model's bordered table, and ``mask_path_cells`` is the
oracle of its index: the box test, then every coordinate's code counted
against the whole mesh, packed.

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
the suite draws the same examples.  The profile leaves out the explain
phase: on a failing property that fits a model per example, its traced
replays grew pytest by about 4 MB/s, to 358 MB over 66 s on a 2-core x86
host, before the report, where the same property shrank to its minimal
example in 2 s at 81 MB without it.  A property passes or fails alike
either way.
"""

import csv
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import Phase, settings

from mfrde import geometry
from mfrde.estimator import FittedMFRDE, _density_denom
from mfrde.geometry import Box, Forest, leaf_indices

settings.register_profile("mfrde", derandomize=True,
                          phases=[phase for phase in Phase if phase is not Phase.explain])
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


def slice_write_leaf_table(labels: np.ndarray, k: int, d: int) -> np.ndarray:
    """``(T, 2**(k*d))`` depth-``k`` node ids by packed codes, one slice write per node.

    Each node's code-space rectangle is built level by level over the
    first ``k`` levels of ``labels``: the children halve the parent's
    width on the split axis, and the right child starts at the half.
    """
    n_trees = labels.shape[0]
    low = np.zeros((n_trees, 1, d), dtype=np.int64)
    width = np.full((n_trees, 1, d), 2**k, dtype=np.int64)
    for level in range(k):
        split = labels[:, 2**level - 1 : 2 ** (level + 1) - 1, None] == np.arange(d)
        half = np.where(split, width // 2, width)
        low = np.stack([low, low + width - half], axis=2).reshape(n_trees, -1, d)
        width = np.repeat(half, 2, axis=1)
    table = np.empty((n_trees,) + (2**k,) * d, dtype=np.uint8 if k <= 8 else np.uint16)
    for tree, lows, highs in zip(table, low.tolist(), (low + width).tolist()):
        for leaf, (a, b) in enumerate(zip(lows, highs)):
            tree[tuple(map(slice, a, b))] = leaf
    return table.reshape(n_trees, -1)


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
    sums = model.leaf_counts.astype(np.int64)[np.arange(model.n_trees), ids[0]].sum(axis=0)
    return sums / _density_denom(model.forest, model.m) / model.n_trees


def walked_medians(forest: Forest, leaf_counts: np.ndarray, m: int, points) -> np.ndarray:
    """The lower median of the block densities at in-box points, each by its own walk.

    ``leaf_counts`` is ``(T, 2**p, S)``.  Each point's ``S`` block sums
    over its ``leaf_indices`` leaves are added in int64 and sorted; the
    ``ceil(S / 2)``-th is divided once by ``m`` times the leaf volume and
    once by ``T``.  A few thousand points at a time.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, forest.box.d)
    counts = np.asarray(leaf_counts).astype(np.int64)
    k = (counts.shape[2] + 1) // 2 - 1
    out = np.empty(len(pts))
    for start in range(0, len(pts), 4096):
        ids = leaf_indices(forest, pts[start : start + 4096])
        sums = counts[np.arange(forest.n_trees), ids].sum(axis=1)
        kth = np.sort(sums, axis=1)[:, k]
        out[start : start + len(ids)] = kth / _density_denom(forest, m) / forest.n_trees
    return out


def walked_densities(model: FittedMFRDE, points) -> np.ndarray:
    """``evaluate_batch``'s oracle: 0 outside the closed box, else the walked
    median over the normalizer."""
    pts = np.asarray(points, dtype=float).reshape(-1, model.box.d)
    inside = model.box.contains_batch(pts)
    out = np.zeros(len(pts))
    out[inside] = walked_medians(model.forest, model.leaf_counts, model.m,
                                 pts[inside]) / model.normalizer
    return out


def mask_path_cells(forest: Forest, points) -> np.ndarray:
    """The cell a query read before the bordered table: ``-1`` outside the
    closed box (``Box.contains_rows``; NaN is outside), else its codes, each
    the count of inner breakpoints at or below the coordinate, packed in C
    order.  Every breakpoint is compared with every point."""
    box, p = forest.box, forest.depth
    pts = np.asarray(points, dtype=float).reshape(-1, box.d)
    inner = geometry._breakpoints(box, p)[:, 1:-1]
    codes = (inner[None, :, :] <= pts[:, :, None]).sum(axis=2)
    cells = np.ravel_multi_index(codes.T, (2**p,) * box.d)
    return np.where(box.contains_rows(pts), cells, -1)


def table_cells(model: FittedMFRDE) -> np.ndarray:
    """The ``2**(p*d)`` cell values of a model's bordered table, in packed C
    order; its border must hold only ``0.0``."""
    p, d = model.depth, model.box.d
    table = model._cells.reshape((2**p + 2,) * d)
    inside = (slice(1, -1),) * d
    border = np.ones(table.shape, dtype=bool)
    border[inside] = False
    assert not table[border].any()
    return table[inside].reshape(-1)


def dyadic_corners(forest: Forest, chunk: int) -> int:
    """How many depth-``p`` dyadic cells are corners, the cells cut into C-order chunks.

    A corner's leaf ids, walked from its centre, differ from those of its
    lower neighbour on every axis where that neighbour exists and lies in
    the same chunk of ``chunk`` cells.  One cell and one axis at a time.
    """
    box, p, d = forest.box, forest.depth, forest.box.d
    axes = [lo + (hi - lo) * (np.arange(2**p) + 0.5) / 2**p for lo, hi in zip(box.lo, box.hi)]
    centres = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    ids = [tuple(row) for row in leaf_indices(forest, centres).tolist()]
    corners = 0
    for cell, code in enumerate(itertools.product(range(2**p), repeat=d)):
        first = cell - cell % chunk
        lower = [cell - 2 ** (p * (d - 1 - j)) for j in range(d) if code[j] > 0]
        corners += all(n < first or ids[n] != ids[cell] for n in lower)
    return corners


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
            if not row:  # a blank line, which read_dataset skips too
                continue
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
