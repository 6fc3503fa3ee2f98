"""Axis-aligned boxes, random midpoint-split trees and the leaf kernel.

A tree of depth ``p`` is a complete binary tree stored in level order:
node ``k`` has children ``2k+1`` and ``2k+2``, so the ``2**p - 1``
internal nodes come first and the ``2**p`` leaves after them.  Every
internal node halves its cell at the midpoint of one randomly chosen
coordinate, so each leaf cell has volume ``box.volume / 2**p`` regardless
of which coordinates were split, and a tree is fully described by its
split coordinates.  A forest of ``T`` trees is therefore one ``(T, 2**p -
1)`` label matrix: row ``t`` holds the split coordinate of every internal
node of tree ``t``, in level order.

Boundary convention: the domain box is closed on all faces.  Interior
cells are half-open, ``[lo, mid)`` on the left and ``[mid, hi)`` on the
right, except that a cell touching the upper face of the domain box is
closed there.  Under this rule every point of the box belongs to exactly
one leaf of every tree.

Leaf kernel.  A path splits one axis at most ``p`` times, and the cell
bounds on that axis after ``k`` splits depend only on the axis, never on
the tree: they are the level-``k`` points of one dyadic mesh.  Each axis
therefore has ``2**p + 1`` breakpoints, built from ``lo`` and ``hi`` by
the same float recursion ``0.5 * (lo + hi)`` that a float walker would
evaluate on the way down, so the kernel compares against bit-identical
values.  A coordinate is quantized once per query into a code ``c`` in
``[0, 2**p)`` with ``searchsorted(inner_breakpoints, x, side="right")``:
the number of inner breakpoints at or below ``x``.  A coordinate equal to
a breakpoint counts it and lands in the right-hand cell, which is the
half-open convention; the upper face ``x == hi`` is above every inner
breakpoint and lands in the last cell, which is the closed upper face.
A node that splits an axis for the ``k``-th time on its path (``k`` from
0) compares ``x`` with the breakpoint whose index has bit ``p - 1 - k`` as
its lowest set bit, so going right is exactly bit ``p - 1 - k`` of ``c``.
Every ``Forest`` derives from its labels a per-(tree, node) table of
(axis, bit position), and :func:`leaf_indices` walks all trees at once on
those integer bits, without any float geometry past the quantization.

All types in this module are immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box",
    "Forest",
    "build_forest",
    "leaf_indices",
]

# Points per walk chunk: bounds the kernel's temporaries, whatever the batch.
_WALK_CHUNK = 1 << 12


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangular domain with strictly positive volume."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    # Derived once from ``lo`` and ``hi``; read-only, outside eq and hash.
    lo_array: np.ndarray = field(init=False, repr=False, compare=False)
    hi_array: np.ndarray = field(init=False, repr=False, compare=False)
    volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) == 0 or len(lo) != len(hi):
            raise ValueError("box bounds must be non-empty and of equal length")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("box must have strictly positive extent on every axis")
        lo_array = np.asarray(lo, dtype=float)
        hi_array = np.asarray(hi, dtype=float)
        lo_array.setflags(write=False)
        hi_array.setflags(write=False)
        object.__setattr__(self, "lo_array", lo_array)
        object.__setattr__(self, "hi_array", hi_array)
        object.__setattr__(self, "volume", float(np.prod(hi_array - lo_array)))

    @property
    def d(self) -> int:
        return len(self.lo)

    def contains_batch(self, points) -> np.ndarray:
        """Closed-box membership for an ``(n, d)`` array of points."""
        pts = _as_points(points, self.d)
        return np.all((pts >= self.lo_array) & (pts <= self.hi_array), axis=1)

    @classmethod
    def bounding(cls, points, margin: float = 0.0) -> "Box":
        """Tight bounding box of the points, expanded by a relative margin."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("cannot bound an empty point set")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        ext = hi - lo
        if np.any(ext <= 0) and margin <= 0:
            raise ValueError(
                "degenerate bounding box: a coordinate is constant; "
                "pass an explicit box or a positive margin"
            )
        lo = lo - margin * ext
        hi = hi + margin * ext
        return cls(tuple(lo), tuple(hi))


@dataclass(frozen=True, eq=False)
class Forest:
    """Independent random trees of one depth over a shared box.

    ``labels`` is the read-only ``(T, 2**p - 1)`` int64 label matrix of the
    module docstring, with ``T >= 1`` and every label in ``[0, box.d)``;
    the tree count and the depth come from its shape.  An int64 array is
    kept, not copied, and made read-only; other integer dtypes are copied.
    :func:`build_forest` draws the labels as a pure function of ``(seed,
    depth, n_trees, box.d)``; identical seeds reproduce identical forests.
    """

    box: Box
    labels: np.ndarray
    # Leaf-kernel tables, derived from ``box`` and ``labels``:
    # (d, 2**p - 1) inner breakpoints per axis;
    _inner: np.ndarray = field(init=False, repr=False)
    # (T * (2**p - 1),) ``axis * p + bit`` of every node, tree-major;
    _bit_table: np.ndarray = field(init=False, repr=False)
    # (p, T) table address of each tree's first node on each level.
    _level_base: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or labels.shape[0] < 1:
            raise ValueError(
                f"forest labels must be a (T, 2**p - 1) array with T >= 1, "
                f"got shape {labels.shape}"
            )
        n_trees, nodes = labels.shape
        depth = nodes.bit_length()
        if nodes != 2**depth - 1:
            raise ValueError(f"each tree needs 2**p - 1 split labels, got {nodes}")
        if labels.size and labels.dtype.kind != "i":
            raise ValueError(f"split labels must be signed integers, not {labels.dtype}")
        _check_forest_size(n_trees, depth)
        labels = labels.astype(np.int64, copy=False)
        if labels.size and not 0 <= labels.min() <= labels.max() < self.box.d:
            raise ValueError(f"split labels must lie in [0, {self.box.d})")
        levels = np.arange(depth, dtype=np.int32)[:, None]
        tables = {
            "labels": labels,
            "_inner": _breakpoints(self.box, depth)[:, 1:-1],
            "_bit_table": _bit_table(labels, depth).ravel(),
            "_level_base": np.arange(n_trees, dtype=np.int32) * nodes + (2**levels - 1),
        }
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    @property
    def n_trees(self) -> int:
        return self.labels.shape[0]

    @property
    def depth(self) -> int:
        return self.labels.shape[1].bit_length()


def build_forest(box: Box, p: int, n_trees: int, seed) -> Forest:
    """Draw ``n_trees`` random depth-``p`` trees from per-tree substreams.

    Every node of a tree splits a uniform coordinate: one row of ``2**p -
    1`` labels in ``[0, box.d)``.  ``seed`` may be an integer or a
    ``numpy.random.SeedSequence``.  Each tree gets its own spawned stream,
    so construction may run in parallel without changing the result.
    """
    if n_trees < 1:
        raise ValueError("tree count must be at least 1")
    if p < 0:
        raise ValueError("depth must be non-negative")
    # Checked before any tree is drawn: each tree allocates 2**p - 1 labels.
    _check_forest_size(n_trees, p)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    labels = np.stack([
        np.random.default_rng(s).integers(0, box.d, size=2**p - 1, dtype=np.int64)
        for s in seed.spawn(n_trees)
    ])
    return Forest(box=box, labels=labels)


def _check_forest_size(n_trees: int, depth: int) -> None:
    """The kernel addresses nodes with int32, so T * 2**p stays below 2**31."""
    if n_trees * 2**depth >= 2**31:
        raise ValueError("forest too large: n_trees * 2**depth must stay below 2**31")


def _breakpoints(box: Box, p: int) -> np.ndarray:
    """The ``2**p + 1`` mesh points of every axis, shape ``(d, 2**p + 1)``.

    Level by level, each new point is ``0.5 * (left + right)`` of its two
    neighbours on the coarser level: the float expression of a midpoint
    split of the cell between them.
    """
    n = 2**p
    mesh = np.empty((box.d, n + 1))
    mesh[:, 0] = box.lo
    mesh[:, n] = box.hi
    step = n
    while step > 1:
        half = step // 2
        mesh[:, half::step] = 0.5 * (mesh[:, 0:n:step] + mesh[:, step::step])
        step = half
    return mesh


def _bit_table(labels: np.ndarray, p: int) -> np.ndarray:
    """``axis * p + bit`` of every node of a ``(T, 2**p - 1)`` label matrix.

    A node that splits its axis for the ``k``-th time on its root path
    (``k`` counted from 0) reads bit ``p - 1 - k`` of that axis's code.
    Built level by level, for all trees at once.
    """
    table = np.empty(labels.shape, dtype=np.int32)
    for level in range(p):
        nodes = np.arange(2**level - 1, 2 ** (level + 1) - 1)
        axis = labels[:, nodes]
        splits_above = np.zeros_like(axis)
        ancestor = nodes
        for _ in range(level):
            ancestor = (ancestor - 1) // 2
            splits_above += labels[:, ancestor] == axis
        table[:, nodes] = axis * p + (p - 1 - splits_above)
    return table


def leaf_indices(forest: Forest, points) -> np.ndarray:
    """Leaf id of each point in each tree, an ``(n, T)`` int32 array.

    The id is the root-to-leaf path read as a bit string, left=0 and
    right=1, with the root bit most significant.  Points must lie in the
    closed box; any other point, NaN included, raises ``ValueError``.
    Quantizes each coordinate once, then walks every tree on integer bits
    (see the module docstring), in fixed-size chunks of points.
    """
    box = forest.box
    pts = _as_points(points, box.d)
    if not np.all(box.contains_batch(pts)):
        raise ValueError("point outside domain")
    d, p = box.d, forest.depth
    out = np.zeros((pts.shape[0], forest.n_trees), dtype=np.int32)
    bits = np.arange(p, dtype=np.int32)
    for start in range(0, pts.shape[0], _WALK_CHUNK):
        chunk = pts[start : start + _WALK_CHUNK]
        size = chunk.shape[0]
        codes = np.empty((size, d), dtype=np.int32)
        for j in range(d):
            codes[:, j] = np.searchsorted(forest._inner[j], chunk[:, j], side="right")
        # planes[i * d * p + axis * p + bit] = (codes[i, axis] >> bit) & 1
        planes = ((codes[:, :, None] >> bits) & 1).ravel()
        row = (np.arange(size, dtype=np.int32) * (d * p))[:, None]
        leaf = out[start : start + size]
        at = np.empty_like(leaf)
        # Every address is in range by construction; "wrap" skips the
        # bounds check and the output buffer of the default mode.
        for base in forest._level_base:
            np.add(leaf, base, out=at)
            forest._bit_table.take(at, out=at, mode="wrap")
            at += row
            planes.take(at, out=at, mode="wrap")
            leaf <<= 1
            leaf |= at
    return out


def _as_points(points, d: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {pts.shape}")
    return pts
