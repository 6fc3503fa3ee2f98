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
bounds on that axis after ``s`` splits depend only on the axis, never on
the tree: they are the level-``s`` points of one dyadic mesh.  Each axis
therefore has ``2**p + 1`` breakpoints, built from ``lo`` and ``hi`` by
the same float recursion ``0.5 * (lo + hi)`` that a float walker would
evaluate on the way down, so the kernel compares against bit-identical
values; only where that sum overflows is the midpoint ``0.5 * lo + 0.5 *
hi``, the same rounding of the same real number.  Each axis keeps one
sorted edge array, ``[lo, inner breakpoints..., nextafter(hi, +inf)]``,
and a coordinate is quantized once per query with ``searchsorted(edges,
x, side="right")``: the number of edges at or below ``x``.  That is 0
below the box, ``2**p + 1`` above it (``+inf`` included, even when ``hi``
is the float maximum and the last edge is ``+inf``), and inside the box
``1 + c``, where the code ``c`` in ``[0, 2**p)`` counts the inner
breakpoints at or below ``x``, tied breakpoints included.  NaN is placed
above every edge.  The leaf walk and the cell table share that one
search: :func:`leaf_indices` takes the search less one as the code, and a
point lies in the closed box exactly when every one of its codes is in
``[0, 2**p)``, so no float box test is made.  A coordinate equal to a
breakpoint counts it and lands in the right-hand cell, which is the
half-open convention; the upper face ``x == hi`` is above every inner
breakpoint and below the last edge, and lands in the last cell, which is
the closed upper face.  A node that splits an axis for the ``s``-th time
on its path (``s`` from 0) compares ``x`` with the breakpoint whose index
has bit ``p - 1 - s`` as its lowest set bit, so going right is exactly
bit ``p - 1 - s`` of ``c``.

So the node a point reaches on level ``k`` depends only on the top ``k``
bits of its ``d`` codes, and every such node is a rectangle of them: on
each axis, the codes that share the leading bits its path fixed.  A
``Forest`` keeps a read-only ``(T, 2**(k*d))`` table of depth-``k`` node
ids (uint8 while ``k <= 8``, else uint16), indexed by the top ``k`` bits
of every code packed in C order (axis 0 most significant).  A depth-``k``
node's shape, its tuple of log2 widths in code space, fixes how it tiles
the table, so the table is filled with one indexed write per shape, for
every node of that shape in every tree at once.  ``k`` is the largest
depth up to ``min(p, 16)`` within both budgets, ``_TABLE_BYTES`` bytes
and ``_TABLE_LEAVES`` depth-``k`` nodes over all trees, checked before
anything is allocated; ``k = 0`` is a ``(T, 1)`` table of zeros.
:func:`leaf_indices` gathers each point's ``T`` depth-``k`` ids, then
walks all trees at once through the other ``p - k`` levels on the codes'
integer bits, by a per-(tree, node) table of (axis, bit) for those
levels only; at ``k = p`` nothing is left to walk.  Neither step uses
float geometry past the quantization.  Both steps run in
:func:`_ids_of_codes`, the one function that takes codes to leaf ids.

Common refinement.  A depth-``p`` dyadic cell is one tuple of codes, and
all its points share its ``T`` leaf ids.  Cells are numbered by their
codes packed in C order (:func:`_pack`), the order :func:`_lattice` yields
them in; a point's cell is its codes, packed.  The cells with one
tuple of ids form a rectangle, a cell of the forest's common refinement,
and which cells share ids is decided here alone:
:func:`_refinement` hands out, per C-order chunk of cells, the ids of the
chunk's corners and each cell's corner.  At ``k = p`` the id table's
columns are already every cell's ids, in C order; below that the ids come
from the cells' codes, with no quantization at all.

Bordered cell table.  A value per dyadic cell is looked up in a
``(2**p + 2)**d`` array, C order over ``d`` axes of ``2**p + 2``
entries: :func:`_bordered` writes the ``2**(p*d)`` cells' values, in
their packed order, into its interior, ``1 + c`` on every axis, and
leaves ``0.0`` on the border around it.  A point's entry is its edge
searches packed in base ``2**p + 2`` (:func:`_bordered_index`), so a
point outside the closed box, an infinite coordinate included, reads the
border's ``0.0`` with no box test.  NaN, above every edge, would read the
border too, so :func:`_lookup`'s callers test for it first.

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
# A forest's table of depth-k node ids is as deep as both budgets allow:
# the table's bytes, and its depth-k nodes over all trees, whose
# rectangles the fill builds.  On a 2-core x86 host the fill took 15-19 ms
# at the byte limit for d = 2 (p = 10, T = 8), 25-28 ms there for d = 4
# (p = 5, T = 16), and 7-10 ms at the node limit (d = 2, p = 8, T = 64);
# lookups in a 16 MiB table still beat the walk (d = 2, p = 10, T = 8: 25
# against 48 ms per 100k points).
_TABLE_BYTES = 1 << 24
_TABLE_LEAVES = 1 << 14


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangular domain with finite, strictly positive volume.

    Every bound, every extent ``hi - lo`` and the volume must be finite,
    and each extent and the volume strictly positive, or ``ValueError``
    is raised: densities divide by the volume.
    """

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
        with np.errstate(over="ignore"):  # checked just below
            extent = hi_array - lo_array
            volume = float(np.prod(extent))
        # A finite extent has finite bounds on both sides.
        if not (np.isfinite(extent).all() and 0 < volume < np.inf):
            raise ValueError(
                f"box bounds, extents and volume must be finite and positive: "
                f"lo={lo}, hi={hi}, hi - lo={tuple(extent.tolist())}, volume={volume}"
            )
        lo_array.setflags(write=False)
        hi_array.setflags(write=False)
        object.__setattr__(self, "lo_array", lo_array)
        object.__setattr__(self, "hi_array", hi_array)
        object.__setattr__(self, "volume", volume)

    @property
    def d(self) -> int:
        return len(self.lo)

    def contains_batch(self, points) -> np.ndarray:
        """Closed-box membership for an ``(n, d)`` array of points."""
        return self.contains_rows(_as_points(points, self.d))

    def contains_rows(self, pts: np.ndarray) -> np.ndarray:
        """:meth:`contains_batch` on an ``(n, d)`` float array, taken as given.

        A row holding NaN fails every comparison, so it is outside.
        """
        return ((pts >= self.lo_array) & (pts <= self.hi_array)).all(axis=1)

    @classmethod
    def bounding(cls, points, margin: float = 0.0) -> "Box":
        """Tight bounding box of the points, expanded by a relative margin."""
        pts = np.atleast_2d(_as_real(points))
        if pts.size == 0:
            raise ValueError("cannot bound an empty point set")
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        # An extent past the float range is Box's to name; 0 * inf would
        # be NaN, so a zero margin leaves the bounds as they are.
        with np.errstate(over="ignore"):
            ext = hi - lo
            if np.any(ext <= 0) and margin <= 0:
                raise ValueError(
                    "degenerate bounding box: a coordinate is constant; "
                    "pass an explicit box or a positive margin"
                )
            if margin:
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
    The leaf-kernel tables are built here: the depth-``k`` id table, and
    walk tables for the levels below it only, empty when ``k = p``.
    """

    box: Box
    labels: np.ndarray
    # Leaf-kernel tables, derived from ``box`` and ``labels``:
    # (d, 2**p + 1) sorted edges per axis: lo, the inner breakpoints,
    # nextafter(hi, +inf);
    _edges: np.ndarray = field(init=False, repr=False)
    # (T, 2**(k*d)) depth-k node ids by packed top-k code bits;
    _leaf_table: np.ndarray = field(init=False, repr=False)
    # (2, T * (2**p - 2**k)) axis and code bit of each walked node, tree-major;
    _bit_table: np.ndarray = field(init=False, repr=False)
    # (p - k, T) walk-table address of each tree's first node on each level.
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
        k = _table_depth(n_trees, depth, self.box.d)
        levels = np.arange(k, depth, dtype=np.int32)[:, None]
        tables = {
            "labels": labels,
            "_edges": _edges(self.box, depth),
            "_leaf_table": _leaf_table(labels, k, self.box.d),
            "_bit_table": _bit_table(labels, depth, k).reshape(2, -1),
            "_level_base": (np.arange(n_trees, dtype=np.int32) * (2**depth - 2**k)
                            + (2**levels - 2**k)),
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
    so construction may run in parallel without changing the result.  A
    negative integer seed raises ``ValueError``.
    """
    if n_trees < 1:
        raise ValueError("tree count must be at least 1")
    if p < 0:
        raise ValueError("depth must be non-negative")
    # Checked before any tree is drawn: each tree allocates 2**p - 1 labels.
    _check_forest_size(n_trees, p)
    if not isinstance(seed, np.random.SeedSequence):
        _check_seed(seed)
        seed = np.random.SeedSequence(int(seed))
    labels = np.stack([
        np.random.default_rng(s).integers(0, box.d, size=2**p - 1, dtype=np.int64)
        for s in seed.spawn(n_trees)
    ])
    return Forest(box=box, labels=labels)


def _check_seed(seed) -> None:
    """Refuse a negative seed by name: numpy's own refusal names no seed."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _check_forest_size(n_trees: int, depth: int) -> None:
    """Int32 node addresses need T * 2**p < 2**31; a huge depth fails before 2**p is built."""
    if depth > 30 or n_trees * 2**depth >= 2**31:
        raise ValueError("forest too large: n_trees * 2**depth must stay below 2**31")


def _breakpoints(box: Box, p: int) -> np.ndarray:
    """The ``2**p + 1`` mesh points of every axis, shape ``(d, 2**p + 1)``.

    Level by level, each new point is ``0.5 * (left + right)`` of its two
    neighbours on the coarser level: the float expression of a midpoint
    split of the cell between them.  Where ``left + right`` overflows,
    which a box near the float maximum allows, the point is ``0.5 * left
    + 0.5 * right``: both halves are exact there, so it is the same
    rounding of the same midpoint.
    """
    n = 2**p
    mesh = np.empty((box.d, n + 1))
    mesh[:, 0] = box.lo
    mesh[:, n] = box.hi
    step = n
    while step > 1:
        half = step // 2
        left, right = mesh[:, 0:n:step], mesh[:, step::step]
        with np.errstate(over="ignore"):
            total = left + right
        mesh[:, half::step] = np.where(np.isfinite(total), 0.5 * total,
                                       0.5 * left + 0.5 * right)
        step = half
    return mesh


def _edges(box: Box, p: int) -> np.ndarray:
    """Each axis's sorted search edges, ``(d, 2**p + 1)``: ``lo``, the inner
    breakpoints and ``nextafter(hi, +inf)``, which is ``+inf`` at the float maximum."""
    edges = _breakpoints(box, p)
    with np.errstate(over="ignore"):  # the step past the float maximum is +inf
        edges[:, -1] = np.nextafter(box.hi_array, np.inf)
    return edges


def _bit_table(labels: np.ndarray, p: int, k: int) -> np.ndarray:
    """Axis and code bit of every node on levels ``k`` to ``p - 1``.

    Shape ``(2, T, 2**p - 2**k)``, int32.  A node that splits its axis for
    the ``s``-th time on its root path (``s`` counted from 0) reads bit
    ``p - 1 - s`` of that axis's code.  Built level by level, for all
    trees at once.
    """
    table = np.empty((2,) + labels[:, 2**k - 1 :].shape, dtype=np.int32)
    for level in range(k, p):
        nodes = np.arange(2**level - 1, 2 ** (level + 1) - 1)
        axis = labels[:, nodes]
        splits_above = np.zeros_like(axis)
        ancestor = nodes
        for _ in range(level):
            ancestor = (ancestor - 1) // 2
            splits_above += labels[:, ancestor] == axis
        table[:, :, nodes - (2**k - 1)] = axis, p - 1 - splits_above
    return table


def _table_depth(n_trees: int, p: int, d: int) -> int:
    """Depth ``k`` of a forest's id table, chosen in integers before any allocation.

    The largest ``k <= min(p, 16)`` whose ``(T, 2**(k*d))`` table is within
    both budgets (ids past 16 bits do not fit uint16), and 0 if none is.
    """
    fits = (k for k in range(min(p, 16), 0, -1)
            if n_trees * 2**k <= _TABLE_LEAVES
            and n_trees * 2 ** (k * d) * (1 if k <= 8 else 2) <= _TABLE_BYTES)
    return next(fits, 0)


def _leaf_rects(labels: np.ndarray, p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Code-space rectangle of every leaf: ``(T, 2**p, d)`` low corners and log2 widths.

    Built level by level, for all trees at once: a node's children halve
    its width on the split axis, and the right child starts at the half.
    """
    n_trees = labels.shape[0]
    low = np.zeros((n_trees, 1, d), dtype=np.int64)
    log_width = np.full((n_trees, 1, d), p, dtype=np.int64)
    for level in range(p):
        split = labels[:, 2**level - 1 : 2 ** (level + 1) - 1, None] == np.arange(d)
        half = log_width - split
        low = np.stack([low, low + (split << half)], axis=2).reshape(n_trees, -1, d)
        log_width = np.repeat(half, 2, axis=1)
    return low, log_width


def _leaf_table(labels: np.ndarray, p: int, d: int) -> np.ndarray:
    """``(T, 2**(p*d))`` depth-``p`` node ids of every tree by codes packed in C order.

    Only the first ``p`` levels of ``labels`` are read.  A leaf's shape is
    its tuple of log2 widths ``w``, and its low corner is a multiple of
    ``2**w[j]`` on every axis, so the leaves of one shape are whole blocks
    of the table viewed as ``(T, 2**(p - w[0]), ..., 2**w[0], ...)``.  All
    of them, in every tree, are written by one indexed assignment to that
    view: one write per shape, of which there are at most ``C(p + d - 1,
    d - 1)``.
    """
    n_trees = labels.shape[0]
    low, log_width = _leaf_rects(labels, p, d)
    table = np.empty((n_trees,) + (2**p,) * d, dtype=np.uint8 if p <= 8 else np.uint16)
    # Leaf i of tree t is row t * 2**p + i; the rows are grouped by shape.
    log_width = log_width.reshape(-1, d)
    order = np.lexsort(log_width.T)
    log_width = log_width[order]
    block = (low.reshape(-1, d)[order] >> log_width).T
    tree, leaf = np.divmod(order, 2**p)
    leaf = leaf.astype(table.dtype).reshape((-1,) + (1,) * d)
    starts = np.flatnonzero(np.any(log_width[1:] != log_width[:-1], axis=1)) + 1
    for a, b in zip([0, *starts.tolist()], [*starts.tolist(), order.size]):
        view = table.reshape((n_trees,) + tuple(
            size for w in log_width[a].tolist() for size in (2 ** (p - w), 2**w)))
        # block indices first, then the offsets within a block
        view = view.transpose(0, *range(1, 2 * d, 2), *range(2, 2 * d + 1, 2))
        view[(tree[a:b], *block[:, a:b])] = leaf[a:b]
    return table.reshape(n_trees, -1)


def leaf_indices(forest: Forest, points) -> np.ndarray:
    """Leaf id of each point in each tree, an ``(n, T)`` int32 array.

    The id is the root-to-leaf path read as a bit string, left=0 and
    right=1, with the root bit most significant.  Points must lie in the
    closed box; any other point, NaN included, raises ``ValueError``.
    Each coordinate's code is its edge search less one (see the module
    docstring), and a point is in the closed box exactly when every code
    lies in ``[0, 2**p)``; :func:`_ids_of_codes` takes the codes to leaf ids.
    """
    pts = _as_points(points, forest.box.d)
    codes = np.empty(pts.shape, dtype=np.int32)
    for j in range(pts.shape[1]):
        codes[:, j] = forest._edges[j].searchsorted(pts[:, j], side="right")
    codes -= 1
    # Read as unsigned, a code of -1 (below the box) is past 2**p too.
    if (codes.view(np.uint32) >= 2**forest.depth).any():
        raise ValueError("point outside domain")
    return _ids_of_codes(forest, codes)


def _bordered_cells(forest: Forest) -> int:
    """Entries of the forest's bordered cell table, ``(2**p + 2)**d``."""
    return (2**forest.depth + 2) ** forest.box.d


def _bordered(forest: Forest, values: np.ndarray, normalizer: float) -> np.ndarray:
    """The bordered cell table of ``values`` over ``normalizer``, a new
    ``(2**p + 2)**d`` float array.

    ``values`` holds the ``2**(p*d)`` cells' values in packed C order; each
    is divided by ``normalizer`` as it is written into the interior, and
    the border holds ``0.0``.
    """
    side = 2**forest.depth + 2
    table = np.zeros((side,) * forest.box.d)
    np.divide(values.reshape((side - 2,) * forest.box.d), normalizer,
              out=table[(slice(1, -1),) * forest.box.d])
    return table.reshape(-1)


def _bordered_index(forest: Forest, pts: np.ndarray) -> np.ndarray:
    """Each ``(n, d)`` point's entry in a bordered cell table, an ``(n,)`` intp array.

    Its edge search on every axis, packed in base ``2**p + 2``, axis 0
    most significant.  Every point gets an entry in range: one outside
    the closed box, or holding NaN, lies on the border.
    """
    edges = forest._edges
    index = edges[0].searchsorted(pts[:, 0], side="right")
    for j in range(1, pts.shape[1]):
        # Not in place: on one row, *= and += cost more than a new array.
        index = index * (edges.shape[1] + 1) + edges[j].searchsorted(pts[:, j], side="right")
    return index


def _lookup(forest: Forest, table: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Each ``(n, d)`` point's value in a :func:`_bordered` table: ``0.0``
    outside the closed box.  A row holding NaN reads ``0.0`` too; callers
    refuse it first."""
    # Every entry is in range; "wrap" skips the bounds check.
    return table.take(_bordered_index(forest, pts), mode="wrap")


def _pack(codes: np.ndarray, bits: int) -> np.ndarray:
    """``(n, d)`` codes of ``bits`` bits each as one C-order index, axis 0 most significant."""
    index = codes[:, 0].astype(np.intp)
    for j in range(1, codes.shape[1]):
        index <<= bits
        index |= codes[:, j]
    return index


def _lattice(axes: list[np.ndarray], chunk: int):
    """Yield the C-order product of per-axis node arrays, ``(n, d)``, ``chunk`` rows at a time."""
    shape = tuple(a.size for a in axes)
    total = int(np.prod(shape))
    for start in range(0, total, chunk):
        # The index arrays die here, not across the yield.
        yield np.column_stack([a[i] for a, i in zip(axes, np.unravel_index(
            np.arange(start, min(start + chunk, total)), shape))])


def _ids_of_codes(forest: Forest, codes: np.ndarray) -> np.ndarray:
    """Leaf id of each point with ``(n, d)`` int32 codes in each tree, ``(n, T)`` int32.

    In chunks of ``_WALK_CHUNK`` points, which bound the temporaries
    whatever the batch: gathers the depth-``k`` ids by the top ``k`` bits
    of every axis, packed in C order, then walks the other ``p - k``
    levels.
    """
    walked = len(forest._level_base)
    out = np.empty((codes.shape[0], forest.n_trees), dtype=np.int32)
    for start in range(0, codes.shape[0], _WALK_CHUNK):
        chunk = codes[start : start + _WALK_CHUNK]
        leaf = out[start : start + chunk.shape[0]]
        index = _pack(chunk >> walked, forest.depth - walked)
        leaf[...] = forest._leaf_table.take(index, axis=1).T
        _walk(forest, chunk, leaf)
    return out


def _refinement(forest: Forest, chunk: int):
    """Yield the forest's common refinement, ``chunk`` depth-``p`` cells at a time.

    Per C-order chunk of cells: the ``(c, T)`` int32 leaf ids of its ``c``
    corners (:func:`_corner_sources`), in cell order, and for each cell of
    the chunk the row of its corner, whose ids are the cell's own.
    """
    p, d = forest.depth, forest.box.d
    lattice = _lattice([np.arange(2**p, dtype=np.int32)] * d, chunk)
    for start in range(0, 2 ** (p * d), chunk):
        # An id table as deep as the trees holds every cell's ids, one column
        # per cell in this order; a shallower one leaves a walk from the codes.
        ids = (forest._leaf_table[:, start : start + chunk] if not len(forest._level_base)
               else _ids_of_codes(forest, next(lattice)).T)
        src = _corner_sources(ids, start, p, d)
        corner = src == np.arange(src.size)
        corners = ids[:, corner].T.astype(np.int32, copy=False)
        # ``corners`` holds the corners in order, so a running count of them
        # indexes it; rebinding ``src`` keeps one (n,) array alive, not two.
        src = (np.cumsum(corner) - 1)[src]
        # The ids die before the yield, so no two chunks' ids are alive at once.
        del ids
        yield corners, src


def _corner_sources(ids: np.ndarray, start: int, p: int, d: int) -> np.ndarray:
    """For each cell of a chunk, a corner cell of the chunk with the same leaf ids.

    ``ids`` is the chunk's ``(T, n)`` leaf ids, its cells the depth-``p``
    dyadic cells from C-order index ``start`` on.  A corner's ids differ
    from those of its lower neighbour on every axis where that neighbour
    lies in the chunk.  Every other cell points at a neighbour with the
    same ids, its left one where it can; doubling the pointers (``src =
    src[src]``) then takes every cell to a corner, as each step goes to a
    lower index.  Returns the ``(n,)`` chunk positions: a corner's own.
    """
    n = ids.shape[1]
    cell = np.arange(start, start + n)
    src = np.arange(n)
    # The last axis last, so that its pointers, to the left, win.
    for shift in range(p * (d - 1), -1, -p) if p else ():
        stride = 1 << shift
        if stride >= n:
            continue
        same = (ids[:, stride:] == ids[:, :-stride]).all(axis=0)
        # A cell with code 0 on this axis has no lower neighbour on it.
        same &= (cell[stride:] >> shift) & (2**p - 1) != 0
        src[stride:][same] = np.flatnonzero(same)
    while True:
        hop = src.take(src)
        if np.array_equal(hop, src):
            return src
        src = hop


def _walk(forest: Forest, codes: np.ndarray, leaf: np.ndarray) -> None:
    """Extend the depth-``k`` ids in ``leaf`` to leaf ids, one level at a time."""
    # Every address is in range by construction; "wrap" skips the
    # bounds check and the output buffer of the default mode.
    for base in forest._level_base:
        at = leaf + base
        # the flat address of each point's code on its node's axis
        went_right = forest._bit_table[0].take(at, mode="wrap")
        went_right += np.arange(0, codes.size, codes.shape[1], dtype=np.int32)[:, None]
        codes.take(went_right, out=went_right, mode="wrap")
        went_right >>= forest._bit_table[1].take(at, out=at, mode="wrap")
        went_right &= 1
        leaf <<= 1
        leaf |= went_right


def _as_real(values) -> np.ndarray:
    """``values`` as a float array; complex ones raise ``ValueError``.

    A cast to float would drop the imaginary part with only a warning.
    The dtype test reads no element, so a float array passes through.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise ValueError(f"coordinates must be real numbers, not {arr.dtype}")
    return arr.astype(float, copy=False)


def _as_points(points, d: int) -> np.ndarray:
    pts = np.atleast_2d(_as_real(points))
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got shape {pts.shape}")
    return pts
