"""Median-of-forests density estimation.

Fitting splits the sample into disjoint equal-size blocks via a uniform
permutation, counts each block's points in the leaves of one shared
random forest, and normalizes the pointwise lower median of the per-block
forest densities so it integrates to one over the box.

For a block of size ``m`` and a depth-``p`` tree, the tree density at
``x`` is ``count_in_leaf / (m * box.volume * 2**-p)``; the block (forest)
density averages that over the trees; the aggregate takes the k-th
smallest block value with ``k = ceil(S / 2)``, the lower median.

One kernel, :func:`_kth_densities`, takes every median, for the
normalizer, the cell table and a walked query alike: it sums each
block's integer leaf counts over the trees, exact in
the type :func:`_summed_counts` picks, selects the k-th smallest sum and
divides only that one, so the result is the k-th smallest of the divided
block densities, bit for bit, whatever the batch, its chunking or the
sums' integer type.

Every tree splits at midpoints, so the median is constant on each of the
forest's ``2**(p*d)`` depth-``p`` dyadic cells, and depends on a cell only
through its ``T`` leaf ids.  :func:`_cell_medians` takes it once per cell
of the forest's common refinement, whose corners and their ids
:func:`~mfrde.geometry._refinement` gives.  A model whose bordered table,
``(2**p + 2)**d`` entries, is at most ``_TABLE_CELLS`` holds every cell's
normalized density in it, built from the counts once, when the model
is.  A model built without a normalizer, as :func:`fit` builds one,
derives it from those same cell values; :func:`load_model` and
:func:`dataclasses.replace` pass theirs.  The table's border holds 0, so
every query of such a model is one NaN test and one read of the table
at its edge searches (:func:`~mfrde.geometry._lookup`), in the box or
out of it; NaN is tested on its own because its searches would land on
the border and read 0.  The table is read-only, so concurrent readers
stay safe.  Only past the budget (``d >= 3`` at ``p = 8``) does a query
test the box and walk its in-box points' leaves to take their median.
Both give the same floats: a point's leaf ids are those of its cell.

Every size is fixed before anything is drawn, allocated or decoded:
:func:`fit`, :func:`load_model` (on a file's header) and every
:class:`FittedMFRDE` first run one pure function of the numbers,
:func:`_plan`.  It keeps int32 tree sums exact, ``T * m < 2**31``, as
every count is at most ``m``; its ``auto`` quadrature also bounds the
normalizer's work, ``T * S`` gathered counts per node, by ``_WORK_BUDGET``.

Leaf counts have one layout, ``FittedMFRDE.leaf_counts``: a C-contiguous
int32 array of shape ``(T, 2**p, S)``, so a query's lookup in one tree
reads one contiguous row of ``S`` block counts.  ``FittedMFRDE.counts``
is only a read-only ``(S, T, 2**p)`` view of it, which indexes block by
block and serializes to the model file's nested lists.  A model holds one
query structure beside it: the cell table, or past the table's budget the
array each walked query sums (:func:`_summed_counts`), never both.

Fitted models are immutable; evaluation is safe for concurrent readers.
Fitting itself is deterministic given the config seed: trees, the block
permutation and any Monte Carlo quadrature draws come from separate
spawned substreams.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .datasets import Dataset, _write_atomic
from .geometry import (
    Box, Forest, _as_points, _as_real, _bordered, _bordered_cells, _check_forest_size,
    _check_seed, _lattice, _lookup, _refinement, build_forest, leaf_indices,
)

__all__ = [
    "Quadrature",
    "EstimatorConfig",
    "FittedMFRDE",
    "assign_blocks",
    "fit",
    "evaluate",
    "evaluate_batch",
    "integrate_estimate",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1

# Fixed chunk sizes keep quadrature results independent of available memory.
_QUAD_CHUNK = 1 << 15
# The median kernel walks the leaves this many points at a time (one
# quadrature chunk per walk) and sums tree counts in sub-chunks of about
# this many sums: 256 KB in int32 and 128 KB in uint16, so the sums and
# their row buffer fit in L2.
_WALK_POINTS = _QUAD_CHUNK
_GATHER_ELEMS = 1 << 16
# Most entries of a model's bordered cell table, (2**p + 2)**d float64
# densities, the 2**(p*d) cells inside a border of zeros that points
# outside the box read: 4 MiB.  As (2**p + 2)**d > 2**(p*d), no table
# it admits has more than 2**18 cells: (d, p) = (2, 9) and (3, 6) have
# that many, in 264 196 and 287 496 entries.  A shape whose border more
# than doubles its table walks instead, such as (6, 3): 2**18 cells in
# 10**6 entries.
# Builds from the counts (medians of 5 in-process builds, 2-core x86 host,
# numpy 2.4), with the forest's id table as deep as its trees (k = p):
# 3.2 ms at 65 536 cells, (d, p, T, S) = (2, 8, 12, 10), and 5.7 ms at
# S = 100; 10 ms at 262 144 cells, (2, 9, 12, 10) and (3, 6, 20, 10).
# Past the budget k < p: 187 ms at 2**20 cells, (2, 10, 12, 10), and
# 527 ms at 2**21, (3, 7, 20, 10), too much to add to every load.
_TABLE_CELLS = 1 << 19
# Most quadrature nodes, or Monte Carlo draws, any method may use.
_CELL_BUDGET = 1 << 24
# Most counts the normalizer chosen by ``auto`` may gather: nodes * T * S.
_WORK_BUDGET = 1 << 28
# Most bytes a fit may ask for in one array: the forest's int64 split
# labels (the forest's walk table is as large) or the int32 leaf counts.
_BYTE_BUDGET = 1 << 30


def _summed_counts(leaf_counts: np.ndarray, trees: int, m: int) -> np.ndarray:
    """The counts array the median kernel sums, read-only.

    Tree sums of ``trees`` counts of at most ``m`` are exact in uint16
    while ``trees * m < 2**16``: then a uint16 copy, which halves the bytes
    each gather reads, whether it builds a cell table, takes a normalizer's
    medians or walks a query past the table budget; otherwise the int32
    storage itself.
    """
    if trees * m >= 2**16:
        return leaf_counts
    narrow = leaf_counts.astype(np.uint16)
    narrow.setflags(write=False)
    return narrow


@dataclass(frozen=True)
class Quadrature:
    """How to integrate the unnormalized median over the box.

    ``exact-dyadic`` sums the median at the centers of the ``2**(p*d)``
    dyadic cells on which it is piecewise constant, an exact integral up
    to floating-point summation; ``regular-grid`` averages over an
    inclusive-endpoint lattice of ``grid_points`` nodes per axis, and
    ``monte-carlo`` over ``mc_draws`` uniform draws.  The fit plan,
    :func:`_plan`, refuses more than ``_CELL_BUDGET`` nodes and resolves
    ``auto`` to exact-dyadic, else to the largest regular grid ``G <=
    grid_points``, within ``_CELL_BUDGET`` nodes and ``_WORK_BUDGET``
    gathered counts (nodes * T * S); it raises when even ``G = 2`` fails.
    """

    method: str = "auto"
    grid_points: int = 100
    mc_draws: int = 100_000

    def __post_init__(self) -> None:
        if self.method not in ("auto", "exact-dyadic", "regular-grid", "monte-carlo"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.grid_points < 2:
            raise ValueError("regular grid needs at least 2 points per axis")
        if self.mc_draws < 1:
            raise ValueError("monte-carlo needs at least 1 draw")

    @classmethod
    def parse(cls, text: str) -> "Quadrature":
        """Parse a compact spec: ``auto``, ``exact``, ``grid[:G]`` or ``mc[:N]``."""
        name, colon, arg = text.partition(":")
        if colon and name in ("auto", "exact", "exact-dyadic"):
            raise ValueError(f"quadrature {name!r} takes no argument, got {text!r}")
        if name == "auto":
            return cls()
        if name in ("exact", "exact-dyadic"):
            return cls(method="exact-dyadic")
        grid = name in ("grid", "regular-grid")
        # A colon needs a count, in ASCII digits: isdecimal() alone takes "٣".
        digits = arg.isascii() and arg.isdecimal()
        if (grid or name in ("mc", "monte-carlo")) and (digits or not colon):
            size = int(arg) if colon else (100 if grid else 100_000)
            return (cls(method="regular-grid", grid_points=size) if grid
                    else cls(method="monte-carlo", mc_draws=size))
        raise ValueError(f"cannot parse quadrature spec {text!r}")


def _as_int(value, name: str) -> int:
    """``value`` as a Python int by ``operator.index``, so a numpy integer
    passes; a bool, float or string raises ``ValueError`` naming ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Fit-time choices: block size, forest shape, seed, domain, quadrature.

    ``m`` is the block size; :func:`fit` raises ``ValueError`` when it
    exceeds the sample size.  ``box=None`` means the tight bounding box of
    the data expanded by ``box_margin`` relative to its extent.  ``m``,
    ``trees``, ``depth`` and ``seed`` are stored as Python ints (see
    :func:`_as_int`), and a negative ``seed`` raises ``ValueError``.
    """

    m: int
    trees: int = 20
    depth: int = 6
    seed: int = 0
    quadrature: Quadrature = field(default_factory=Quadrature)
    box: Box | None = None
    box_margin: float = 0.0

    def __post_init__(self) -> None:
        for name in ("m", "trees", "depth", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if self.m < 1:
            raise ValueError("block size must be at least 1")
        if self.trees < 1:
            raise ValueError("tree count must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        _check_seed(self.seed)
        if not (math.isfinite(self.box_margin) and self.box_margin >= 0):
            raise ValueError(f"box margin must be finite and non-negative, got {self.box_margin}")


def assign_blocks(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Permute ``{0..n-1}`` and cut the head into ``floor(n/m)`` blocks of ``m``.

    Returns the ``(n // m, m)`` index matrix, one block per row; the
    ``n mod m`` tail of the permutation is dropped.
    """
    if m < 1:
        raise ValueError("block size must be at least 1")
    if m > n:
        raise ValueError("block size exceeds sample size")
    s = n // m
    return rng.permutation(n)[: s * m].reshape(s, m)


@dataclass(frozen=True)
class _Plan:
    """What :func:`_plan` fixes: S and the resolved quadrature."""

    blocks: int
    quadrature: Quadrature


def _plan(trees: int, depth: int, m: int, n: int, d: int, quadrature: Quadrature) -> _Plan:
    """Size a fit of ``n`` points in ``d`` dimensions, or refuse it.

    Refuses, with a ``ValueError``: tree sums past int32, a forest, split
    labels or leaf counts past their budgets, and a quadrature past
    ``_CELL_BUDGET`` nodes.  Resolves ``auto`` as :class:`Quadrature` says.
    """
    if trees * m >= 2**31:
        raise ValueError(f"trees * m = {trees * m} must stay below 2**31 for int32 leaf counts")
    # The forest's own check comes first, which keeps the numbers below short.
    _check_forest_size(trees, depth)
    blocks = n // m
    leaves = 2**depth
    for what, formula, size in (
        ("split labels", f"T * (2**p - 1) * 8 = {trees} * {leaves - 1} * 8",
         trees * (leaves - 1) * 8),
        ("leaf counts", f"T * 2**p * S * 4 = {trees} * {leaves} * {blocks} * 4",
         trees * leaves * blocks * 4),
    ):
        if size > _BYTE_BUDGET:
            raise ValueError(
                f"the {what} need {formula} = {size} bytes, over the budget of "
                f"{_BYTE_BUDGET}; use fewer trees, less depth or larger blocks"
            )
    cells = 2 ** (depth * d)
    if quadrature.method == "auto":
        per_node = trees * max(blocks, 1)  # m > n: no block, and cutting blocks fails
        nodes = min(_CELL_BUDGET, _WORK_BUDGET // per_node)
        if cells <= nodes:
            return _Plan(blocks, replace(quadrature, method="exact-dyadic"))
        # Largest G <= grid_points with G**d within both budgets, in integers.
        g = min(quadrature.grid_points, round(nodes ** (1 / d)) + 1)
        while g >= 2 and g**d > nodes:
            g -= 1
        if g < 2:
            raise ValueError(
                f"auto quadrature: neither 2**(p*d) = {cells} dyadic cells nor a 2**d = "
                f"{2**d}-node grid fits both {_WORK_BUDGET} gathered counts at T * S = "
                f"{per_node} per node and the budget of {_CELL_BUDGET} nodes; use monte-carlo"
            )
        quadrature = replace(quadrature, method="regular-grid", grid_points=g)
    elif quadrature.method == "exact-dyadic":
        _check_nodes(cells, f"exact-dyadic quadrature needs 2**(p*d) = {cells} cells",
                     "use regular-grid or monte-carlo")
    elif quadrature.method == "regular-grid":
        g = quadrature.grid_points
        _check_nodes(g**d, f"regular-grid quadrature needs G**d = {g}**{d} = {g**d} nodes",
                     "use fewer points per axis or monte-carlo")
    else:
        draws = quadrature.mc_draws
        _check_nodes(draws, f"monte-carlo quadrature asks for {draws} draws", "use fewer draws")
    return _Plan(blocks, quadrature)


def _check_nodes(nodes: int, needs: str, advice: str) -> None:
    """Refuse more than ``_CELL_BUDGET`` quadrature or grid nodes; ``needs`` says which."""
    if nodes > _CELL_BUDGET:
        raise ValueError(f"{needs}, over the budget of {_CELL_BUDGET}; {advice}")


@dataclass(frozen=True, eq=False)
class FittedMFRDE:
    """Fitted model: shared forest, per-block leaf counts, normalizer.

    ``leaf_counts`` holds the ``(T, 2**p, S)`` non-negative integer counts;
    a block's counts sum to the same total, at most ``m``, in every tree.
    An array that already is C-contiguous int32 is kept, not copied, and
    made read-only.  ``n`` lies in ``[S * m, S * m + m)``; :attr:`dropped` is the rest.
    ``seed`` is the fit's seed, non-negative, which Monte Carlo quadrature
    draws from.  ``n``, ``m`` and ``seed`` are stored as Python ints (see
    :func:`_as_int`).
    ``quadrature`` is the resolved method: ``auto`` raises ``ValueError``.

    ``normalizer`` is the integral of the unnormalized median over the box
    with ``quadrature``; ``None``, which is how :func:`fit` builds a model,
    derives it here (:func:`_compute_normalizer`).  A given one, as
    :func:`load_model` and :func:`dataclasses.replace` pass it, must be
    finite and positive, is checked before any table is built, and is then
    trusted.

    A model holds exactly one query structure.  One whose bordered cell
    table has at most ``_TABLE_CELLS`` entries holds that table, read-only
    and built here, once: the ``(2**p + 2)**d`` array of
    :func:`~mfrde.geometry._bordered`, every dyadic cell's normalized
    density inside a border of 0.0 that every point outside the box reads.
    Every query reads its point's entry, after a NaN test: NaN would read
    the border too.  As nothing writes the table later, concurrent readers
    stay safe.  Its cell values are taken from the counts, summed in the
    type :func:`_summed_counts` picks, and a derived normalizer sums or
    looks up those same values; that array is dropped once the table is
    built.  A model past the budget holds no table and keeps the summed
    counts instead, which each query's walk of its leaves reads.  The
    model file holds neither.
    """

    seed: int
    forest: Forest
    n: int
    m: int
    leaf_counts: np.ndarray
    quadrature: Quadrature  # resolved method actually used for the normalizer
    normalizer: float | None = None
    # Past the table budget, the read-only array each walked query sums,
    # derived from ``leaf_counts`` (:func:`_summed_counts`); None within it.
    _sum_counts: np.ndarray | None = field(init=False, repr=False)
    # Within the budget, each dyadic cell's normalized density in the
    # bordered layout of ``geometry``, read-only; None past it.
    _cells: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("n", "m", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        counts = np.asarray(self.leaf_counts)
        t, leaves, s = counts.shape
        if t != self.forest.n_trees or leaves != 2**self.forest.depth:
            raise ValueError("count array shape does not match the forest")
        if counts.dtype.kind != "i":
            raise ValueError(f"leaf counts must be signed integers, not {counts.dtype}")
        if s < 1 or not 0 <= self.n - s * self.m < self.m:
            raise ValueError(
                f"sizes do not add up: S={s}, m={self.m}, n={self.n}; "
                "need S >= 1 and S*m <= n < S*m + m"
            )
        if self.quadrature.method == "auto":
            raise ValueError(f"unresolved quadrature method {self.quadrature.method!r}")
        _check_seed(self.seed)
        _plan(t, self.forest.depth, self.m, self.n, self.box.d, self.quadrature)
        if counts.min() < 0:
            raise ValueError("leaf counts must be non-negative")
        # Each count is checked first, so the int64 (T, S) totals cannot wrap.
        if counts.max() > self.m or (totals := counts.sum(axis=1, dtype=np.int64)).max() > self.m:
            raise ValueError("a block holds more points than its size")
        # Each counted point lies in one leaf of every tree.
        if (totals != totals[0]).any():
            raise ValueError("a block's count total differs between trees")
        if self.normalizer is not None and not (
                self.normalizer > 0 and math.isfinite(self.normalizer)):
            raise ValueError("normalizer must be finite and strictly positive")
        _density_denom(self.forest, self.m)  # raises if it overflows
        leaf_counts = np.ascontiguousarray(counts, dtype=np.int32)
        leaf_counts.setflags(write=False)
        object.__setattr__(self, "leaf_counts", leaf_counts)
        summed = _summed_counts(leaf_counts, t, self.m)
        cells = _cell_table(self.forest, summed, self.m) if _tabulated(self.forest) else None
        if self.normalizer is None:
            object.__setattr__(self, "normalizer", _compute_normalizer(
                self.forest, summed, self.m, self.quadrature, self.seed, cells))
        # One query structure: the cell table, or past its budget the
        # counts each walk sums.
        if cells is not None:
            summed = None
            # The division each query's median took before: the same bits.
            cells = _bordered(self.forest, cells, self.normalizer)
            cells.setflags(write=False)
        object.__setattr__(self, "_sum_counts", summed)
        object.__setattr__(self, "_cells", cells)

    @property
    def counts(self) -> np.ndarray:
        """The ``(S, T, 2**p)`` block-major view of ``leaf_counts``."""
        return self.leaf_counts.transpose(2, 0, 1)

    @property
    def median_rank(self) -> int:
        return _median_rank(self.n_blocks)

    @property
    def dropped(self) -> int:
        """The ``n mod m`` tail of the block permutation, ``n - S*m``."""
        return self.n - self.n_blocks * self.m

    @property
    def box(self) -> Box:
        return self.forest.box

    @property
    def n_blocks(self) -> int:
        return int(self.leaf_counts.shape[2])

    @property
    def n_trees(self) -> int:
        return self.forest.n_trees

    @property
    def depth(self) -> int:
        return self.forest.depth


def _tabulated(forest: Forest) -> bool:
    """Whether a model of ``forest`` holds a cell table: ``(2**p + 2)**d <= _TABLE_CELLS``."""
    return _bordered_cells(forest) <= _TABLE_CELLS


def _median_rank(blocks: int) -> int:
    """``ceil(S / 2)``: the lower median is the k-th smallest block value."""
    return (blocks + 1) // 2


def _per_tree_sums(leaf_major: np.ndarray, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exact sums over the trees of each point's leaf row, in ``leaf_major.dtype``.

    ``leaf_major`` is the ``(T, 2**p, S)`` counts array and ``ids`` the
    ``(n, T)`` leaf ids; fills and returns ``out``, shape ``(n, S)``, by one
    gather of contiguous ``S``-rows and one add per tree, which copies no
    ``(T, n, S)`` block.
    """
    rows = np.empty_like(out)
    # Leaf ids are in range by construction; "wrap" skips the bounds check.
    leaf_major[0].take(ids[:, 0], axis=0, out=out, mode="wrap")
    for t in range(1, leaf_major.shape[0]):
        leaf_major[t].take(ids[:, t], axis=0, out=rows, mode="wrap")
        out += rows
    return out


def _density_denom(forest: Forest, m: int) -> float:
    """``m`` times the leaf volume: a tree sum over it, then over T, is a density.

    A box near the float maximum can push the product past it, where every
    density would read 0; that raises ``ValueError``.
    """
    denom = m * (forest.box.volume * 2.0**-forest.depth)
    if denom == math.inf:
        raise ValueError(
            f"m times the leaf volume, {m} * {forest.box.volume} * 2**-{forest.depth}, "
            "overflows the float range; use smaller blocks, more depth or a smaller box"
        )
    return denom


def _median_values(
    forest: Forest, leaf_major: np.ndarray, m: int, points: np.ndarray,
) -> np.ndarray:
    """The walked median at each in-box point, ``_WALK_POINTS`` points at a time.

    Each point walks its leaves and :func:`_kth_densities` takes the lower
    median (the :func:`_median_rank`-th smallest) of the block densities
    there, summing ``leaf_major``, the ``(T, 2**p, S)`` counts, in their
    own integer type.  A point outside the closed box raises.
    """
    n = points.shape[0]
    out = np.empty(n)
    for start in range(0, n, _WALK_POINTS):
        chunk = points[start : start + _WALK_POINTS]
        ids = leaf_indices(forest, points=chunk)
        _kth_densities(forest, leaf_major, m, ids, out[start : start + chunk.shape[0]])
        # Freed before the next chunk's ids exist, not when they replace it.
        del ids
    return out


def _cell_table(forest: Forest, leaf_major: np.ndarray, m: int) -> np.ndarray:
    """The ``(2**(p*d),)`` lower medians of :func:`_cell_medians`, in one array."""
    table = np.empty(2 ** (forest.depth * forest.box.d))
    start = 0
    for corners, rows in _cell_medians(forest, leaf_major, m):
        corners.take(rows, out=table[start : start + rows.size])
        start += rows.size
        # Freed before the next chunk's medians exist, not when they replace it.
        del corners
    return table


def _cell_medians(
    forest: Forest, leaf_major: np.ndarray, m: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The lower median on every depth-``p`` dyadic cell, ``_QUAD_CHUNK`` cells at a time.

    Yields, per chunk of cells in C order, the median at the chunk's
    corners in the forest's common refinement
    (:func:`~mfrde.geometry._refinement`) and each cell's corner row:
    ``corners.take(rows)`` holds the chunk's values, which the caller
    writes where it keeps them.  :func:`_kth_densities` runs only on the
    corners, and every other cell copies its corner's value: the same
    ``T`` ids give the same integer sums, the same k-th sum and the same
    division, so each value has the bits of the cell's own median.
    """
    for ids, rows in _refinement(forest, _QUAD_CHUNK):
        yield _kth_densities(forest, leaf_major, m, ids, np.empty(len(ids))), rows


def _kth_densities(
    forest: Forest, leaf_major: np.ndarray, m: int, ids: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """The median kernel: fill ``out`` with the lower median at ``(n, T)`` leaf ids.

    Selects on the exact integer tree sums, kept in ``leaf_major.dtype``
    (int32, or uint16 by :func:`_summed_counts`), and divides only the k-th
    sum, k = :func:`_median_rank` of the ``S`` blocks on the counts' last
    axis, once by ``m`` times the leaf volume and once by the tree count.
    That division is monotone non-decreasing, so it commutes with the
    order statistic and the result equals the k-th smallest of the
    divided densities, bit for bit, whichever integer type held the sums.
    The sums are taken in sub-chunks of about ``_GATHER_ELEMS``, so they
    and their row buffer stay cache-sized whatever the batch and block
    count.
    """
    s = leaf_major.shape[2]
    k = _median_rank(s) - 1
    denom = _density_denom(forest, m)
    sub = max(256, _GATHER_ELEMS // max(s, 1))
    sums = np.empty((min(sub, ids.shape[0]), s), dtype=leaf_major.dtype)
    for lo in range(0, ids.shape[0], sub):
        part = _per_tree_sums(leaf_major, ids[lo : lo + sub], sums[: ids.shape[0] - lo])
        part.partition(k, axis=1)
        kth = part[:, k]
        out[lo : lo + kth.size] = kth / denom / forest.n_trees
    return out


def evaluate(model: FittedMFRDE, x) -> float:
    """Normalized density at one point of shape ``(d,)``; zero outside the box.

    A complex or NaN coordinate raises ``ValueError``.
    """
    x = _as_real(x)
    if x.shape != (model.box.d,):
        raise ValueError(f"expected one point of shape ({model.box.d},), got shape {x.shape}")
    return float(_densities(model, x[None, :])[0])


def evaluate_batch(model: FittedMFRDE, points) -> np.ndarray:
    """Normalized density at each point, preserving input order.

    ``points`` is an ``(n, d)`` array, or one point of shape ``(d,)``; any
    other shape raises ``ValueError``.  A point outside the box, an
    infinite coordinate included, gets 0; a complex coordinate, or a row
    holding NaN, raises ``ValueError``.
    """
    return _densities(model, _as_points(points, model.box.d))


def _densities(model: FittedMFRDE, pts: np.ndarray) -> np.ndarray:
    """:func:`evaluate_batch` on an ``(n, d)`` float array.

    A model with a cell table looks every row up in it, the border giving
    0 outside the box; past the budget the in-box rows walk their leaves
    and every other row gets 0.
    """
    # NaN has no cell: the table's searches would put it on the border.
    # count_nonzero costs a single query half of what .any() does.
    if np.count_nonzero(np.isnan(pts)):
        nan_rows = int(np.count_nonzero(np.isnan(pts).any(axis=1)))
        raise ValueError(f"{nan_rows} query row(s) hold NaN; no density is defined there")
    if model._cells is not None:
        return _lookup(model.forest, model._cells, pts)
    mask = model.box.contains_rows(pts)
    out = np.zeros(pts.shape[0])
    out[mask] = _median_values(model.forest, model._sum_counts, model.m,
                               pts[mask]) / model.normalizer
    return out


def _fit_streams(seed: int) -> tuple[np.random.SeedSequence, ...]:
    """Substreams for tree building, block permutation and MC quadrature."""
    return tuple(np.random.SeedSequence(seed).spawn(3))


def _integrate(
    box: Box, p: int, quad: Quadrature, seed: int,
    values: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Quadrature of ``values`` over the box with a resolved method.

    The nodes are the dyadic cell centres of depth ``p``, the regular
    grid, or uniform draws from the fit seed's quadrature substream; each
    chunk is summed in float, the chunk sums with ``math.fsum``.
    """
    lo, hi, d = box.lo_array, box.hi_array, box.d
    if quad.method == "exact-dyadic":
        centres = (np.arange(2**p) + 0.5) / 2**p
        total = 2 ** (p * d)
        chunks = _lattice([lo[j] + (hi[j] - lo[j]) * centres for j in range(d)], _QUAD_CHUNK)
    elif quad.method == "regular-grid":
        total = quad.grid_points**d
        chunks = _lattice([np.linspace(lo[j], hi[j], quad.grid_points) for j in range(d)],
                          _QUAD_CHUNK)
    else:
        rng = np.random.default_rng(_fit_streams(seed)[2])
        total = quad.mc_draws
        chunks = (
            lo + (hi - lo) * rng.random((min(_QUAD_CHUNK, total - start), d))
            for start in range(0, total, _QUAD_CHUNK)
        )
    partials = [float(np.sum(values(pts))) for pts in chunks]
    return box.volume / total * math.fsum(partials)


def _compute_normalizer(
    forest: Forest, leaf_major: np.ndarray, m: int, quad: Quadrature, seed: int,
    cells: np.ndarray | None,
) -> float:
    """Integral of the unnormalized median over the box with a resolved method.

    ``leaf_major`` is the array :func:`_summed_counts` gives, and ``cells``
    the :func:`_cell_table` built from it, or ``None`` past ``_TABLE_CELLS``.
    ``exact-dyadic`` takes each cell's value from its leaf ids, found from
    its integer codes (:func:`_cell_medians`), not from a float centre, and
    sums the same ``_QUAD_CHUNK`` chunks in the same order as
    :func:`_integrate`, so the value is the same float as integrating at
    the cell centres.  The one exception is a box whose cells are narrower
    than a few ulps of its offset, where a float centre can round into a
    neighbouring cell: there this value is the exact sum over the cells and
    the centres' is not.  Within the budget the exact normalizer sums
    ``cells`` and a grid or Monte Carlo one looks up every node in it,
    bordered; past the budget the exact one streams :func:`_cell_medians`
    and the others walk every node's leaves.
    """
    if quad.method == "exact-dyadic":
        if cells is None:
            chunks = (corners.take(rows) for corners, rows in _cell_medians(forest, leaf_major, m))
        else:
            chunks = (cells[a : a + _QUAD_CHUNK] for a in range(0, cells.size, _QUAD_CHUNK))
        partials = [float(np.sum(v)) for v in chunks]
        z = forest.box.volume / 2 ** (forest.depth * forest.box.d) * math.fsum(partials)
    elif cells is not None:
        # Bordered over 1.0, which divides every value exactly.
        bordered = _bordered(forest, cells, 1.0)
        z = _integrate(forest.box, forest.depth, quad, seed,
                       lambda pts: _lookup(forest, bordered, pts))
    else:
        z = _integrate(forest.box, forest.depth, quad, seed,
                       lambda pts: _median_values(forest, leaf_major, m, pts))
    if not z > 0:
        raise ValueError(
            "degenerate model: median density vanishes everywhere "
            "(all data outside the box, or every block count zero)"
        )
    return z


def integrate_estimate(model: FittedMFRDE) -> float:
    """Integrate the normalized density with the model's own quadrature.

    Returns a value near 1; the gap is pure floating-point summation
    error for the deterministic methods.  Within the table budget every
    chunk is a lookup in the model's cell table, fitted or loaded.
    """
    return _integrate(
        model.box, model.depth, model.quadrature, model.seed,
        lambda pts: evaluate_batch(model, pts),
    )


def fit(data, config: EstimatorConfig) -> FittedMFRDE:
    """Fit the median-of-forests estimator.

    ``data`` is a :class:`~mfrde.datasets.Dataset` or an ``(n, d)`` array
    of finite values; any other shape, or a row holding NaN or an infinity,
    raises ``ValueError``.  Points outside the box are excluded from the leaf
    counts (each block still divides by its nominal size ``m``); their
    number per block is visible as ``m - leaf_counts[t, :, s].sum()``.
    """
    pts = Dataset(data.points if isinstance(data, Dataset) else data).points
    bad_rows = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
    if bad_rows:
        raise ValueError(
            f"{bad_rows} data row(s) hold NaN or infinite values; "
            "drop or repair them before fitting"
        )
    n, m = pts.shape[0], config.m
    if config.box is not None and pts.shape[1] != config.box.d:
        raise ValueError("data dimension does not match the box")
    plan = _plan(config.trees, config.depth, m, n, pts.shape[1], config.quadrature)
    forest_stream, perm_stream, _ = _fit_streams(config.seed)
    blocks = assign_blocks(n, m, np.random.default_rng(perm_stream))
    box = config.box if config.box is not None else Box.bounding(pts, config.box_margin)
    forest = build_forest(box, config.depth, config.trees, forest_stream)
    _density_denom(forest, m)  # raises if it overflows, before any count

    # Per chunk of kept points, one bincount per tree over leaf-offset
    # block ids adds into the leaf-major (T, 2**p, S) storage, so no leaf
    # ids of the whole sample are held at once.  Integer adds make the
    # counts independent of the chunking.
    s = plan.blocks
    leaves = 2**config.depth
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[blocks.ravel()] = np.repeat(np.arange(s), m)
    kept = np.flatnonzero(box.contains_batch(pts) & (block_of >= 0))
    leaf_counts = np.zeros((config.trees, leaves, s), dtype=np.int32)
    for start in range(0, kept.size, _WALK_POINTS):
        rows = kept[start : start + _WALK_POINTS]
        ids = leaf_indices(forest, points=pts[rows])
        row_blocks = block_of[rows]
        for t in range(config.trees):
            leaf_counts[t] += np.bincount(
                ids[:, t] * np.int64(s) + row_blocks, minlength=leaves * s
            ).reshape(leaves, s)
        # Freed before the next chunk's ids exist, not when they replace it.
        del ids

    return FittedMFRDE(
        seed=config.seed,
        forest=forest,
        n=n,
        m=m,
        leaf_counts=leaf_counts,
        quadrature=plan.quadrature,
    )


def save_model(model: FittedMFRDE, path) -> None:
    """Write the model as a single JSON document, atomically."""
    quad_params: dict = {}
    if model.quadrature.method == "exact-dyadic":
        quad_params["cell_budget"] = _CELL_BUDGET
    elif model.quadrature.method == "regular-grid":
        quad_params["points_per_axis"] = model.quadrature.grid_points
    elif model.quadrature.method == "monte-carlo":
        quad_params["draws"] = model.quadrature.mc_draws
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "box": {"lo": list(model.box.lo), "hi": list(model.box.hi)},
        "p": model.depth,
        "T": model.n_trees,
        "m": model.m,
        "S": model.n_blocks,
        "n": model.n,
        "dropped": model.dropped,
        "median_rank": model.median_rank,
        "seed": model.seed,
        "trees": model.forest.labels.tolist(),
        "counts": None,  # spliced in below
        "normalizer": model.normalizer,
        "quadrature": {"method": model.quadrature.method, "params": quad_params},
    }
    # One-shot encoding runs json's C encoder; json.dump to a file handle
    # always takes the pure-Python one.  Both give the same text.  No
    # string value comes before the counts, so the first "counts":null is
    # the key.
    head, _, tail = json.dumps(doc, separators=(",", ":")).partition('"counts":null')
    _write_atomic(path, head + '"counts":' + _counts_json(model.counts) + tail + "\n")


def _count_table(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """JSON texts of a table of counts, and each count's index into the table.

    The table is ``range(max + 1)``, indexed by the counts themselves,
    while it has no more entries than ``counts``; past that it holds the
    distinct counts, indexed by ``np.unique``'s inverse.  Either way it
    never outgrows the array, however large ``m`` is.
    """
    top = int(counts.max())
    if top < counts.size:
        values, index = np.arange(top + 1), counts
    else:
        values, index = np.unique(counts, return_inverse=True)
    texts = np.array([str(v) for v in values.tolist()], dtype=object)
    return texts, index.reshape(counts.shape)


def _counts_json(counts: np.ndarray) -> str:
    """``json.dumps(counts.tolist(), separators=(",", ":"))`` of ``(S, T, L)`` counts.

    Each table entry of :func:`_count_table` is formatted once; the rows
    are joined from the texts gathered into place.
    """
    texts, index = _count_table(counts)
    blocks = texts[index].tolist()
    trees = ["],[".join([",".join(row) for row in block]) for block in blocks]
    return "[[[" + "]],[[".join(trees) + "]]]"


def load_model(path) -> FittedMFRDE:
    """Load and validate a model written by :func:`save_model`.

    The file is strict UTF-8 JSON.  Its top-level ``"counts"`` value is cut
    out of the text and decoded with numpy; ``json.loads`` parses the rest,
    with ``null`` in its place.  That value must be a list of ``S`` lists of
    ``T`` lists of ``2**p`` counts, each count below ``2**31`` in plain
    digits with no sign, fraction, exponent or leading zero, with any JSON
    whitespace between
    tokens (never inside a count).  The key appears once in the document,
    at the top level.

    A file that does not hold such a model, from broken JSON to a count
    that is not an integer, raises ``ValueError("malformed model file: ...")``.
    So does one that breaks an invariant of :class:`FittedMFRDE`, such as a
    block whose count totals differ between trees.  An edit that keeps
    every invariant is not caught: a changed normalizer, box or seed loads
    without error, and only a content digest written at save time could
    tell it from the saved model.
    """
    try:
        with open(path, "rb") as fh:
            text, span = _cut_counts(fh.read())
        counts_keys = 0  # at any depth

        def pairs_to_dict(pairs: list) -> dict:
            nonlocal counts_keys
            counts_keys += sum(k == "counts" for k, _ in pairs)
            return dict(pairs)

        doc = json.loads(text, object_pairs_hook=pairs_to_dict)
        return _model_from_doc(doc, span if counts_keys == 1 else None)
    except KeyError as exc:
        raise ValueError(f"malformed model file: missing field {exc}") from None
    # ArithmeticError: a zero block size divides by zero in the plan.
    except (TypeError, AttributeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"malformed model file: {exc}") from None


_COUNTS_KEY = b'"counts"'
_KEY_COLON = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*")
_JSON_WS = b" \t\n\r"
_DIGITS = b"0123456789"
_SPLIT_NUMBER = re.compile(rb"[0-9][ \t\n\r]+[0-9]")
_BRACKETS_TO_SPACES = bytes.maketrans(b"[]", b"  ")
_COMMA, _OPEN, _CLOSE = b",[]"


def _cut_counts(raw: bytes) -> tuple[str, bytes | None]:
    """The document's text with its counts list replaced by ``null``, and the list.

    The list is the value after the first ``"counts"`` in the bytes; it
    runs from its ``[`` to the last ``]`` before the next quote, as a list
    of counts holds no quote.  When there is no such key, or its value is
    not a list, the whole text comes back with no list.
    """
    key = raw.find(_COUNTS_KEY)
    colon = _KEY_COLON.match(raw, key + len(_COUNTS_KEY)) if key >= 0 else None
    if colon is None or not raw.startswith(b"[", colon.end()):
        return raw.decode("utf-8"), None
    start = colon.end()
    stop = raw.find(b'"', start)
    end = raw.rfind(b"]", start, len(raw) if stop < 0 else stop) + 1
    # Both cuts sit at ASCII bytes, so each side decodes on its own.
    return raw[:start].decode("utf-8") + "null" + raw[end:].decode("utf-8"), raw[start:end]


def _decode_counts(span: bytes, s: int, t: int, leaves: int) -> np.ndarray:
    """The ``(T, 2**p, S)`` int32 storage of the counts list ``span``.

    ``span`` holds ``S`` lists of ``T`` lists of ``leaves`` counts in the
    grammar of :func:`load_model`.  With its whitespace and digits deleted,
    it must be that nesting's skeleton of brackets and commas, and each
    bracket and comma must border a count or a bracket where JSON puts one.
    ``np.fromstring`` then parses one count between each pair of commas;
    the digits of the values it parsed must add up to the digits in the
    text, which rules out leading zeros.
    """
    if span.translate(None, _DIGITS + b",[]"):
        # Only whitespace may remain, and never inside a count.
        if span.translate(None, _DIGITS + b",[]" + _JSON_WS) or _SPLIT_NUMBER.search(span):
            raise ValueError("counts must be non-negative JSON integers")
        span = span.translate(None, _JSON_WS)
    size = s * t * leaves
    # One bracket pair per list, a comma between neighbours, a digit or more per count.
    skeleton_len = s * (t * (leaves + 2) + 2) + 1
    shape_error = ValueError("count array shape does not match S, T and p")
    if s < 1 or len(span) < skeleton_len + size:
        raise shape_error
    row = b"[" + b"," * (leaves - 1) + b"]"
    block = b"[" + b",".join([row] * t) + b"]"
    if span.translate(None, _DIGITS) != b"[" + b",".join([block] * s) + b"]":
        raise shape_error
    codes = np.frombuffer(span, dtype=np.uint8)
    opens = np.flatnonzero(codes == _OPEN)
    closes = np.flatnonzero(codes == _CLOSE)
    commas = codes == _COMMA
    # A "[" follows "[" or "," and precedes "[" or a count; a "]" mirrors
    # that; no two commas meet.  The skeleton fixes the rest.
    if not (
        np.isin(codes[opens[1:] - 1], (_OPEN, _COMMA)).all()
        and not np.isin(codes[opens + 1], (_COMMA, _CLOSE)).any()
        and not (codes[closes - 1] == _COMMA).any()
        and np.isin(codes[closes[:-1] + 1], (_CLOSE, _COMMA)).all()
        and not (commas[1:] & commas[:-1]).any()
    ):
        raise shape_error
    values = np.fromstring(span.translate(_BRACKETS_TO_SPACES), dtype=np.int64, sep=",")
    if values.size != size:
        raise shape_error
    top = int(values.max())
    # np.fromstring clamps a count past int64; every count left has at
    # most 10 digits and was parsed exactly.
    if top > np.iinfo(np.int32).max:
        raise ValueError(f"a count is past the int32 maximum {np.iinfo(np.int32).max}")
    digits = size + sum(int(np.count_nonzero(values >= 10**k)) for k in range(1, len(str(top))))
    if digits != len(span) - skeleton_len:
        raise ValueError("a count has a leading zero")
    leaf_counts = np.empty((t, leaves, s), dtype=np.int32)
    leaf_counts.transpose(2, 0, 1)[...] = values.reshape(s, t, leaves)
    return leaf_counts


def _typed(value, name: str, kinds: tuple[type, ...] = (int,)):
    """``value``, whose exact type must be one of ``kinds``: JSON ``true`` is no int."""
    if type(value) not in kinds:
        kind = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{name} must be of type {kind}, not {value!r}")
    return value


def _box_of(value, name: str) -> Box:
    """The box of a JSON ``{"lo": [...], "hi": [...]}`` object of numbers."""
    if type(value) is not dict or not {"lo", "hi"} <= value.keys():
        raise ValueError(f"{name} must be an object with lo and hi lists")
    lo, hi = (tuple(_typed(v, f"{name} {k}", (int, float))
                    for v in _typed(value[k], f"{name} {k}", (list,)))
              for k in ("lo", "hi"))
    return Box(lo, hi)


def _model_from_doc(doc, counts_span: bytes | None) -> FittedMFRDE:
    """The model a v1 document describes; raises if it describes none.

    ``doc`` is the document as :func:`load_model` parsed it, with ``null``
    for its counts list, and ``counts_span`` that list's bytes: ``None``
    when the document does not hold exactly one ``"counts"`` list.
    """
    if not isinstance(doc, dict):
        raise ValueError("the document is not a JSON object")
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    box = _box_of(doc["box"], "box")
    p, t, m, s, n, dropped, rank, seed = (
        _typed(doc[k], k) for k in ("p", "T", "m", "S", "n", "dropped", "median_rank", "seed")
    )
    method = doc["quadrature"]["method"]
    if method == "auto":
        raise ValueError(f"unresolved quadrature method {method!r}")
    params = doc["quadrature"].get("params", {})
    _typed(params.get("cell_budget", _CELL_BUDGET), "cell_budget")  # checked, not kept
    # Fit's plan, on the header alone, before any label or count is read.
    plan = _plan(t, p, m, n, box.d, Quadrature(
        method=method,
        grid_points=_typed(params.get("points_per_axis", 100), "points_per_axis"),
        mc_draws=_typed(params.get("draws", 100_000), "draws"),
    ))
    # Both follow from the header's S, n and m.  A model needs S = n // m,
    # so a header with another S fails later, on its counts' shape or
    # sizes, as it always has.
    if s == plan.blocks:
        if rank != _median_rank(s):
            raise ValueError("median rank must be ceil(S/2)")
        if dropped != n - s * m:
            raise ValueError("dropped must be n - S*m")
    if not all(type(v) is int for row in doc["trees"] for v in row):
        raise ValueError("split labels must be integers")
    # A ragged list, or a label past int64, raises here.
    forest = Forest(box=box, labels=np.array(doc["trees"], dtype=np.int64))
    if (forest.n_trees, forest.depth) != (t, p):
        raise ValueError("split label array shape does not match T and p")
    if doc["counts"] is not None or counts_span is None:
        raise ValueError("counts must be one list of S lists of T lists of 2**p counts")
    counts = _decode_counts(counts_span, s, t, 2**p)
    return FittedMFRDE(
        seed=seed,
        forest=forest,
        n=n,
        m=m,
        leaf_counts=counts,
        quadrature=plan.quadrature,
        normalizer=float(_typed(doc["normalizer"], "normalizer", (int, float))),
    )
