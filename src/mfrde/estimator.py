"""Median-of-forests density estimation.

Fitting splits the sample into disjoint equal-size blocks via a uniform
permutation, counts each block's points in the leaves of one shared
random forest, and normalizes the pointwise lower median of the per-block
forest densities so it integrates to one over the box.

For a block of size ``m`` and a depth-``p`` tree, the tree density at
``x`` is ``count_in_leaf / (m * box.volume * 2**-p)``; the block (forest)
density averages that over the trees; the aggregate takes the k-th
smallest block value with ``k = ceil(S / 2)``, the lower median.

One kernel serves the normalizer and every query: it sums each block's
integer leaf counts over the trees (exact in int32), selects the k-th
smallest of those integer sums, and divides only that winner, once by
``m`` times the leaf volume and once by the tree count.  Dividing by a
positive constant with round-to-nearest is monotone non-decreasing, and
so is the composition of two such divisions, so the k-th smallest
quotient is the quotient of the k-th smallest sum: the result is the
same float as the k-th smallest of the divided block densities.  The
float expression does not depend on the batch or its chunking, so scalar
and batched queries are bit-identical.

Leaf counts have one layout, ``FittedMFRDE.leaf_counts``: a C-contiguous
int32 array of shape ``(T, 2**p, S)``, so a query's lookup in one tree
reads one contiguous row of ``S`` block counts.  ``FittedMFRDE.counts``
is only a read-only ``(S, T, 2**p)`` view of it, which indexes block by
block and serializes to the model file's nested lists.  Every count is at
most ``m``, so int32 sums over the trees are exact while ``T * m < 2**31``.

Fitted models are immutable; evaluation is safe for concurrent readers.
Fitting itself is deterministic given the config seed: trees, the block
permutation and any Monte Carlo quadrature draws come from separate
spawned substreams.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .datasets import Dataset
from .geometry import Box, Forest, SplitTree, build_forest, leaf_indices

__all__ = [
    "Quadrature",
    "EstimatorConfig",
    "BlockAssignment",
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
# this many int32 sums: 256 KB, so the sums and their row buffer fit in L2.
_WALK_POINTS = _QUAD_CHUNK
_GATHER_ELEMS = 1 << 16


def _check_count_range(trees: int, m: int) -> None:
    """Sums of ``trees`` counts of at most ``m`` each must fit in int32."""
    if trees * m >= 2**31:
        raise ValueError(
            f"trees * m = {trees * m} must stay below 2**31 for int32 leaf counts"
        )


@dataclass(frozen=True)
class Quadrature:
    """How to integrate the unnormalized median over the box.

    ``exact-dyadic`` sums the median at the centers of the ``2**(p*d)``
    dyadic cells on which it is piecewise constant, an exact integral up
    to floating-point summation; it refuses to run past ``cell_budget``
    cells.  ``regular-grid`` averages over an inclusive-endpoint lattice
    with ``grid_points`` nodes per axis.  ``monte-carlo`` averages over
    ``mc_draws`` uniform draws.  ``auto`` stays within ``cell_budget``
    nodes: it picks exact-dyadic when the ``2**(p*d)`` cells fit, else the
    regular grid with the largest ``G <= grid_points`` such that ``G**d``
    fits, and raises ``ValueError`` when not even ``G = 2`` fits.
    """

    method: str = "auto"
    grid_points: int = 100
    mc_draws: int = 100_000
    cell_budget: int = 1 << 24

    def __post_init__(self) -> None:
        if self.method not in ("auto", "exact-dyadic", "regular-grid", "monte-carlo"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        if self.grid_points < 2:
            raise ValueError("regular grid needs at least 2 points per axis")
        if self.mc_draws < 1:
            raise ValueError("monte-carlo needs at least 1 draw")
        if self.cell_budget < 1:
            raise ValueError("cell budget must be positive")

    @classmethod
    def parse(cls, text: str) -> "Quadrature":
        """Parse a compact spec: ``auto``, ``exact``, ``grid[:G]`` or ``mc[:N]``."""
        name, _, arg = text.partition(":")
        if name == "auto":
            return cls()
        if name in ("exact", "exact-dyadic"):
            return cls(method="exact-dyadic")
        if name in ("grid", "regular-grid"):
            return cls(method="regular-grid", grid_points=int(arg) if arg else 100)
        if name in ("mc", "monte-carlo"):
            return cls(method="monte-carlo", mc_draws=int(arg) if arg else 100_000)
        raise ValueError(f"cannot parse quadrature spec {text!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Fit-time choices: block size, forest shape, seed, domain, quadrature.

    Exactly one of ``m`` (absolute block size) and ``m_ratio`` (fraction
    of the sample) must be set.  ``box=None`` means the tight bounding
    box of the data expanded by ``box_margin`` relative to its extent.
    """

    m: int | None = None
    m_ratio: float | None = None
    trees: int = 20
    depth: int = 6
    seed: int = 0
    quadrature: Quadrature = field(default_factory=Quadrature)
    box: Box | None = None
    box_margin: float = 0.0

    def __post_init__(self) -> None:
        if (self.m is None) == (self.m_ratio is None):
            raise ValueError("set exactly one of m and m_ratio")
        if self.m is not None and self.m < 1:
            raise ValueError("block size must be at least 1")
        if self.m_ratio is not None and self.m_ratio <= 0:
            raise ValueError("block-size ratio must be positive")
        if self.trees < 1:
            raise ValueError("tree count must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.box_margin < 0:
            raise ValueError("box margin must be non-negative")

    def resolve_m(self, n: int) -> int:
        m = self.m if self.m is not None else int(round(self.m_ratio * n))
        if m < 1:
            raise ValueError("block size must be at least 1")
        if m > n:
            raise ValueError("block size exceeds sample size")
        return m


@dataclass(frozen=True)
class BlockAssignment:
    """Disjoint equal-size index blocks cut from a uniform permutation."""

    n: int
    m: int
    blocks: np.ndarray
    dropped: np.ndarray

    def __post_init__(self) -> None:
        blocks = np.asarray(self.blocks, dtype=np.int64)
        dropped = np.asarray(self.dropped, dtype=np.int64)
        blocks.setflags(write=False)
        dropped.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "dropped", dropped)

    @property
    def n_blocks(self) -> int:
        return int(self.blocks.shape[0])


def assign_blocks(n: int, m: int, rng: np.random.Generator) -> BlockAssignment:
    """Permute ``{0..n-1}`` and cut the head into ``floor(n/m)`` blocks of ``m``.

    The ``n mod m`` tail of the permutation is dropped and reported.
    """
    if m < 1:
        raise ValueError("block size must be at least 1")
    if m > n:
        raise ValueError("block size exceeds sample size")
    perm = rng.permutation(n)
    s = n // m
    return BlockAssignment(
        n=n, m=m, blocks=perm[: s * m].reshape(s, m), dropped=perm[s * m :]
    )


@dataclass(frozen=True, eq=False)
class FittedMFRDE:
    """Fitted model: shared forest, per-block leaf counts, normalizer.

    ``leaf_counts`` holds the ``(T, 2**p, S)`` non-negative integer counts;
    an array that already is C-contiguous int32 is kept, not copied, and
    made read-only.  ``n`` is ``S * m + dropped``, with ``0 <= dropped < m``.
    ``seed`` is the fit's seed, which Monte Carlo quadrature draws from.
    """

    seed: int
    forest: Forest
    n: int
    m: int
    dropped: int
    leaf_counts: np.ndarray
    normalizer: float
    quadrature: Quadrature  # resolved method actually used for the normalizer

    def __post_init__(self) -> None:
        counts = np.asarray(self.leaf_counts)
        t, leaves, s = counts.shape
        if t != self.forest.n_trees or leaves != 2**self.forest.depth:
            raise ValueError("count array shape does not match the forest")
        if counts.dtype.kind != "i":
            raise ValueError(f"leaf counts must be signed integers, not {counts.dtype}")
        if s < 1 or not 0 <= self.dropped < self.m or self.n != s * self.m + self.dropped:
            raise ValueError(
                f"sizes do not add up: S={s}, m={self.m}, n={self.n}, dropped="
                f"{self.dropped}; need S >= 1 and n = S*m + dropped, 0 <= dropped < m"
            )
        _check_count_range(t, self.m)
        if counts.min() < 0:
            raise ValueError("leaf counts must be non-negative")
        # Each count is checked first, so the int64 block sums cannot wrap.
        if counts.max() > self.m or counts.sum(axis=1, dtype=np.int64).max() > self.m:
            raise ValueError("a block holds more points than its size")
        if not (self.normalizer > 0 and math.isfinite(self.normalizer)):
            raise ValueError("normalizer must be finite and strictly positive")
        leaf_counts = np.ascontiguousarray(counts, dtype=np.int32)
        leaf_counts.setflags(write=False)
        object.__setattr__(self, "leaf_counts", leaf_counts)

    @property
    def counts(self) -> np.ndarray:
        """The ``(S, T, 2**p)`` block-major view of ``leaf_counts``."""
        return self.leaf_counts.transpose(2, 0, 1)

    @property
    def median_rank(self) -> int:
        """``ceil(S / 2)``: the lower median is the k-th smallest block value."""
        return (self.n_blocks + 1) // 2

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


def _tree_sums(leaf_major: np.ndarray, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Exact int32 sums over the trees of each point's leaf row.

    ``leaf_major`` is the ``(T, 2**p, S)`` storage and ``ids`` the
    ``(n, T)`` leaf ids; fills and returns ``out``, shape ``(n, S)``.  Each
    per-tree gather reads contiguous ``S``-rows.
    """
    rows = np.empty_like(out)
    # Leaf ids are in range by construction; "wrap" skips the bounds check.
    leaf_major[0].take(ids[:, 0], axis=0, out=out, mode="wrap")
    for t in range(1, leaf_major.shape[0]):
        leaf_major[t].take(ids[:, t], axis=0, out=rows, mode="wrap")
        out += rows
    return out


def _density_denom(forest: Forest, m: int) -> float:
    """``m`` times the leaf volume: a tree sum over it, then over T, is a density."""
    return m * (forest.box.volume * 2.0**-forest.depth)


def _median_values(
    forest: Forest, leaf_major: np.ndarray, m: int, rank: int, points: np.ndarray
) -> np.ndarray:
    """Lower median (k-th smallest, k=rank) of the block densities.

    ``leaf_major`` is the ``(T, 2**p, S)`` count storage.  Selects on
    the exact integer tree sums and divides only the k-th sum, once by
    ``m`` times the leaf volume and once by the tree count.  That division
    is monotone non-decreasing, so it commutes with the order statistic
    and the result equals the k-th smallest of the divided densities, bit
    for bit.  The leaves are walked ``_WALK_POINTS`` points at a time and
    summed in sub-chunks of about ``_GATHER_ELEMS`` sums, so the sums and
    their row buffer stay cache-sized whatever the batch and block count.
    """
    s = leaf_major.shape[2]
    denom = _density_denom(forest, m)
    sub = max(256, _GATHER_ELEMS // max(s, 1))
    out = np.empty(points.shape[0])
    for start in range(0, points.shape[0], _WALK_POINTS):
        ids = leaf_indices(forest, points=points[start : start + _WALK_POINTS])
        sums = np.empty((min(sub, ids.shape[0]), s), dtype=np.int32)
        for lo in range(0, ids.shape[0], sub):
            part = _tree_sums(leaf_major, ids[lo : lo + sub], sums[: ids.shape[0] - lo])
            part.partition(rank - 1, axis=1)
            kth = part[:, rank - 1]
            out[start + lo : start + lo + kth.size] = kth / denom / forest.n_trees
    return out


def evaluate(model: FittedMFRDE, x) -> float:
    """Normalized density at one point; zero outside the box."""
    x = np.asarray(x, dtype=float)
    return float(evaluate_batch(model, x[None, :])[0])


def evaluate_batch(model: FittedMFRDE, points) -> np.ndarray:
    """Normalized density at each point, preserving input order.

    A point outside the box, an infinite coordinate included, gets 0; a
    row holding NaN raises ``ValueError``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != model.box.d:
        raise ValueError(f"expected points of dimension {model.box.d}")
    mask = model.box.contains_batch(pts)
    if not mask.all():
        # NaN fails every comparison, so NaN rows are among the out-of-box ones.
        nan_rows = int(np.count_nonzero(np.isnan(pts[~mask]).any(axis=1)))
        if nan_rows:
            raise ValueError(f"{nan_rows} query row(s) hold NaN; no density is defined there")
    out = np.zeros(pts.shape[0])
    med = _median_values(
        model.forest, model.leaf_counts, model.m, model.median_rank, pts[mask]
    )
    out[mask] = med / model.normalizer
    return out


def _resolve_quadrature(quad: Quadrature, p: int, d: int) -> Quadrature:
    cells = 2 ** (p * d)
    if quad.method == "auto":
        if cells <= quad.cell_budget:
            return replace(quad, method="exact-dyadic")
        # Largest G <= grid_points with G**d within budget, in integers.
        g = min(quad.grid_points, round(quad.cell_budget ** (1 / d)) + 1)
        while g >= 2 and g**d > quad.cell_budget:
            g -= 1
        if g < 2:
            raise ValueError(
                f"auto quadrature: neither 2**(p*d) = {cells} dyadic cells nor a "
                f"2**d = {2**d}-node grid fits the budget of {quad.cell_budget} "
                "nodes; raise cell_budget or use monte-carlo"
            )
        return replace(quad, method="regular-grid", grid_points=g)
    if quad.method == "exact-dyadic" and cells > quad.cell_budget:
        raise ValueError(
            f"exact-dyadic quadrature needs 2**(p*d) = {cells} cells, over the "
            f"budget of {quad.cell_budget}; use regular-grid or monte-carlo"
        )
    return quad


def _lattice(axes: list[np.ndarray]) -> Iterator[np.ndarray]:
    """C-order product of per-axis node arrays, ``_QUAD_CHUNK`` points at a time."""
    shape = tuple(a.size for a in axes)
    total = math.prod(shape)
    for start in range(0, total, _QUAD_CHUNK):
        multi = np.unravel_index(np.arange(start, min(start + _QUAD_CHUNK, total)), shape)
        yield np.column_stack([a[i] for a, i in zip(axes, multi)])


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
        chunks = _lattice([lo[j] + (hi[j] - lo[j]) * centres for j in range(d)])
    elif quad.method == "regular-grid":
        total = quad.grid_points**d
        chunks = _lattice([np.linspace(lo[j], hi[j], quad.grid_points) for j in range(d)])
    elif quad.method == "monte-carlo":
        rng = np.random.default_rng(_fit_streams(seed)[2])
        total = quad.mc_draws
        chunks = (
            lo + (hi - lo) * rng.random((min(_QUAD_CHUNK, total - start), d))
            for start in range(0, total, _QUAD_CHUNK)
        )
    else:
        raise ValueError(f"unresolved quadrature method {quad.method!r}")
    partials = [float(np.sum(values(pts))) for pts in chunks]
    return box.volume / total * math.fsum(partials)


def _compute_normalizer(
    forest: Forest,
    leaf_counts: np.ndarray,
    m: int,
    rank: int,
    quad: Quadrature,
    seed: int,
) -> float:
    z = _integrate(
        forest.box, forest.depth, quad, seed,
        lambda pts: _median_values(forest, leaf_counts, m, rank, pts),
    )
    if not z > 0:
        raise ValueError(
            "degenerate model: median density vanishes everywhere "
            "(all data outside the box, or every block count zero)"
        )
    return z


def integrate_estimate(model: FittedMFRDE) -> float:
    """Integrate the normalized density with the model's own quadrature.

    Returns a value near 1; the gap is pure floating-point summation
    error for the deterministic methods.
    """
    return _integrate(
        model.box, model.depth, model.quadrature, model.seed,
        lambda pts: evaluate_batch(model, pts),
    )


def fit(data, config: EstimatorConfig) -> FittedMFRDE:
    """Fit the median-of-forests estimator.

    ``data`` is a :class:`~mfrde.datasets.Dataset` or an ``(n, d)`` array
    of finite values; a row holding NaN or an infinity raises
    ``ValueError``.  Points outside the box are excluded from the leaf
    counts (each block still divides by its nominal size ``m``); their
    number per block is visible as ``m - leaf_counts[t, :, s].sum()``.
    """
    pts = data.points if isinstance(data, Dataset) else np.atleast_2d(
        np.asarray(data, dtype=float)
    )
    bad_rows = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
    if bad_rows:
        raise ValueError(
            f"{bad_rows} data row(s) hold NaN or infinite values; "
            "drop or repair them before fitting"
        )
    n = pts.shape[0]
    m = config.resolve_m(n)
    _check_count_range(config.trees, m)
    box = config.box if config.box is not None else Box.bounding(pts, config.box_margin)
    if pts.shape[1] != box.d:
        raise ValueError("data dimension does not match the box")

    forest_stream, perm_stream, _ = _fit_streams(config.seed)
    forest = build_forest(box, config.depth, config.trees, forest_stream)
    assignment = assign_blocks(n, m, np.random.default_rng(perm_stream))

    # One bincount per tree over leaf-offset block ids fills the
    # leaf-major (T, 2**p, S) storage directly.
    s = assignment.n_blocks
    leaves = 2**config.depth
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[assignment.blocks.ravel()] = np.repeat(np.arange(s), m)
    keep = box.contains_batch(pts) & (block_of >= 0)
    kept_block = block_of[keep]
    ids = leaf_indices(forest, points=pts[keep])
    leaf_counts = np.empty((config.trees, leaves, s), dtype=np.int32)
    for t in range(config.trees):
        leaf_counts[t] = np.bincount(
            ids[:, t] * np.int64(s) + kept_block, minlength=leaves * s
        ).reshape(leaves, s)

    quad = _resolve_quadrature(config.quadrature, config.depth, box.d)
    z = _compute_normalizer(forest, leaf_counts, m, (s + 1) // 2, quad, config.seed)
    return FittedMFRDE(
        seed=config.seed,
        forest=forest,
        n=n,
        m=m,
        dropped=int(assignment.dropped.size),
        leaf_counts=leaf_counts,
        normalizer=z,
        quadrature=quad,
    )


def save_model(model: FittedMFRDE, path) -> None:
    """Write the model as a single JSON document.

    The document goes to a fresh file in the target's directory, which
    then replaces ``path`` in one rename: a failed write leaves any
    earlier file at ``path`` as it was, and readers never see half a file.
    """
    quad_params: dict = {}
    if model.quadrature.method == "exact-dyadic":
        quad_params["cell_budget"] = model.quadrature.cell_budget
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
        "trees": [tree.node_dims.tolist() for tree in model.forest.trees],
        "counts": model.counts.tolist(),
        "normalizer": model.normalizer,
        "quadrature": {"method": model.quadrature.method, "params": quad_params},
    }
    # One-shot encoding runs json's C encoder; json.dump to a file handle
    # always takes the pure-Python one.  Both give the same text.
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path) -> FittedMFRDE:
    """Load and validate a model written by :func:`save_model`.

    A file that does not hold such a model, from broken JSON to a count
    that is not an integer, raises ``ValueError("malformed model file: ...")``.
    """
    try:
        with open(path) as fh:
            return _model_from_doc(json.load(fh))
    except KeyError as exc:
        raise ValueError(f"malformed model file: missing field {exc}") from None
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model file: {exc}") from None


def _typed(value, name: str, kinds: tuple[type, ...] = (int,)):
    """``value``, whose exact type must be one of ``kinds``: JSON ``true`` is no int."""
    if type(value) not in kinds:
        kind = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{name} must be of type {kind}, not {value!r}")
    return value


def _model_from_doc(doc) -> FittedMFRDE:
    """The model a decoded v1 document describes; raises if it describes none."""
    if not isinstance(doc, dict):
        raise ValueError("the document is not a JSON object")
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    lo, hi = (tuple(_typed(v, f"box {k}", (int, float)) for v in doc["box"][k])
              for k in ("lo", "hi"))
    box = Box(lo, hi)
    p, t, m, s, n, dropped, rank, seed = (
        _typed(doc[k], k) for k in ("p", "T", "m", "S", "n", "dropped", "median_rank", "seed")
    )
    if not all(type(v) is int for dims in doc["trees"] for v in dims):
        raise ValueError("split labels must be integers")
    trees = tuple(SplitTree(depth=p, node_dims=dims) for dims in doc["trees"])
    if len(trees) != t:
        raise ValueError("tree count does not match the declared T")
    forest = Forest(box=box, trees=trees)
    # No dtype: a float count, or one past int64, decodes to a float or
    # object array, which FittedMFRDE rejects instead of truncating.
    counts = np.asarray(doc["counts"])
    if counts.shape != (s, t, 2**p):
        raise ValueError("count array shape does not match S, T and p")
    method = doc["quadrature"]["method"]
    if method == "auto":
        raise ValueError(f"unresolved quadrature method {method!r}")
    params = doc["quadrature"].get("params", {})
    quad = Quadrature(
        method=method,
        grid_points=_typed(params.get("points_per_axis", 100), "points_per_axis"),
        mc_draws=_typed(params.get("draws", 100_000), "draws"),
        cell_budget=_typed(params.get("cell_budget", Quadrature().cell_budget), "cell_budget"),
    )
    model = FittedMFRDE(
        seed=seed,
        forest=forest,
        n=n,
        m=m,
        dropped=dropped,
        leaf_counts=counts.transpose(1, 2, 0),
        normalizer=float(_typed(doc["normalizer"], "normalizer", (int, float))),
        quadrature=quad,
    )
    if rank != model.median_rank:
        raise ValueError("median rank must be ceil(S/2)")
    return model
