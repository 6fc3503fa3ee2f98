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
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .datasets import Dataset, _write_atomic
from .geometry import Box, Forest, build_forest, leaf_indices

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
# this many int32 sums: 256 KB, so the sums and their row buffer fit in L2.
_WALK_POINTS = _QUAD_CHUNK
_GATHER_ELEMS = 1 << 16
# Most quadrature nodes ``auto`` and ``exact-dyadic`` may use.
_CELL_BUDGET = 1 << 24


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
    to floating-point summation; it refuses to run past ``_CELL_BUDGET``
    (``2**24``) cells.  ``regular-grid`` averages over an inclusive-endpoint
    lattice with ``grid_points`` nodes per axis.  ``monte-carlo`` averages
    over ``mc_draws`` uniform draws.  ``auto`` stays within ``_CELL_BUDGET``
    nodes: it picks exact-dyadic when the ``2**(p*d)`` cells fit, else the
    regular grid with the largest ``G <= grid_points`` such that ``G**d``
    fits, and raises ``ValueError`` when not even ``G = 2`` fits.
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
        if name in ("grid", "regular-grid"):
            return cls(method="regular-grid", grid_points=int(arg) if arg else 100)
        if name in ("mc", "monte-carlo"):
            return cls(method="monte-carlo", mc_draws=int(arg) if arg else 100_000)
        raise ValueError(f"cannot parse quadrature spec {text!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Fit-time choices: block size, forest shape, seed, domain, quadrature.

    ``m`` is the block size; :func:`fit` raises ``ValueError`` when it
    exceeds the sample size.  ``box=None`` means the tight bounding box of
    the data expanded by ``box_margin`` relative to its extent.
    """

    m: int
    trees: int = 20
    depth: int = 6
    seed: int = 0
    quadrature: Quadrature = field(default_factory=Quadrature)
    box: Box | None = None
    box_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("block size must be at least 1")
        if self.trees < 1:
            raise ValueError("tree count must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.box_margin < 0:
            raise ValueError("box margin must be non-negative")


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


@dataclass(frozen=True, eq=False)
class FittedMFRDE:
    """Fitted model: shared forest, per-block leaf counts, normalizer.

    ``leaf_counts`` holds the ``(T, 2**p, S)`` non-negative integer counts;
    a block's counts sum to the same total, at most ``m``, in every tree.
    An array that already is C-contiguous int32 is kept, not copied, and
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
        # Each count is checked first, so the int64 (T, S) totals cannot wrap.
        if counts.max() > self.m or (totals := counts.sum(axis=1, dtype=np.int64)).max() > self.m:
            raise ValueError("a block holds more points than its size")
        # Each counted point lies in one leaf of every tree.
        if (totals != totals[0]).any():
            raise ValueError("a block's count total differs between trees")
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
        if cells <= _CELL_BUDGET:
            return replace(quad, method="exact-dyadic")
        # Largest G <= grid_points with G**d within budget, in integers.
        g = min(quad.grid_points, round(_CELL_BUDGET ** (1 / d)) + 1)
        while g >= 2 and g**d > _CELL_BUDGET:
            g -= 1
        if g < 2:
            raise ValueError(
                f"auto quadrature: neither 2**(p*d) = {cells} dyadic cells nor a "
                f"2**d = {2**d}-node grid fits the budget of {_CELL_BUDGET} "
                "nodes; use monte-carlo"
            )
        return replace(quad, method="regular-grid", grid_points=g)
    if quad.method == "exact-dyadic" and cells > _CELL_BUDGET:
        raise ValueError(
            f"exact-dyadic quadrature needs 2**(p*d) = {cells} cells, over the "
            f"budget of {_CELL_BUDGET}; use regular-grid or monte-carlo"
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
    n, m = pts.shape[0], config.m
    _check_count_range(config.trees, m)
    forest_stream, perm_stream, _ = _fit_streams(config.seed)
    blocks = assign_blocks(n, m, np.random.default_rng(perm_stream))
    box = config.box if config.box is not None else Box.bounding(pts, config.box_margin)
    if pts.shape[1] != box.d:
        raise ValueError("data dimension does not match the box")
    forest = build_forest(box, config.depth, config.trees, forest_stream)

    # One bincount per tree over leaf-offset block ids fills the
    # leaf-major (T, 2**p, S) storage directly.
    s = blocks.shape[0]
    leaves = 2**config.depth
    block_of = np.full(n, -1, dtype=np.int64)
    block_of[blocks.ravel()] = np.repeat(np.arange(s), m)
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
        dropped=n - s * m,
        leaf_counts=leaf_counts,
        normalizer=z,
        quadrature=quad,
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
        "counts": model.counts.tolist(),
        "normalizer": model.normalizer,
        "quadrature": {"method": model.quadrature.method, "params": quad_params},
    }
    # One-shot encoding runs json's C encoder; json.dump to a file handle
    # always takes the pure-Python one.  Both give the same text.
    _write_atomic(path, json.dumps(doc, separators=(",", ":")) + "\n")


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
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
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
    if not all(type(v) is int for row in doc["trees"] for v in row):
        raise ValueError("split labels must be integers")
    # A ragged list, or a label past int64, raises here.  T and p are
    # checked on the labels' shape, so 2**p is never built from a wild p.
    forest = Forest(box=box, labels=np.array(doc["trees"], dtype=np.int64))
    if (forest.n_trees, forest.depth) != (t, p):
        raise ValueError("split label array shape does not match T and p")
    if doc["counts"] is not None or counts_span is None:
        raise ValueError("counts must be one list of S lists of T lists of 2**p counts")
    counts = _decode_counts(counts_span, s, t, 2**p)
    method = doc["quadrature"]["method"]
    if method == "auto":
        raise ValueError(f"unresolved quadrature method {method!r}")
    params = doc["quadrature"].get("params", {})
    _typed(params.get("cell_budget", _CELL_BUDGET), "cell_budget")  # checked, not kept
    quad = Quadrature(
        method=method,
        grid_points=_typed(params.get("points_per_axis", 100), "points_per_axis"),
        mc_draws=_typed(params.get("draws", 100_000), "draws"),
    )
    model = FittedMFRDE(
        seed=seed,
        forest=forest,
        n=n,
        m=m,
        dropped=dropped,
        leaf_counts=counts,
        normalizer=float(_typed(doc["normalizer"], "normalizer", (int, float))),
        quadrature=quad,
    )
    if rank != model.median_rank:
        raise ValueError("median rank must be ceil(S/2)")
    return model
