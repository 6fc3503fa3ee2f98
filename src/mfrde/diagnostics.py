"""Structural diagnostics: local outliers, clean blocks, concentration.

A contaminating point matters for a query ``x`` only if it shares a leaf
cell with ``x`` in at least one tree; those are the local outliers of
``x``.  The concentration profile probes how fast the contamination's
mass fraction in a sub-box shrinks with the sub-box's volume fraction and
fits the scaling exponent, clipped to [0, 1] for reporting.

Everything here reads immutable inputs and is safe to parallelize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import _write_table
from .estimator import BlockAssignment
from .geometry import Box, Forest, leaf_indices

__all__ = [
    "ConcentrationProfile",
    "local_outliers",
    "clean_block_fraction",
    "concentration_profile",
]


def local_outliers(forest: Forest, x, outlier_points) -> np.ndarray:
    """Indices of outlier points sharing a leaf with ``x`` in any tree."""
    x = np.asarray(x, dtype=float)
    if not forest.box.contains(x):
        raise ValueError("point outside domain")
    pts = np.asarray(outlier_points, dtype=float)
    if pts.size == 0:
        return np.zeros(0, dtype=np.int64)
    pts = np.atleast_2d(pts)
    inside = np.flatnonzero(forest.box.contains_batch(pts))
    ids = leaf_indices(forest, pts[inside])
    return inside[(ids == leaf_indices(forest, x)).any(axis=1)]


def clean_block_fraction(assignment: BlockAssignment, outlier_indices) -> float:
    """Fraction of blocks whose index set avoids every outlier index."""
    out = np.asarray(outlier_indices, dtype=np.int64)
    if out.size == 0:
        return 1.0
    contaminated = np.isin(assignment.blocks, out).any(axis=1)
    return float(1.0 - contaminated.mean())


@dataclass(frozen=True)
class ConcentrationProfile:
    """Sampled (volume fraction, mass fraction) pairs and the fitted exponent.

    ``fitted_beta`` is the least-squares slope of log mass versus log
    volume along the per-volume-bin upper envelope of the samples, after
    discarding envelope points at or below the ``log(n)/n`` mass floor,
    then clipped to [0, 1].  ``slope`` keeps the unclipped value and
    ``fitted_cu`` exponentiates the intercept.
    """

    samples: np.ndarray  # (n_boxes, 2): volume fraction, mass fraction
    fitted_beta: float
    fitted_cu: float
    slope: float
    guard: float
    n_points: int

    def to_csv(self, path) -> None:
        _write_table(path, ["volume_fraction", "mass_fraction"], self.samples)


def concentration_profile(
    points,
    box: Box,
    n_boxes: int,
    rng: np.random.Generator,
    *,
    min_volume_fraction: float = 2.0**-24,
    envelope_bins: int = 24,
    fit_window_decades: float | None = 4.0,
) -> ConcentrationProfile:
    """Probe the mass-versus-volume scaling of a point set inside ``box``.

    Sub-boxes get log-uniform volume fractions in
    ``[min_volume_fraction, 1]`` and random axis-wise shapes; half are
    placed uniformly, half centered on a random data point so that the
    regions where the points actually concentrate are represented at
    every scale.  The exponent is fitted on the upper envelope (the
    largest observed mass per volume bin), which mirrors the worst-case
    character of the bound being probed.

    The exponent is a small-volume property, so the fit keeps only
    envelope points within ``fit_window_decades`` decades of the smallest
    volume that survives the mass floor; pass ``None`` to fit the whole
    envelope.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    if n_boxes < 10:
        raise ValueError("need at least 10 sub-boxes")
    samples = _sample_subboxes(pts, box, n_boxes, rng, min_volume_fraction)
    actual_vol, mass_frac = samples[:, 0], samples[:, 1]
    log_vmin = math.log(min_volume_fraction)

    guard = math.log(n) / n
    edges = np.linspace(log_vmin, 0.0, envelope_bins + 1)
    bin_of = np.clip(np.digitize(np.log(actual_vol), edges) - 1, 0, envelope_bins - 1)
    env_v: list[float] = []
    env_m: list[float] = []
    for b in range(envelope_bins):
        in_bin = np.flatnonzero(bin_of == b)
        if in_bin.size == 0:
            continue
        best = in_bin[np.argmax(mass_frac[in_bin])]
        if mass_frac[best] > guard:
            env_v.append(actual_vol[best])
            env_m.append(mass_frac[best])
    if len(env_v) < 2:
        raise ValueError(
            "degenerate concentration profile: fewer than 2 sub-boxes above "
            "the mass floor"
        )
    env_va = np.asarray(env_v)
    env_ma = np.asarray(env_m)
    if fit_window_decades is not None:
        keep = env_va <= env_va.min() * 10.0**fit_window_decades
        if keep.sum() >= 2:
            env_va, env_ma = env_va[keep], env_ma[keep]
    slope, intercept = np.polyfit(np.log(env_va), np.log(env_ma), 1)
    return ConcentrationProfile(
        samples=samples,
        fitted_beta=float(np.clip(slope, 0.0, 1.0)),
        fitted_cu=float(np.exp(intercept)),
        slope=float(slope),
        guard=guard,
        n_points=n,
    )


def _sample_subboxes(
    pts: np.ndarray,
    box: Box,
    n_boxes: int,
    rng: np.random.Generator,
    min_volume_fraction: float,
) -> np.ndarray:
    """Draw sub-boxes and return (volume fraction, mass fraction) rows.

    The mass denominator is the total point count, so a sub-box equal to
    the whole box has mass 1 exactly when every point lies inside.
    """
    if not 0 < min_volume_fraction <= 1:
        raise ValueError("min volume fraction must lie in (0, 1]")
    d = box.d
    if pts.shape[1] != d:
        raise ValueError("points do not match the box dimension")
    n = pts.shape[0]
    lo, hi = box.lo_array, box.hi_array
    ext = hi - lo

    vol_frac = np.exp(rng.uniform(math.log(min_volume_fraction), 0.0, size=n_boxes))
    weights = rng.dirichlet(np.ones(d), size=n_boxes)
    side_frac = vol_frac[:, None] ** weights
    centered = rng.random(n_boxes) < 0.5
    anchor_idx = rng.integers(n, size=n_boxes)
    unif = rng.random((n_boxes, d))

    # Box offsets in fraction-of-extent coordinates.
    off = unif * (1.0 - side_frac)
    pt_frac = (pts[anchor_idx] - lo) / ext
    off_centered = np.clip(pt_frac - side_frac / 2.0, 0.0, 1.0 - side_frac)
    off[centered] = off_centered[centered]

    sub_lo = lo + off * ext
    sub_hi = sub_lo + side_frac * ext
    inside = (pts[None, :, :] >= sub_lo[:, None, :]) & (
        pts[None, :, :] <= sub_hi[:, None, :]
    )
    mass_frac = inside.all(axis=2).sum(axis=1) / n
    return np.column_stack([side_frac.prod(axis=1), mass_frac])
