"""Synthetic contaminated samples and CSV I/O.

:func:`generate` draws the two-dimensional synthetic family.  The first
coordinate of an inlier is exponential with mean 2 (untruncated, so a
small fraction of samples falls outside the default estimation domain),
the second is uniform on [0, 5].  ``_outliers`` draws the three
contamination schemes, in decreasing spread:

- ``uniform``: i.i.d. uniform over the box;
- ``beta``: per-axis i.i.d. draws with density (1/10) (1 - x/5)^(-1/2) on
  [0, 5), an inverse square-root peak at the upper edge, sampled by the
  exact inverse CDF ``x = 5 (1 - (1 - u)^2)``;
- ``discrete``: a Markov chain with uniform transitions over
  ``_N_STATES`` states drawn once, uniformly over ``_STATE_BOX`` (the
  upper half of the domain, whatever the box).  Each point is one chain
  state, so at most ``_N_STATES`` distinct values appear.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import uuid
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, _as_real, _check_seed

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
    """``(n, d)`` real points, any other shape or a complex dtype raising, with
    optional labels (1 marks an outlier)."""

    points: np.ndarray
    labels: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = _as_real(self.points)
        if self.points.ndim != 2:
            raise ValueError(f"expected (n, d) points, got shape {self.points.shape}")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (self.points.shape[0],):
                raise ValueError("label array length must match the point count")
            # The int64 cast truncates floats (0.7 to 0; NaN to anything) and
            # objects, so those must equal 0 or 1 before it; integers pay nothing.
            if labels.dtype.kind in "fcO" and not (
                (labels == INLIER) | (labels == OUTLIER)
            ).all():
                raise ValueError("labels must be 0 (inlier) or 1 (outlier)")
            self.labels = labels.astype(np.int64, copy=False)
            # INLIER and OUTLIER are 0 and 1, so two reductions test every label.
            if self.labels.size and (
                self.labels.min() < INLIER or self.labels.max() > OUTLIER
            ):
                raise ValueError("labels must be 0 (inlier) or 1 (outlier)")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


_N_STATES = 30
_STATE_BOX = Box((0.0, 2.5), (5.0, 5.0))
_SCHEME_NAMES = ("uniform", "beta", "discrete")


def _outliers(scheme: str, k: int, box: Box, rng: np.random.Generator) -> np.ndarray:
    """``k`` outliers under one of ``_SCHEME_NAMES``; see the module docstring."""
    if scheme == "uniform":
        return box.lo_array + rng.random((k, box.d)) * (box.hi_array - box.lo_array)
    if scheme == "beta":
        return 5.0 * (1.0 - (1.0 - rng.random((k, box.d))) ** 2)
    states = _outliers("uniform", _N_STATES, _STATE_BOX, rng)
    first = rng.integers(_N_STATES)
    # Each step is one double through the normalized cumulative row, as
    # ``rng.choice(_N_STATES, p=row)`` draws it; every row is uniform, so no
    # step depends on the state.  A step is drawn after the last point too
    # (``k`` draws, ``k - 1`` used), which keeps each seed's dataset fixed.
    cdf = np.full(_N_STATES, 1.0 / _N_STATES).cumsum()
    cdf /= cdf[-1]
    steps = cdf.searchsorted(rng.random(k), side="right")
    return states[np.concatenate(([first], steps))[:k]]


def generate(
    scheme_name: str,
    n: int,
    outlier_ratio: float,
    seed: int,
    box: Box = DOMAIN,
) -> Dataset:
    """Contaminated sample of total size ``n`` with the given outlier share.

    Inliers, outliers and the shuffle draw from three substreams spawned
    from ``seed``, so a dataset is a pure function of the arguments, all of
    which its provenance records.  The family is two-dimensional, so a box
    of another dimension raises ``ValueError`` before anything is drawn, as
    does a negative seed.
    """
    if n < 0:
        raise ValueError("sample count must be non-negative")
    _check_seed(seed)
    if box.d != 2:
        raise ValueError(f"the synthetic family is two-dimensional, got a {box.d}-D box")
    if not 0.0 <= outlier_ratio < 1.0:
        raise ValueError("outlier ratio must lie in [0, 1)")
    # 0 <= round(n * ratio) <= n, so neither side's count is negative.
    k_out = int(round(n * outlier_ratio))
    if scheme_name not in _SCHEME_NAMES:
        raise ValueError(
            f"unknown outlier scheme {scheme_name!r}; choose from {_SCHEME_NAMES}"
        )
    rng_in, rng_out, rng_mix = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    n_in = n - k_out
    inliers = np.column_stack(
        [rng_in.exponential(scale=2.0, size=n_in), rng_in.uniform(0.0, 5.0, size=n_in)]
    )
    outliers = _outliers(scheme_name, k_out, box, rng_out)
    points = np.concatenate([inliers, outliers])
    labels = np.repeat([INLIER, OUTLIER], [n_in, k_out])
    perm = rng_mix.permutation(n)
    provenance = {"scheme": scheme_name, "seed": int(seed), "n": int(n),
                  "outlier_ratio": float(outlier_ratio),
                  "n_inliers": int(n_in), "n_outliers": k_out,
                  "box": {"lo": list(box.lo), "hi": list(box.hi)}}
    return Dataset(points=points[perm], labels=labels[perm], provenance=provenance)


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


def _write_atomic(path, text: str) -> None:
    """Write ``text`` as it is to a fresh file that then replaces ``path``.

    The temporary file sits in the target's directory and replaces ``path``
    in one rename: a failed write leaves any earlier file at ``path`` as it
    was, and readers never see half a file.
    """
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_table(path, header: list[str], values, labels=None) -> None:
    """CSV of float columns as ``%.17g`` plus an optional ``%d`` column.

    Writes the same bytes as ``csv.writer`` (CRLF line ends) for headers
    that need no quoting.  The body is the ``"".join`` of every cell's
    piece, each ending in its separator, ``,`` or ``\r\n``.  A column in
    which at most two thirds of the rows are distinct, such as a density,
    which is piecewise constant, a grid axis or the labels, has each
    distinct value formatted once and gathered into its rows as finished
    text, which holds no ``%``.  Float values are distinct by bit pattern,
    so ``-0.0`` and ``0.0``, and NaNs of either sign, stay apart.  Two
    thirds is where the two ways cost the same on 17-digit values; on
    short ones such as small integers they cross nearer one half.  Every
    other cell's piece is its ``%.17g`` or ``%d`` conversion, and one
    ``%`` of the joined body fills them in, when there are any.
    """
    values = np.asarray(values, dtype=float)
    columns = [(col.view(np.int64), "%.17g", np.float64) for col in values.T]
    if labels is not None:
        columns.append((np.asarray(labels, dtype=np.int64), "%d", np.int64))
    rows, width = values.shape[0], len(columns)
    pieces, args = [None] * (rows * width), []
    for j, (keys, fmt, dtype) in enumerate(columns):
        fmt += "\r\n" if j == width - 1 else ","
        distinct, inverse = np.unique(keys, return_inverse=True)
        if 3 * distinct.size <= 2 * rows:
            text = np.array([fmt % v for v in distinct.view(dtype).tolist()], dtype=object)
            pieces[j::width] = text[inverse].tolist()
        else:
            pieces[j::width] = [fmt] * rows
            args.append(keys.view(dtype).tolist())
    cells = [None] * (rows * len(args))
    for j, column in enumerate(args):
        cells[j :: len(args)] = column
    body = "".join(pieces)
    if cells:
        body %= tuple(cells)
    _write_atomic(path, ",".join(header) + "\r\n" + body)


def write_dataset(dataset: Dataset, path) -> None:
    """CSV with header ``x1,...,xd`` plus an optional ``label`` column."""
    header = [f"x{j + 1}" for j in range(dataset.d)]
    if dataset.labels is not None:
        header.append("label")
    _write_table(path, header, dataset.points, dataset.labels)


def write_provenance(dataset: Dataset, path) -> None:
    """Sidecar JSON recording how a dataset was generated."""
    _write_atomic(path, json.dumps(dataset.provenance, indent=2, sort_keys=True) + "\n")


def read_dataset(path) -> Dataset:
    """Parse a CSV written by :func:`write_dataset` or shaped like it.

    The body is parsed in one ``np.loadtxt`` call: a float per coordinate,
    an integer ``label``.  Blank lines are skipped and ``#`` marks no
    comment.  A malformed body raises ``ValueError`` naming its first bad
    row, counted from 1 after the header.

    ``csv`` reads the header.  A seekable file is then handed to
    ``np.loadtxt`` as its path, told to skip the header's physical lines
    and to decode with the header's encoding: given a path, numpy parses
    the file in chunks in C, and given an iterator of lines, it pays one
    Python ``next()`` per row.  A pipe can be read only once, so
    ``np.loadtxt`` gets the rest of its lines from the open handle, and a
    malformed body read from one raises ``ValueError("malformed dataset
    file: ...")`` with numpy's message, as no row can be named.
    """
    with open(path, newline="") as fh:
        reread = fh.seekable()
        reader = csv.reader(fh)
        header = next(reader, None)
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
            if reread:
                # Where reopening /dev/fd/N or /dev/stdin dups the descriptor
                # (macOS, the BSDs), numpy's handle shares this one's offset,
                # which the reads above have moved past the header.
                fh.seek(0)
                body, skip = path, reader.line_num
            else:
                body, skip = itertools.chain([first], fh), 0
            try:
                table = np.loadtxt(
                    body, dtype=fields, delimiter=",", quotechar='"', comments=None,
                    skiprows=skip, encoding=fh.encoding, ndmin=1,
                )
            except ValueError as exc:
                raise ValueError(
                    (reread and _bad_row(path, d, has_label)) or f"malformed dataset file: {exc}"
                ) from None
    try:
        return Dataset(
            points=np.ascontiguousarray(table["x"]),
            labels=np.ascontiguousarray(table["label"]) if has_label else None,
            provenance={"source": str(path)},
        )
    except ValueError:  # only a label outside {0, 1} fails here
        raise ValueError(
            (reread and _bad_row(path, d, has_label)) or "unknown label value"
        ) from None


def _number(cell: str, kind: type):
    """``kind(cell)`` under ``np.loadtxt``'s rules: ASCII, no ``_`` separators."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(cell)
    return kind(text)


def _bad_row(path, d: int, has_label: bool) -> str | None:
    """Name the first row :func:`read_dataset` rejects; the error path only.

    Re-reads the file, which must be seekable, with ``csv`` and checks each
    row as ``np.loadtxt`` parses it.
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
