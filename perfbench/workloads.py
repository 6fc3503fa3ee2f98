"""Workload definitions and seeded input generation for the mfrde benchmark.

Every workload serves one model through the CLI (``fit``, ``score``,
``eval-grid`` and single-point ``evaluate``) and runs a small
``benchmark`` sweep whose cells share the workload's block regime.  All
data follow the paper's synthetic law (Exp(mean 2) x U[0,5] inliers, 10%
uniform outliers) on the box 0:5,0:5, where about 8% of the inliers fall
outside the box.

Run as a script, this module writes one workload's inputs for a seed; the
benchmark times that script as its set-up:

    python3 perfbench/workloads.py WORKLOAD SEED OUT_DIR [--tiny]
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``mfrde`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mfrde" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mfrde sources under {src}")
    sys.path.insert(0, str(src))
    import mfrde

    if Path(mfrde.__file__).resolve().parent != (src / "mfrde").resolve():
        raise SystemExit(f"perfbench: imported mfrde from {mfrde.__file__}, not {src}")
    return mfrde


@dataclass(frozen=True)
class Workload:
    """One served model, plus the ``mfrde benchmark`` sweep config."""

    name: str
    n: int
    m: int
    trees: int
    depth: int
    quadrature: str = "auto"
    scheme: str = "uniform"
    outlier_ratio: float = 0.1
    box: str = "0:5,0:5"
    queries: int = 20_000  # labelled rows given to ``mfrde score``
    grid: int = 150  # ``mfrde eval-grid --grid``
    latency_samples: int = 50  # back-to-back ``evaluate`` calls per window
    sweep: dict = field(default_factory=dict, hash=False)

    @property
    def blocks(self) -> int:
        return self.n // self.m

    @property
    def count_array_bytes(self) -> int:
        """Computed size of the int64 ``(S, T, 2**p)`` leaf-count array."""
        return self.blocks * self.trees * 2**self.depth * 8

    def fit_argv(self, data: str, model: str, seed: int) -> list[str]:
        return ["fit", "--input", data, "--out", model, "--m", str(self.m),
                "--trees", str(self.trees), "--depth", str(self.depth),
                "--seed", str(seed), "--box", self.box,
                "--quadrature", self.quadrature]


# One cell per scheme, so each of the three generators runs; grid:100
# quadrature on a 100x100 evaluation grid evaluates the same lattice twice.
SWEEP = {
    "schemes": ["uniform", "beta", "discrete"],
    "ratios": [0.1],
    "trees": [20],
    "depths": [6],
    "n": 500,
    "repeats": 1,
    "grid_G": 100,
    "quadrature": "grid:100",
    "box": {"lo": [0.0, 0.0], "hi": [5.0, 5.0]},
}

# Why each workload is here is recorded in BENCHMARK.json.  Sizes keep one
# cycle of user paths within a few seconds, so that a run takes the mean of
# several cycles spread over its whole length.  The sweep's ``m_ratios``
# give its cells the workload's block count S (0.1: S=10; 0.02: S=50, the
# most blocks at n=500 before block medians turn degenerate).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="big-blocks",
            n=100_000, m=10_000, trees=12, depth=8,
            sweep=dict(SWEEP, m_ratios=[0.1]),
        ),
        Workload(
            name="many-blocks",
            n=50_000, m=500, trees=12, depth=8,
            sweep=dict(SWEEP, m_ratios=[0.02]),
        ),
    )
}

# Reduced copies with the same code paths: the per-run reference check and
# the self-test run these.  ``many-blocks`` keeps S=100.
TINY_SWEEP = dict(SWEEP, trees=[5], depths=[4], n=200, grid_G=20, quadrature="grid:20")
TINY = {
    "big-blocks": replace(WORKLOADS["big-blocks"], n=2_000, m=200, trees=5, depth=4,
                          queries=400, grid=20, latency_samples=10,
                          sweep=dict(TINY_SWEEP, m_ratios=[0.1])),
    "many-blocks": replace(WORKLOADS["many-blocks"], n=2_000, m=20, trees=5, depth=4,
                           queries=400, grid=20, latency_samples=10,
                           sweep=dict(TINY_SWEEP, m_ratios=[0.05])),
}


def derived_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def fit_seed(seed: int) -> int:
    return derived_seed(seed, 4)


def query_data(mfrde, wl: Workload, seed: int):
    """The labelled query rows: same law as the data, another seed."""
    return mfrde.generate(wl.scheme, wl.queries, wl.outlier_ratio, derived_seed(seed, 2))


def _write_csv(path: Path, data) -> None:
    # Same text as mfrde.write_dataset, built in one string to keep set-up short.
    cols = [data.points[:, j].tolist() for j in range(data.d)] + [data.labels.tolist()]
    fmt = ",".join(["%.17g"] * data.d + ["%d"]) + "\n"
    header = ",".join([f"x{j + 1}" for j in range(data.d)] + ["label"]) + "\n"
    path.write_text(header + "".join([fmt % row for row in zip(*cols)]))


def make_inputs(mfrde, wl: Workload, seed: int, out: Path) -> None:
    """Write ``data.csv``, ``query.csv`` and ``sweep.json``."""
    out.mkdir(parents=True, exist_ok=True)
    data = mfrde.generate(wl.scheme, wl.n, wl.outlier_ratio, derived_seed(seed, 1))
    _write_csv(out / "data.csv", data)
    _write_csv(out / "query.csv", query_data(mfrde, wl, seed))
    config = dict(wl.sweep, seed=derived_seed(seed, 3))
    (out / "sweep.json").write_text(json.dumps(config, indent=1) + "\n")


def main(argv: list[str]) -> int:
    name, seed, out = argv[0], int(argv[1]), Path(argv[2])
    table = TINY if "--tiny" in argv[3:] else WORKLOADS
    make_inputs(import_program(), table[name], seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
