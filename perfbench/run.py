"""End-to-end benchmark of the mfrde CLI, with a traced per-layer mode.

    python3 perfbench/run.py --workload big-blocks --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Set-up writes the workload's inputs from
the seed (``workloads.py``, timed in a fresh interpreter several times;
``setup_s`` is the median).  Then, for at least ``--seconds`` and two
cycles, one caller in one thread (a closed loop) runs each user path
in-process through ``mfrde.cli.main``: ``fit``, ``score``, ``eval-grid``
and ``benchmark``, each followed by a window of back-to-back single-point
``evaluate`` calls on the loaded model.  After the cycles it checks the
outputs, runs the sweep again at two threads and runs the reference check
(``reference.json``).  Every CLI call, query and check is one attempted
operation.

``--trace 0`` prints the end-to-end metrics.  Each timing is the mean over
the cycles; query p50 and p90 are the means over the cycles of each
cycle's percentiles (see ``cycle_mean``).
``--trace 1`` runs every second cycle with spans around each layer
(``layers.py``), prints the per-layer metrics (medians over the traced
cycles) and writes the spans to
``.perfbench/trace-<workload>-<seed>.json``.  The last stdout line is the
result object; the line before it records the environment.

``--record-reference`` rewrites ``reference.json`` from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
from spans import NoTracer, Tracer
from workloads import (
    ROOT,
    TINY,
    WORKLOADS,
    Workload,
    fit_seed,
    import_program,
    make_inputs,
    query_data,
)

SETUP_REPS = 3
TIMINGS = ("fit_s", "score_s", "eval_grid_s", "benchmark_s", "query_p50_s", "query_p90_s")
MIN_CYCLES = 2
REFERENCE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0
INTEGRAL_TOL = 1e-9
# Grid-aligned probes: box corners, faces, midpoint breakpoints, and points
# just outside the box.
EDGE_PROBES = [(0.0, 0.0), (5.0, 5.0), (0.0, 5.0), (5.0, 0.0), (2.5, 2.5),
               (2.5, 5.0), (5.0, 2.5), (1.25, 3.75), (0.625, 4.375), (3.75, 0.0),
               (4.6875, 1.5625), (0.0, 2.5), (-1.0, 2.0), (6.0, 6.0),
               (2.0, 5.000001), (-1e-12, 1.0)]
N_PROBES = 64


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)


FILE_NAMES = {"data": "data.csv", "query": "query.csv", "sweep": "sweep.json",
              "model": "model.json", "score": "score.csv", "grid": "grid.csv",
              "report": "report.json", "report2": "report-threads2.json"}


def files_in(work: Path) -> SimpleNamespace:
    """Paths of a run's inputs and outputs inside ``work``."""
    return SimpleNamespace(dir=work, **{k: str(work / v) for k, v in FILE_NAMES.items()})


def sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def report_digest(path: str) -> str:
    """Digest of a benchmark report, without its ``generated_at`` stamp."""
    doc = json.loads(Path(path).read_text())
    doc["meta"].pop("generated_at", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_cli(cli, tally: Tally, argv: list[str]) -> float:
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    tally.check(code == 0, f"mfrde {' '.join(argv)} exited {code}")
    return wall


def set_up(wl: Workload, seed: int, work: Path, tiny: bool) -> float:
    """Median wall time of writing the inputs in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).with_name("workloads.py")),
            wl.name, str(seed), str(work)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def query_blocks(points: np.ndarray, size: int):
    """Successive blocks of ``size`` query rows, wrapping around."""
    for start in itertools.cycle(range(0, len(points) - size + 1, size)):
        yield points[start: start + size]


def cycle(mfrde, wl: Workload, files, seed: int, blocks, tracer, tally: Tally) -> dict:
    """One pass over the workload's user paths, each followed by a window of
    back-to-back single-point queries; wall times, the query percentiles
    over all of the cycle's windows and output digests."""
    cli = importlib.import_module("mfrde.cli")
    out: dict = {}
    latencies = []

    def window(model) -> None:
        for x in next(blocks):
            with tracer.span("estimator.evaluate"):
                start = time.perf_counter()
                value = mfrde.evaluate(model, x)
                latencies.append(time.perf_counter() - start)
            tally.check(np.isfinite(value) and value >= 0, f"evaluate({x}) = {value}")

    with tracer.op("cli.fit"):
        out["fit_s"] = run_cli(cli, tally, wl.fit_argv(files.data, files.model,
                                                       fit_seed(seed)))
    model = mfrde.load_model(files.model)
    window(model)
    with tracer.op("cli.score"):
        out["score_s"] = run_cli(cli, tally, ["score", "--model", files.model,
                                              "--input", files.query, "--out", files.score])
    window(model)
    with tracer.op("cli.eval_grid"):
        out["eval_grid_s"] = run_cli(cli, tally, ["eval-grid", "--model", files.model,
                                                  "--grid", str(wl.grid), "--out", files.grid])
    window(model)
    with tracer.op("cli.benchmark"):
        out["benchmark_s"] = run_cli(cli, tally, ["benchmark", "--config", files.sweep,
                                                  "--out", files.report])
    window(model)
    out["query_p50_s"], out["query_p90_s"] = np.percentile(latencies, [50, 90]).tolist()
    out["queries"] = len(latencies)
    out["model"] = sha256(files.model)
    out["score"] = sha256(files.score)
    out["grid"] = sha256(files.grid)
    out["report"] = report_digest(files.report)
    return out


def cycle_mean(cycles: list[dict], key: str) -> float:
    """Mean over the cycles of one timing.

    Cycles are short and spread over the whole run.  On a shared host the
    speed switches every few seconds between a fast and a slow mode (up to
    1.9x apart), and the share of time in each mode drifts from run to run.
    The mean moves in proportion to that share; the median and the best
    cycle jump from one mode to the other, and spread more from run to run.
    Each cycle's query percentiles pool that cycle's windows, so p90 has at
    least ten samples beyond it.
    """
    return statistics.fmean(c[key] for c in cycles)


def probes(query_points: np.ndarray) -> np.ndarray:
    return np.vstack([np.asarray(EDGE_PROBES, dtype=float),
                      query_points[: N_PROBES - len(EDGE_PROBES)]])


def check_scalar_batch(mfrde, model, points: np.ndarray, tally: Tally) -> None:
    batch = mfrde.evaluate_batch(model, points)
    scalar = np.array([mfrde.evaluate(model, x) for x in points])
    tally.check(batch.tobytes() == scalar.tobytes(),
                "evaluate differs from evaluate_batch at a probe point")


def check_serving(mfrde, wl: Workload, files, query, tally: Tally) -> dict:
    """Check the score and eval-grid outputs; their MAE and AUC."""
    scores = np.loadtxt(files.score, delimiter=",", skiprows=1, ndmin=1)
    grid = np.loadtxt(files.grid, delimiter=",", skiprows=1, ndmin=2)
    tally.check(scores.shape == (wl.queries,) and np.isfinite(scores).all()
                and (scores >= 0).all(), "score output has a bad row")
    tally.check(grid.shape == (wl.grid**2, 3) and np.isfinite(grid).all()
                and (grid[:, 2] >= 0).all(), "eval-grid output has a bad row")
    return {
        "mae": float(np.mean(np.abs(grid[:, 2] - mfrde.true_density(grid[:, :2])))),
        "auc": mfrde.auc(-scores, query.labels),
    }


def check_sweep(files, wl: Workload, tally: Tally) -> None:
    """The sweep report has a result for every cell."""
    doc = json.loads(Path(files.report).read_text())
    cfg = wl.sweep
    cells = (len(cfg["schemes"]) * len(cfg["ratios"]) * len(cfg["m_ratios"])
             * len(cfg["trees"]) * len(cfg["depths"]))
    runs, summary = doc["runs"], doc["summary"]
    tally.check(len(runs) == cells * cfg["repeats"] and len(summary) == cells
                and not any(r.get("skipped") for r in runs),
                "sweep report is missing cells or skipped some")


def check_in_memory(mfrde, wl: Workload, files, seed: int, points,
                    tally: Tally) -> None:
    """The model read back from ``mfrde fit``'s file equals an in-memory fit."""
    lo, hi = zip(*(map(float, axis.split(":")) for axis in wl.box.split(",")))
    config = mfrde.EstimatorConfig(
        m=wl.m, trees=wl.trees, depth=wl.depth, seed=fit_seed(seed),
        quadrature=mfrde.Quadrature.parse(wl.quadrature), box=mfrde.Box(lo, hi),
    )
    fresh = mfrde.fit(mfrde.read_dataset(files.data), config)
    loaded = mfrde.load_model(files.model)
    tally.check(fresh.normalizer == loaded.normalizer
                and np.array_equal(fresh.counts, loaded.counts)
                and mfrde.evaluate_batch(fresh, points).tobytes()
                == mfrde.evaluate_batch(loaded, points).tobytes(),
                "model loaded from file differs from the in-memory fit")


def reference_digests(mfrde, wl: Workload, work: Path, tally: Tally) -> dict:
    """Digests of the workload's tiny copy at the reference seed."""
    files = files_in(work / "reference")
    make_inputs(mfrde, wl, REFERENCE_SEED, files.dir)
    query = query_data(mfrde, wl, REFERENCE_SEED)
    out = cycle(mfrde, wl, files, REFERENCE_SEED,
                query_blocks(query.points, wl.latency_samples), NoTracer(), tally)
    digests = {k: out[k] for k in ("score", "grid", "report") if k in out}
    digests["normalizer"] = repr(mfrde.load_model(files.model).normalizer)
    return digests


def check_reference(mfrde, name: str, work: Path, tally: Tally,
                    reference: Path = REFERENCE) -> None:
    """Outputs of the tiny copy match the digests recorded in ``reference``."""
    recorded = json.loads(reference.read_text()).get(name, {})
    seen = reference_digests(mfrde, TINY[name], work, tally)
    for key, value in seen.items():
        tally.check(recorded.get(key) == value,
                    f"{name} reference {key}: {value} != recorded {recorded.get(key)}")


def environment(wl: Workload) -> dict:
    import scipy

    caches: dict = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    levels = sorted(caches)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_cache": caches.get("L2"),
        "last_level_cache": caches[levels[-1]] if levels else None,
        "workload": {"name": wl.name, "n": wl.n, "m": wl.m, "blocks": wl.blocks,
                     "trees": wl.trees, "depth": wl.depth, "quadrature": wl.quadrature,
                     "queries": wl.queries, "grid": wl.grid,
                     "count_array_bytes": wl.count_array_bytes, "sweep": wl.sweep},
    }


def measure(mfrde, wl: Workload, seed: int, seconds: float, trace: bool,
            work: Path, tiny: bool = False) -> dict:
    """Set up, run the cycles and checks; the result object to print, plus
    the sample counts under ``samples``."""
    tally = Tally()
    setup_s = set_up(wl, seed, work, tiny)
    files = files_in(work)
    query = query_data(mfrde, wl, seed)
    tracer = Tracer()
    facts = layers.Facts()
    blocks = query_blocks(query.points, wl.latency_samples)
    cycles: list[dict] = []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        k = len(cycles)
        # traced and untraced cycles alternate, so both meet the same interference
        traced = trace and k % 2 == 1
        tracer.run = k
        try:
            if traced:
                layers.install(tracer, facts)
            cycles.append(cycle(mfrde, wl, files, seed, blocks,
                                tracer if traced else NoTracer(), tally))
        finally:
            tracer.unwrap_all()
        print("perfbench: cycle", k, {key: round(cycles[-1][key] * 1e3, 2)
                                      for key in TIMINGS}, "ms", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally.check(all(c[key] == cycles[0][key] for c in cycles
                    for key in ("model", "score", "grid", "report")),
                "outputs differ between cycles of one seed")
    quality = check_serving(mfrde, wl, files, query, tally)
    model = mfrde.load_model(files.model)
    check_scalar_batch(mfrde, model, probes(query.points), tally)
    check_in_memory(mfrde, wl, files, seed, probes(query.points), tally)
    tracer.run = -1
    if trace:
        integral = layers.integrate_traced(tracer, model)
    else:
        integral = mfrde.integrate_estimate(model)
    integral_err = abs(integral - 1.0)
    tally.check(integral_err <= INTEGRAL_TOL, f"|integral - 1| = {integral_err}")

    untraced = cycles[::2] if trace else cycles
    check_sweep(files, wl, tally)
    cli = importlib.import_module("mfrde.cli")
    t2 = run_cli(cli, tally, ["benchmark", "--config", files.sweep,
                              "--out", files.report2, "--threads", "2"])
    tally.check(report_digest(files.report2) == cycles[-1]["report"],
                "benchmark report differs between threads=1 and threads=2")
    threads2_speedup = cycle_mean(untraced, "benchmark_s") / t2
    check_reference(mfrde, wl.name, work, tally)

    if trace:
        per_cycle = [layers.cycle_metrics(tracer, facts, k)
                     for k in range(1, len(cycles), 2)]
        traced_s = cycle_mean(cycles[1::2], "fit_s")
        extra = layers.node_metrics(tracer)
        extra.update({"estimator.integral_err": integral_err,
                      "evaluation.threads2_speedup": threads2_speedup,
                      "trace.overhead_frac": traced_s / cycle_mean(untraced, "fit_s")
                      - 1.0})
        values = layers.combine(per_cycle, extra, tracer.missing)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{wl.name}-{seed}.json").write_text(json.dumps(
            {"workload": wl.name, "seed": seed, "missing": tracer.missing,
             "metrics": values, "spans": [s.to_dict() for s in tracer.spans]}))
        if tracer.missing:
            print(json.dumps({"missing_layers": tracer.missing}))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items() if name in values}
    else:
        values = {
            "setup_s": setup_s,
            "fit_s": cycle_mean(cycles, "fit_s"),
            "score_pts_per_s": wl.queries / cycle_mean(cycles, "score_s"),
            "eval_grid_pts_per_s": wl.grid**2 / cycle_mean(cycles, "eval_grid_s"),
            "benchmark_s": cycle_mean(cycles, "benchmark_s"),
            "query_p50_us": 1e6 * cycle_mean(cycles, "query_p50_s"),
            "query_p90_us": 1e6 * cycle_mean(cycles, "query_p90_s"),
            "model_bytes": os.path.getsize(files.model),
            "peak_rss_mb": peak_rss_mb,
            **quality,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    samples = {"cycles": len(cycles), "timed_cycles": len(untraced),
               "queries_per_cycle": cycles[0]["queries"]}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "samples": samples}


def _units(key: str) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


END_TO_END_UNITS = _units("end_to_end")
PER_LAYER_UNITS = _units("per_layer")


def record_reference(mfrde, work: Path) -> None:
    tally = Tally()
    doc = {name: reference_digests(mfrde, TINY[name], work, tally) for name in TINY}
    if tally.failed:
        raise SystemExit("perfbench: reference run failed; nothing recorded")
    doc["recorded_with"] = {"numpy": np.__version__, "python": platform.python_version()}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")

    mfrde = import_program()
    os.environ.pop("MFRDE_THREADS", None)  # default threads means 1
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if args.record_reference:
            record_reference(mfrde, work)
            return 0
        wl = WORKLOADS[args.workload]
        result = measure(mfrde, wl, args.seed, args.seconds, bool(args.trace), work)
        print(json.dumps({"environment": environment(wl),
                          "samples": result.pop("samples")}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
