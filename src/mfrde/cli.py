"""Command-line interface: generate, fit, score, eval-grid, benchmark, params.

Every run with ``--seed`` set is bit-reproducible in its file outputs
(excluding timestamps).  Exit codes: 0 success, 1 usage error, 2 runtime
error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .datasets import (
    _SCHEME_NAMES,
    DOMAIN,
    _write_table,
    generate,
    read_dataset,
    write_dataset,
    write_provenance,
)
from .estimator import (
    EstimatorConfig,
    Quadrature,
    evaluate_batch,
    fit,
    load_model,
    save_model,
)
from .evaluation import BenchmarkConfig, benchmark, make_grid
from .geometry import Box
from .theory import TheoryInputs, recommend

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on bad flags, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_box(text: str) -> Box | None:
    """``auto`` or per-axis ``lo:hi`` ranges joined by commas."""
    if text == "auto":
        return None
    try:
        lo, hi = [], []
        for part in text.split(","):
            a, b = part.split(":")
            lo.append(float(a))
            hi.append(float(b))
        return Box(tuple(lo), tuple(hi))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"cannot parse box spec {text!r}: {exc}") from None


def _cmd_generate(args) -> None:
    data = generate(args.scheme, args.n, args.outlier_ratio, args.seed,
                    box=_parse_box(args.box) or DOMAIN)
    write_dataset(data, args.out)
    if args.provenance:
        write_provenance(data, args.provenance)


def _cmd_fit(args) -> None:
    data = read_dataset(args.input)
    m = args.m
    if m is None:
        try:  # the rounding the benchmark sweep applies to its m_ratios
            m = int(round(args.m_ratio * data.n))
        except (ValueError, OverflowError):  # a NaN or infinite product
            raise UsageError(f"--m-ratio must be finite, got {args.m_ratio}") from None
    if m < 1:
        raise UsageError("block size must be at least 1")
    if m > data.n:
        raise UsageError("block size exceeds sample size")
    config = EstimatorConfig(
        m=m,
        trees=args.trees,
        depth=args.depth,
        seed=args.seed,
        quadrature=Quadrature.parse(args.quadrature),
        box=_parse_box(args.box),
        box_margin=args.box_margin,
    )
    save_model(fit(data, config), args.out)


def _cmd_score(args) -> None:
    model = load_model(args.model)
    data = read_dataset(args.input)
    dens = evaluate_batch(model, data.points)
    _write_table(args.out, ["density"], dens[:, None])


def _cmd_eval_grid(args) -> None:
    model = load_model(args.model)
    grid = make_grid(model.box, args.grid)
    dens = evaluate_batch(model, grid.points)
    header = [f"x{j + 1}" for j in range(model.box.d)] + ["density"]
    _write_table(args.out, header, np.column_stack([grid.points, dens]))


def _cmd_benchmark(args) -> None:
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    config = BenchmarkConfig.from_json(args.config)
    report = benchmark(config, threads=args.threads)
    report.to_json(args.out)
    if args.summary_csv:
        report.summary_to_csv(args.summary_csv)


def _cmd_params(args) -> None:
    rec = recommend(
        TheoryInputs(alpha=args.alpha, beta=args.beta, d=args.d,
                     n=args.n, n_outliers=args.outliers)
    )
    print(f"alpha_prime={rec.alpha_prime!r}")
    print(f"gamma1={rec.gamma1!r}")
    print(f"gamma2={rec.gamma2!r}")
    print(f"m={rec.m}")
    print(f"p={rec.p}")
    print(f"T={rec.trees}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mfrde", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic contaminated dataset")
    gen.add_argument("--scheme", choices=_SCHEME_NAMES, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--outlier-ratio", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--box", default="0:5,0:5")
    gen.add_argument("--out", required=True)
    gen.add_argument("--provenance", help="also write generation metadata JSON here")
    gen.set_defaults(func=_cmd_generate)

    fit_p = sub.add_parser("fit", help="fit a model on a CSV dataset")
    fit_p.add_argument("--input", required=True)
    fit_p.add_argument("--out", required=True)
    block = fit_p.add_mutually_exclusive_group(required=True)
    block.add_argument("--m", type=int, help="block size")
    block.add_argument("--m-ratio", type=float,
                       help="block size as a fraction of the sample: round(ratio * n)")
    fit_p.add_argument("--trees", type=int, default=20)
    fit_p.add_argument("--depth", type=int, default=6)
    fit_p.add_argument("--seed", type=int, default=0)
    fit_p.add_argument("--box", default="auto")
    fit_p.add_argument("--box-margin", type=float, default=0.0)
    fit_p.add_argument("--quadrature", default="auto",
                       help="auto, exact, grid[:G] or mc[:N]")
    fit_p.set_defaults(func=_cmd_fit)

    score = sub.add_parser("score", help="densities of a model at CSV rows")
    score.add_argument("--model", required=True)
    score.add_argument("--input", required=True)
    score.add_argument("--out", required=True)
    score.set_defaults(func=_cmd_score)

    egrid = sub.add_parser("eval-grid", help="densities on a lattice over the box")
    egrid.add_argument("--model", required=True)
    egrid.add_argument("--grid", type=int, default=100)
    egrid.add_argument("--out", required=True)
    egrid.set_defaults(func=_cmd_eval_grid)

    bench = sub.add_parser("benchmark", help="run a sweep from a JSON config")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--summary-csv")
    bench.add_argument("--threads", type=int, default=1)
    bench.set_defaults(func=_cmd_benchmark)

    params = sub.add_parser("params", help="theory-scaled parameter suggestions")
    params.add_argument("--alpha", type=float, required=True)
    params.add_argument("--beta", type=float, required=True)
    params.add_argument("--d", type=int, required=True)
    params.add_argument("--n", type=int, required=True)
    params.add_argument("--outliers", type=int, required=True)
    params.set_defaults(func=_cmd_params)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except UsageError as exc:
        print(f"mfrde: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"mfrde: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
