"""Robust density estimation by medians of random forest histograms.

Fit forest density estimators on disjoint subsamples of possibly
contaminated data, aggregate them by a pointwise median, and normalize
over an axis-aligned box.  Includes synthetic contamination generators,
MAE/AUC evaluation harnesses, theory-scaled parameter suggestions and a
CLI.

The top level re-exports the entry points; everything else lives in the
submodules ``geometry``, ``estimator``, ``datasets``, ``evaluation``,
``theory`` and ``cli``.
"""

from .datasets import generate, read_dataset, true_density, write_dataset
from .estimator import (
    EstimatorConfig,
    Quadrature,
    evaluate,
    evaluate_batch,
    fit,
    integrate_estimate,
    load_model,
    save_model,
)
from .evaluation import BenchmarkConfig, auc, benchmark
from .geometry import Box

__version__ = "0.1.0"

__all__ = [
    "Box",
    "EstimatorConfig",
    "Quadrature",
    "fit",
    "evaluate",
    "evaluate_batch",
    "integrate_estimate",
    "save_model",
    "load_model",
    "read_dataset",
    "write_dataset",
    "generate",
    "true_density",
    "auc",
    "benchmark",
    "BenchmarkConfig",
]
