"""Robust density estimation by medians of random forest histograms.

Fit forest density estimators on disjoint subsamples of possibly
contaminated data, aggregate them by a pointwise median, and normalize
over an axis-aligned box.  Includes synthetic contamination generators,
MAE/AUC evaluation harnesses, concentration diagnostics and a CLI.
"""

from .datasets import (
    DOMAIN,
    BetaScheme,
    Dataset,
    DiscreteScheme,
    UniformScheme,
    gen_inliers,
    gen_outliers,
    generate,
    make_scheme,
    mix,
    read_dataset,
    true_density,
    write_dataset,
    write_provenance,
)
from .diagnostics import (
    ConcentrationProfile,
    clean_block_fraction,
    concentration_profile,
    local_outliers,
)
from .estimator import (
    BlockAssignment,
    EstimatorConfig,
    FittedMFRDE,
    Quadrature,
    assign_blocks,
    evaluate,
    evaluate_batch,
    fit,
    integrate_estimate,
    load_model,
    median_at,
    save_model,
    sfde_at,
)
from .evaluation import BenchmarkConfig, EvalGrid, EvalReport, auc, benchmark, mae, make_grid
from .geometry import (
    Box,
    Forest,
    SplitTree,
    build_forest,
    build_tree,
    leaf_indices,
)
from .theory import RecommendedParams, TheoryInputs, gammas, recommend

__version__ = "0.1.0"

__all__ = [
    "Box",
    "SplitTree",
    "Forest",
    "build_tree",
    "build_forest",
    "leaf_indices",
    "Quadrature",
    "EstimatorConfig",
    "BlockAssignment",
    "FittedMFRDE",
    "assign_blocks",
    "sfde_at",
    "median_at",
    "fit",
    "evaluate",
    "evaluate_batch",
    "integrate_estimate",
    "save_model",
    "load_model",
    "TheoryInputs",
    "RecommendedParams",
    "gammas",
    "recommend",
    "DOMAIN",
    "Dataset",
    "UniformScheme",
    "BetaScheme",
    "DiscreteScheme",
    "make_scheme",
    "gen_inliers",
    "gen_outliers",
    "mix",
    "generate",
    "true_density",
    "read_dataset",
    "write_dataset",
    "write_provenance",
    "EvalGrid",
    "EvalReport",
    "BenchmarkConfig",
    "make_grid",
    "mae",
    "auc",
    "benchmark",
    "ConcentrationProfile",
    "local_outliers",
    "clean_block_fraction",
    "concentration_profile",
]
