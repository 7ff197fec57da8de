"""Strength-based analysis and preferential-attachment rewiring of random
neural-network weights, with the training and statistics harness needed to
measure the effect.

The package is organized around plain float64 numpy arrays:

- ``matrix_io``     weight-matrix representation, WMAT/CSV serialization,
                    conv filter-bank reshaping
- ``rng``           deterministic per-(layer, repetition) random streams
- ``initializers``  the literature weight initializers
- ``strength``      neuronal strength (weighted degree) and its statistics
- ``rewiring``      preferential-attachment rewiring, the strength-variance
                    random-search baseline, the cost probe and the
                    max-strength size sweep
- ``dataset``       IDX image/label ingestion and deterministic splits
- ``training``      from-scratch MLP training with a fixed simple schedule
- ``stats``         population comparison (Welch t, Kruskal-Wallis, Pearson)
- ``manifest``      reproducible experiment runner
- ``cli``           the ``strength-init`` command-line pipeline
"""

__version__ = "0.1.0"

from .initializers import METHODS, InitSpec, init
from .matrix_io import (
    HeaderError,
    MatrixIOError,
    NonFiniteError,
    PayloadError,
    conv_from_2d,
    conv_to_2d,
    load_matrix,
    load_matrix_csv,
    save_matrix,
    save_matrix_csv,
    transpose,
)
from .rewiring import (
    RewireConfig,
    max_strength_scaling,
    pa_pass,
    pa_rewire,
    pa_rewire_conv,
    rewire_cost_probe,
    variance_search,
    weighted_draw_order,
)
from .rng import RngStream, derive_stream
from .stats import (
    ComparisonReport,
    compare,
    kruskal_wallis,
    median_abs_deviation,
    pearson,
    welch_t_test,
)
from .strength import (
    StrengthStats,
    model_strength_summary,
    predicted_strength_variance,
    strength_stats,
    strengths,
)
from .dataset import Dataset, load_idx, split
from .manifest import ExperimentManifest, plot_export, run_manifest
from .training import MlpArch, RunMetrics, TrainConfig, cosine_lr, gradient_flow, train

__all__ = [
    "__version__",
    "METHODS",
    "InitSpec",
    "init",
    "MatrixIOError",
    "HeaderError",
    "PayloadError",
    "NonFiniteError",
    "save_matrix",
    "load_matrix",
    "save_matrix_csv",
    "load_matrix_csv",
    "conv_to_2d",
    "conv_from_2d",
    "transpose",
    "RngStream",
    "derive_stream",
    "RewireConfig",
    "pa_pass",
    "pa_rewire",
    "pa_rewire_conv",
    "weighted_draw_order",
    "variance_search",
    "rewire_cost_probe",
    "StrengthStats",
    "strengths",
    "strength_stats",
    "predicted_strength_variance",
    "model_strength_summary",
    "max_strength_scaling",
    "welch_t_test",
    "kruskal_wallis",
    "pearson",
    "median_abs_deviation",
    "compare",
    "ComparisonReport",
    "Dataset",
    "load_idx",
    "split",
    "MlpArch",
    "TrainConfig",
    "RunMetrics",
    "cosine_lr",
    "train",
    "gradient_flow",
    "ExperimentManifest",
    "run_manifest",
    "plot_export",
]
