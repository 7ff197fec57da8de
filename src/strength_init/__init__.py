"""Strength-based analysis and preferential-attachment rewiring of random
neural-network weights, with the training and statistics harness needed to
measure the effect.

The package is organized around plain numpy arrays, float64 weights and
uint8 image pixels:

- ``matrix_io``     weight-matrix representation, WMAT serialization,
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

The top level re-exports only the names the README tour and the demos use.
Every other public name is imported from its module, e.g.
``strength_init.matrix_io.save_matrix``.
"""

__version__ = "0.1.0"

from .initializers import InitSpec, init
from .matrix_io import conv_to_2d
from .rewiring import (
    RewireConfig,
    max_strength_scaling,
    pa_rewire,
    pa_rewire_conv,
    rewire_cost_probe,
    variance_search,
)
from .rng import derive_stream
from .strength import strength_stats, strengths
from .dataset import split
from .manifest import ExperimentManifest, run_manifest
from .training import MlpArch, TrainConfig, gradient_flow, train

__all__ = [
    "__version__",
    "InitSpec",
    "init",
    "conv_to_2d",
    "RewireConfig",
    "pa_rewire",
    "pa_rewire_conv",
    "variance_search",
    "rewire_cost_probe",
    "max_strength_scaling",
    "derive_stream",
    "strengths",
    "strength_stats",
    "split",
    "ExperimentManifest",
    "run_manifest",
    "MlpArch",
    "TrainConfig",
    "train",
    "gradient_flow",
]
