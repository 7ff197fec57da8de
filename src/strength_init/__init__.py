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

Every public name is imported from its module, e.g.
``from strength_init.rewiring import RewireConfig, pa_rewire``.
"""

__version__ = "0.1.0"

# Bind every module but cli (the command line's alone), so that after
# `import strength_init as si` the benchmark harness can reach
# `si.rewiring.pa_rewire` and `getattr(si, "training")`.
from . import dataset, initializers, manifest, matrix_io, rewiring, rng, stats, strength, training

__all__ = ["__version__"]
