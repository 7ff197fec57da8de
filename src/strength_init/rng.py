"""Deterministic random streams for reproducible experiments.

A single 64-bit global seed fans out into independent streams through
numpy's SeedSequence spawn keys. A stream is a plain PCG64
np.random.Generator. Every (layer, repetition) pair owns one stream, so
any layer of any repetition can be regenerated in isolation, and two
runs with the same global seed are bit-identical.

PCG64 is the generator for the whole repository. Bit-equality is
promised within this codebase on the same platform, with the same
numpy/BLAS build and the same BLAS thread count (see training), not
across other implementations.

Spawn-key layout: weight streams use 2-element keys
(layer_index, repetition_index); experiment-level streams (batch order,
data split) use 1-element keys and therefore can never collide with a
weight stream. Every argument must be an integer (numpy integers pass,
1.5 and True raise ValueError); SeedSequence rejects negative key elements.
"""

from __future__ import annotations

import numpy as np

from .initializers import _index

__all__ = ["derive_stream"]

_MASK64 = (1 << 64) - 1

# 1-element spawn-key domains reserved for the experiment harness.
BATCH_ORDER_DOMAIN = 0
SPLIT_DOMAIN = 1


def _generator(global_seed: int, *spawn_key: int) -> np.random.Generator:
    try:
        entropy = _index(global_seed) & _MASK64
        key = tuple(map(_index, spawn_key))
    except TypeError:
        raise ValueError(f"seed and stream indices must be integers, got {(global_seed, *spawn_key)}") from None
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key)))


def derive_stream(global_seed: int, layer_index: int, repetition_index: int) -> np.random.Generator:
    """Build the weight stream for one layer of one repetition.

    Identical arguments always give identical draw sequences; distinct
    (layer_index, repetition_index) pairs give statistically independent
    streams.
    """
    return _generator(global_seed, layer_index, repetition_index)


def harness_generator(global_seed: int, domain: int) -> np.random.Generator:
    """Generator for experiment-level randomness (batch order, data split).

    Uses a 1-element spawn key so it is independent of every per-layer
    stream regardless of layer and repetition indices.
    """
    return _generator(global_seed, domain)
