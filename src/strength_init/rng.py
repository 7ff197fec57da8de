"""Deterministic random streams for reproducible experiments.

A single 64-bit global seed fans out into independent streams through
numpy's SeedSequence spawn keys. A stream is a plain PCG64
np.random.Generator. Every (layer, repetition) pair owns one stream, so
any layer of any repetition can be regenerated in isolation, and two
runs with the same global seed are bit-identical.

PCG64 is the generator for the whole repository. Bit-equality is
promised within this codebase, under the conditions the training
module's docstring gives, not across other implementations.

Spawn-key layout: weight streams use 2-element keys
(layer_index, repetition_index); experiment-level streams (batch order,
data split) use 1-element keys and therefore can never collide with a
weight stream. Every argument must be an integer (numpy integers pass,
1.5 and True raise ValueError); SeedSequence rejects negative key elements.
"""

from __future__ import annotations

import numpy as np

from .initializers import _int

__all__ = ["derive_stream"]

_MASK64 = (1 << 64) - 1

# 1-element spawn-key domains reserved for the experiment harness.
BATCH_ORDER_DOMAIN = 0
SPLIT_DOMAIN = 1


def _generator(global_seed: int, *spawn_key: int) -> np.random.Generator:
    entropy, *key = (_int(v, "seed and stream indices") for v in (global_seed, *spawn_key))
    seq = np.random.SeedSequence(entropy & _MASK64, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))


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
