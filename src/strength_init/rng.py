"""Deterministic random streams for reproducible experiments.

A single 64-bit global seed fans out into independent streams through
numpy's SeedSequence spawn keys. Every (layer, repetition) pair owns one
stream, so any layer of any repetition can be regenerated in isolation,
and two runs with the same global seed are bit-identical.

The underlying generator is PCG64 for the whole repository. Bit-equality
is promised within this codebase on the same platform, with the same
numpy/BLAS build and the same BLAS thread count (see training), not
across other implementations.

Spawn-key layout: weight streams use 2-element keys
(layer_index, repetition_index); experiment-level streams (batch order,
data split) use 1-element keys and therefore can never collide with a
weight stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["RngStream", "derive_stream"]

_MASK64 = (1 << 64) - 1

# 1-element spawn-key domains reserved for the experiment harness.
BATCH_ORDER_DOMAIN = 0
SPLIT_DOMAIN = 1


@dataclass
class RngStream:
    """One PCG64 stream pinned to (global_seed, layer_index, repetition_index)."""

    global_seed: int
    layer_index: int
    repetition_index: int
    generator: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.layer_index < 0 or self.repetition_index < 0:
            raise ValueError("layer_index and repetition_index must be >= 0")
        seq = np.random.SeedSequence(
            entropy=int(self.global_seed) & _MASK64,
            spawn_key=(int(self.layer_index), int(self.repetition_index)),
        )
        self.generator = np.random.Generator(np.random.PCG64(seq))


def derive_stream(global_seed: int, layer_index: int, repetition_index: int) -> RngStream:
    """Build the weight stream for one layer of one repetition.

    Identical arguments always give identical draw sequences; distinct
    (layer_index, repetition_index) pairs give statistically independent
    streams.
    """
    return RngStream(int(global_seed), int(layer_index), int(repetition_index))


def harness_generator(global_seed: int, domain: int) -> np.random.Generator:
    """Generator for experiment-level randomness (batch order, data split).

    Uses a 1-element spawn key so it is independent of every per-layer
    stream regardless of layer and repetition indices.
    """
    seq = np.random.SeedSequence(
        entropy=int(global_seed) & _MASK64, spawn_key=(int(domain),)
    )
    return np.random.Generator(np.random.PCG64(seq))
