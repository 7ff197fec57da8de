"""Random weight initializers under a deterministic seeding contract.

All methods produce an (n_in, n_out) float64 matrix from an RngStream.
Fan-in is the row count n_in (for conv filter banks, w*h*z). Nominal
scales:

    glorot-uniform    U(-b, b), b = sqrt(6 / (n_in + n_out))
    glorot-normal     N(0, 2 / (n_in + n_out))
    kaiming-uniform   U(-b, b), b = sqrt(6 / n_in)
    kaiming-normal    N(0, 2 / n_in)
    truncated-normal  kaiming-normal with |w| <= 3*sigma enforced by
                      rejection resampling (no variance rescaling)
    orthogonal        semi-orthogonal columns/rows scaled by `gain`
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

__all__ = ["METHODS", "InitSpec", "init"]

METHODS = (
    "glorot-uniform",
    "glorot-normal",
    "kaiming-uniform",
    "kaiming-normal",
    "truncated-normal",
    "orthogonal",
)


@dataclass(frozen=True)
class InitSpec:
    """Which initializer to run and at what shape."""

    method: str
    rows: int
    cols: int
    gain: float = 1.0  # used by orthogonal only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown init method {self.method!r}, expected one of {METHODS}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got ({self.rows}, {self.cols})")


def init(spec: InitSpec, rng: RngStream) -> np.ndarray:
    """Sample one weight matrix. Pure function of (spec, stream state)."""
    gen = rng.generator
    rows, cols = spec.rows, spec.cols
    if spec.method == "glorot-uniform":
        bound = math.sqrt(6.0 / (rows + cols))
        return gen.uniform(-bound, bound, size=(rows, cols))
    if spec.method == "glorot-normal":
        return gen.normal(0.0, math.sqrt(2.0 / (rows + cols)), size=(rows, cols))
    if spec.method == "kaiming-uniform":
        bound = math.sqrt(6.0 / rows)
        return gen.uniform(-bound, bound, size=(rows, cols))
    if spec.method == "kaiming-normal":
        return gen.normal(0.0, math.sqrt(2.0 / rows), size=(rows, cols))
    if spec.method == "truncated-normal":
        return _truncated_normal(rows, cols, gen)
    if spec.method == "orthogonal":
        return _orthogonal(rows, cols, gen, spec.gain)
    raise AssertionError(spec.method)


def _truncated_normal(rows: int, cols: int, gen: np.random.Generator) -> np.ndarray:
    sigma = math.sqrt(2.0 / rows)
    w = gen.normal(0.0, sigma, size=(rows, cols))
    bad = np.abs(w) > 3.0 * sigma
    while bad.any():
        w[bad] = gen.normal(0.0, sigma, size=int(bad.sum()))
        bad = np.abs(w) > 3.0 * sigma
    return w


def _orthogonal(rows: int, cols: int, gen: np.random.Generator, gain: float) -> np.ndarray:
    big, small = max(rows, cols), min(rows, cols)
    a = gen.normal(0.0, 1.0, size=(big, small))
    q, r = np.linalg.qr(a)
    # fix signs so the factorization (and hence the draw) is unique
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    if rows < cols:
        q = q.T
    return np.ascontiguousarray(gain * q)
