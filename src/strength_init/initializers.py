"""Random weight initializers under a deterministic seeding contract.

All methods produce an (n_in, n_out) float64 matrix from a numpy Generator.
Fan-in is the row count n_in (for conv filter banks, w*h*z). Nominal
scales:

    glorot-uniform    U(-b, b), b = sqrt(6 / (n_in + n_out))
    glorot-normal     N(0, 2 / (n_in + n_out))
    kaiming-uniform   U(-b, b), b = sqrt(6 / n_in)
    kaiming-normal    N(0, 2 / n_in)
    truncated-normal  kaiming-normal with |w| <= 3*sigma enforced by
                      rejection resampling (no variance rescaling)
    orthogonal        semi-orthogonal, so var(W) = 1 / max(n_in, n_out)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._platform import _int, _one_blas_thread

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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown init method {self.method!r}, expected one of {METHODS}")
        _int(self.rows, "rows"), _int(self.cols, "cols")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got ({self.rows}, {self.cols})")


def init(spec: InitSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample one weight matrix. Pure function of (spec, stream state)."""
    rows, cols = spec.rows, spec.cols
    if spec.method == "glorot-uniform":
        bound = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols))
    if spec.method == "glorot-normal":
        return rng.normal(0.0, math.sqrt(2.0 / (rows + cols)), size=(rows, cols))
    if spec.method == "kaiming-uniform":
        bound = math.sqrt(6.0 / rows)
        return rng.uniform(-bound, bound, size=(rows, cols))
    if spec.method == "kaiming-normal":
        return rng.normal(0.0, math.sqrt(2.0 / rows), size=(rows, cols))
    if spec.method == "truncated-normal":
        return _truncated_normal(rows, cols, rng)
    if spec.method == "orthogonal":
        return _orthogonal(rows, cols, rng)
    raise AssertionError(spec.method)


def _truncated_normal(rows: int, cols: int, gen: np.random.Generator) -> np.ndarray:
    sigma = math.sqrt(2.0 / rows)
    w = gen.normal(0.0, sigma, size=(rows, cols))
    # redraw the out-of-range entries in flat order, re-checking only those
    bad = np.flatnonzero(np.abs(w) > 3.0 * sigma)
    while bad.size:
        w.flat[bad] = gen.normal(0.0, sigma, size=bad.size)
        bad = bad[np.abs(w.flat[bad]) > 3.0 * sigma]
    return w


def _orthogonal(rows: int, cols: int, gen: np.random.Generator) -> np.ndarray:
    big, small = max(rows, cols), min(rows, cols)
    a = gen.normal(0.0, 1.0, size=(big, small))
    with _one_blas_thread():
        q, r = np.linalg.qr(a)
    # fix signs so the factorization (and hence the draw) is unique
    q *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return np.ascontiguousarray(q.T if rows < cols else q)
