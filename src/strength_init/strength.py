"""Neuronal strength (weighted degree) and its distribution statistics.

The strength of a neuron is the sum of its incident connection weights.
For a weight matrix of shape (n_in, n_out), input-side strengths are the
row sums (length n_in) and output-side strengths are the column sums
(length n_out). Because a strength is a sum of many independent weights,
its distribution is approximately normal with variance equal to the
per-weight variance times the fan (the sum-of-variances law), and its
tails grow with layer size even when the weights themselves are bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_io import _conform, _require_finite

__all__ = [
    "SIDES",
    "strengths",
    "StrengthStats",
    "strength_stats",
]

SIDES = ("input", "output")


def strengths(m, side: str = "input") -> np.ndarray:
    """Strength vector of one side of a layer: row sums or column sums.

    numpy's fixed (pairwise, ascending-index) summation makes the result
    reproducible for a given matrix. A matrix of the wrong rank or shape
    is refused, and so is one with a NaN or Inf entry, but the entries are
    scanned only when a sum is not finite: a NaN or Inf entry always makes
    its sums non-finite.
    """
    arr = _conform(m, 2, "matrix")
    if side not in SIDES:
        _require_finite(arr, "matrix")  # a bad matrix is reported before a bad side
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    s = arr.sum(axis=1 if side == "input" else 0)
    if not np.isfinite(s).all():
        _require_finite(arr, "matrix")
    return s


@dataclass(frozen=True)
class StrengthStats:
    """Population moments of one strength vector (denominator n)."""

    n: int
    mean: float
    variance: float
    fourth_central_moment: float
    max_abs: float
    skewness: float
    excess_kurtosis: float


def strength_stats(m, side: str = "input") -> StrengthStats:
    """Strength-distribution summary for one side of a layer.

    Skewness and excess kurtosis are 0 for a constant strength vector.
    """
    v = strengths(m, side)
    n = v.size
    hi, lo = float(v.max()), float(v.min())
    mu = float(v.sum() / n)  # each moment is sum / n, the arithmetic of np.mean
    # an exactly constant vector has zero deviations, not the rounding
    # noise of v - mean, so all its central moments are exactly 0
    d = np.zeros_like(v) if hi == lo else v - mu
    d2 = d * d
    d3 = d2 * d
    m2 = float(d2.sum() / n)
    m3 = float(d3.sum() / n)
    m4 = float((d3 * d).sum() / n)
    if m2 > 0.0:
        skew = m3 / m2**1.5
        exk = m4 / (m2 * m2) - 3.0
    else:
        skew = 0.0
        exk = 0.0
    return StrengthStats(
        n=n,
        mean=mu,
        variance=m2,
        fourth_central_moment=m4,
        max_abs=abs(max(hi, -lo)),  # abs() turns a -0.0 maximum into 0.0
        skewness=skew,
        excess_kurtosis=exk,
    )
