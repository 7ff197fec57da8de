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

import math
from dataclasses import dataclass

import numpy as np

from ._platform import _conform, _require_finite

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
    # a sum that overflows is inf, or nan where partial sums of +inf and -inf meet
    with np.errstate(over="ignore", invalid="ignore"):
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


def _moments(d: np.ndarray) -> tuple[float, float, float]:
    d2 = d * d
    d3 = d2 * d
    return float(d2.sum() / d.size), float(d3.sum() / d.size), float((d3 * d).sum() / d.size)


def strength_stats(m, side: str = "input") -> StrengthStats:
    """Strength-distribution summary for one side of a layer.

    Skewness and excess kurtosis are 0 for a constant strength vector.
    Each moment is sum / n, the arithmetic of np.mean. Strengths whose
    mean or fourth central moment overflows are refused with ValueError,
    so every field is finite.
    """
    v = strengths(m, side)
    hi, lo = float(v.max()), float(v.min())
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mu = float(v.sum() / v.size)
        # an exactly constant vector has zero deviations, not the rounding
        # noise of v - mean, so all its central moments are exactly 0
        d = np.zeros_like(v) if hi == lo else v - mu
        m2, m3, m4 = _moments(d)
    if not (math.isfinite(mu) and math.isfinite(m4)):  # m4 >= m2**2, so m4 overflows first
        raise ValueError(f"{side}-side strengths overflow: mean {mu}, fourth central moment {m4}")
    # below 2**-255 the largest |deviation| has a subnormal fourth power;
    # skewness and kurtosis do not depend on scale, so take them from d
    # times a power of two, which is exact
    peak = max(hi - mu, mu - lo)
    s2, s3, s4 = _moments(np.ldexp(d, -math.frexp(peak)[1])) if peak < 2.0**-255 else (m2, m3, m4)
    return StrengthStats(
        n=v.size,
        mean=mu,
        variance=m2,
        fourth_central_moment=m4,
        max_abs=abs(max(hi, -lo)),  # abs() turns a -0.0 maximum into 0.0
        skewness=s3 / s2**1.5 if s2 > 0.0 else 0.0,
        excess_kurtosis=s4 / (s2 * s2) - 3.0 if s2 > 0.0 else 0.0,
    )
