"""Preferential-attachment rewiring of initialized weight matrices.

Randomly initialized layers develop hub neurons: a few strengths far out
in the tails of an (approximately normal) strength distribution whose
spread only grows with layer size. The rewiring below reorganizes the
already-sampled weights of a layer so that every neuron's strength
collapses toward zero, without changing a single weight value: each
column of the result is a permutation of the same column of the input.

One pass walks the output neurons left to right, keeping a running
strength s of every input neuron over the columns visited so far
(column 0 is the seed and is never modified). At column t, selection
scores

    P(i) = (s(i) + |min_j s(j)| + 1) / sum_j (s(j) + |min_j s(j)| + 1)

turn the running strengths into a valid distribution: every neuron keeps
a positive chance, and the most positive strength gets the largest score.
All n_in input neurons are then drawn sequentially without replacement
under P, and column t's weights are handed out in ascending order: the
first neuron drawn receives the most negative weight, the last one drawn
the most positive. Strength hubs therefore tend to draw early and absorb
the negative tail, while negative-strength neurons draw late and absorb
the positive tail.

A pass drives the input-side strengths toward zero and leaves the
output-side sums untouched; running the same pass on the transpose of the
result ("bidirectional") collapses both sides.

The draw is the exponential race of Efraimidis & Spirakis, "Weighted
random sampling with a reservoir" (IPL 2006): neuron i gets an
Exp(1)/P(i) arrival time and the draw order is the arrival order. Its
per-column form, weighted_draw_order in tests/helpers.py, is the
tests' reference for the blocked passes below.

Memory: a rewire holds its output plus a few blocks of scratch, about
2**16 values each, and never a working copy of the layer. The input-side
pass reads the caller's matrix one slab of columns at a time and writes
the output; the bidirectional second pass runs in place on the output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._platform import _conform, _int, _ints, _require_finite
from .initializers import InitSpec, init
from .matrix_io import conv_to_2d
from .rng import derive_stream
from .strength import strengths

__all__ = [
    "PASS_MODES",
    "RewireConfig",
    "attachment_scores",
    "pa_rewire",
    "pa_rewire_conv",
    "variance_search",
    "rewire_cost_probe",
    "fit_loglog_slope",
    "SweepRow",
    "max_strength_scaling",
    "sweep_rows_to_csv",
]

PASS_MODES = ("input-only", "bidirectional")

# Values per block of a pass: bounds the pass's scratch memory to a few
# blocks (the slab, its sorted rows and keys) while amortizing per-call
# overhead.
_BLOCK = 1 << 16


@dataclass
class RewireConfig:
    """How to rewire: which passes to run and which stream feeds the draws."""

    rng: np.random.Generator
    passes: str = "bidirectional"

    def __post_init__(self):
        if self.passes not in PASS_MODES:
            raise ValueError(f"passes must be one of {PASS_MODES}, got {self.passes!r}")


def attachment_scores(s: np.ndarray) -> np.ndarray:
    """Selection probabilities from a running-strength vector.

    Shifts all strengths positive, adds 1 so no neuron is ever excluded,
    and normalizes. The result is strictly positive and sums to 1.
    """
    p = s + abs(s.min()) + 1.0
    p /= p.sum()
    return p


def _restore_negative_zeros(rows: np.ndarray, sorted_rows: np.ndarray) -> None:
    """Give each sorted row as many -0.0 as the same unsorted row held.

    np.sort may return +0.0 for a -0.0 that ties with a +0.0. The zeros of
    a sorted row are contiguous; the first n_neg of them become -0.0 and
    the rest +0.0, whatever signs the sort left there.
    """
    zero = rows == 0.0
    n_neg = np.count_nonzero(np.signbit(rows) & zero, axis=1)
    n_zero = np.count_nonzero(zero, axis=1)
    for i in np.flatnonzero(n_neg):
        first = np.searchsorted(sorted_rows[i], 0.0)
        sorted_rows[i, first : first + n_zero[i]] = 0.0
        sorted_rows[i, first : first + n_neg[i]] = -0.0


def _rewire_block(rows: np.ndarray, s: np.ndarray, gen: np.random.Generator) -> None:
    """Rewire the rows of one C-contiguous block in turn, in place.

    Row i of `rows` is the next column of the layer and `s` the running
    strength, updated after each row. The rows are sorted when the block
    starts: a row is untouched until its own turn, so this equals sorting
    every row up front. Their exponential keys come from one draw, which
    yields the same stream as one draw of len(row) values per row, so each
    row is placed in the order weighted_draw_order (tests/helpers.py) gives.
    """
    sorted_rows = np.sort(rows, axis=1)
    if not sorted_rows.all():
        _restore_negative_zeros(rows, sorted_rows)
    keys = gen.standard_exponential(rows.size).reshape(rows.shape)
    for k, row, sorted_row in zip(keys, rows, sorted_rows):
        np.divide(k, attachment_scores(s), out=k)
        row[k.argsort()] = sorted_row
        s += row


def _pass(src: np.ndarray, dst: np.ndarray, gen: np.random.Generator) -> None:
    """One rewiring pass over rows 1.. of `src`, written into `dst`.

    Row t of `src` is column t of the layer being rewired; row 0 is copied
    unchanged. Rows are rewired in blocks of about _BLOCK values. The
    output-side pass runs in place (`dst` is `src`, the C-contiguous
    output). In the input-side pass `src` and `dst` are the transposes of
    the caller's matrix and of the output, so a block is a slab of
    columns: it is copied out as contiguous row pieces, transposed in
    cache and, once rewired, written into the same columns of the output.
    """
    n_rows, n = src.shape
    dst[0] = src[0]
    if n == 1:  # a one-weight column has nothing to permute
        dst[1:] = src[1:]
        return
    s = src[0].copy()
    block = max(1, _BLOCK // n)
    for start in range(1, n_rows, block):
        stop = min(start + block, n_rows)
        rows = dst[start:stop] if src is dst else src[start:stop].T.copy().T.copy()
        _rewire_block(rows, s, gen)
        dst[start:stop] = rows


def _check_score_bound(w: np.ndarray, passes: str) -> None:
    """Reject non-finite weights, then weights whose exponential keys
    could overflow float64.

    A pass over an (n_in, n_out) matrix keeps |s| <= n_out * max|w|, so
    the unnormalized scores, each at least 1, sum to at most
    S = n_in * (2 * n_out * max|w| + 1), and no normalized score is below
    1/S. A key is an Exp(1) draw divided by a normalized score, and
    standard_exponential never exceeds about 44.4; 64 is the power of two
    above that. Requiring 64 * S to be finite therefore keeps every score
    a normal float and every key finite, so the exponential race alone
    orders the draw. The bidirectional second pass runs on the transpose.
    The entries are scanned for NaN and Inf only when max or min is not
    finite, which any such entry makes them.
    """
    n_in, n_out = w.shape
    hi, lo = float(w.max()), float(w.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        _require_finite(w, "matrix")
    amax = max(hi, -lo)
    shapes = [(n_in, n_out)]
    if passes == "bidirectional":
        shapes.append((n_out, n_in))
    for rows, cols in shapes:
        if not math.isfinite(64.0 * rows * (2.0 * cols * amax + 1.0)):
            raise ValueError(
                f"max |w| = {amax:.3g} overflows the exponential keys of a "
                f"{rows}x{cols} pass"
            )


def pa_rewire(m, cfg: RewireConfig) -> np.ndarray:
    """Rewire a layer: one input-side pass, or both sides in sequence.

    The bidirectional mode follows the input-side pass with the same pass
    over the rows of the result, which is the input-side pass of its
    transpose, so both strength distributions collapse. The multiset of
    weight values is preserved exactly in every mode. Raises ValueError
    when the weights are so large that the exponential keys of the draw
    would overflow.
    """
    w = _conform(m, 2, "matrix")
    _check_score_bound(w, cfg.passes)
    out = np.empty_like(w)
    # the input-side pass walks the columns of w, i.e. the rows of w.T
    _pass(w.T, out.T, cfg.rng)
    if cfg.passes == "bidirectional":
        # the output-side pass walks the rows of the result itself
        _pass(out, out, cfg.rng)
    return out


def pa_rewire_conv(t, cfg: RewireConfig) -> np.ndarray:
    """Rewire a (w, h, z, o) filter bank through its 2-D form (see conv_to_2d).
    Both reshapes are views, and pa_rewire only reads the bank."""
    return pa_rewire(conv_to_2d(t), cfg).reshape(np.shape(t))


def variance_search(spec: InitSpec, k: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Random-search baseline: draw `k` candidate layers, keep one extreme.

    Selects the candidate with the smallest (mode="min") or largest
    (mode="max") input-side strength variance; ties keep the earliest
    candidate. This isolates the effect of strength variance without
    touching the weight distribution's shape.
    """
    if _int(k, "k") < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    best = None
    best_var = None
    for _ in range(k):
        cand = init(spec, rng)
        var = float(strengths(cand, "input").var())
        if best is None or (mode == "min" and var < best_var) or (mode == "max" and var > best_var):
            best, best_var = cand, var
    return best


def _sizes(sizes) -> tuple[int, ...]:
    """The layer sizes of a probe or sweep; 64.9 and True are refused, not truncated."""
    sizes = _ints(sizes, "sizes")
    if not sizes:
        raise ValueError("sizes must be nonempty")
    return sizes


def rewire_cost_probe(sizes, reps: int = 3, seed: int = 0):
    """Wall-time of bidirectional pa_rewire on square n-by-n layers, one row per size.

    `sizes` must be ascending and `reps` >= 1. After one small warmup
    call, every size is timed once per rep, on the same matrix each time,
    and the minimum per size is kept. Timing the sizes rep by rep spreads
    each size's calls over the whole probe, so a slow stretch of the
    machine cannot hold all of one size's calls and tilt the scaling fit.
    Returns a list of (n, seconds) tuples.
    """
    sizes = _sizes(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if _int(reps, "reps") < 1:
        raise ValueError("reps must be >= 1")
    warm = derive_stream(seed, 0, 0)
    pa_rewire(init(InitSpec("kaiming-uniform", 64, 64), warm), RewireConfig(rng=warm))
    best = [float("inf")] * len(sizes)
    for rep in range(reps):
        for idx, n in enumerate(sizes):
            # rebuilt per call, so only one size's matrix is held at a time
            w = init(InitSpec("kaiming-uniform", n, n), derive_stream(seed, idx, 0))
            cfg = RewireConfig(rng=derive_stream(seed, idx, rep + 1))
            t0 = time.perf_counter()
            pa_rewire(w, cfg)
            best[idx] = min(best[idx], time.perf_counter() - t0)
    return list(zip(sizes, best))


@dataclass(frozen=True)
class SweepRow:
    """Max-|strength| statistics for one layer size, before/after rewiring."""

    size: int
    base_mean: float
    base_std: float
    rewired_mean: float
    rewired_std: float


def max_strength_scaling(
    method: str, sizes, trials: int, rng: np.random.Generator
) -> list[SweepRow]:
    """How the largest |strength| of a square n-by-n layer grows with n.

    For each size, `trials` layers are generated from the given stream and
    the maximum absolute input-side strength is recorded, before and after
    bidirectional rewiring of the same layers. Literature initializers
    show a max|s| that keeps growing with size; rewiring pushes it down at
    every size.
    """
    sizes = _sizes(sizes)
    if _int(trials, "trials") < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for n in sizes:
        base_max = np.empty(trials)
        rew_max = np.empty(trials)
        for k in range(trials):
            w = init(InitSpec(method, n, n), rng)
            base_max[k] = np.abs(w.sum(axis=1)).max()
            r = pa_rewire(w, RewireConfig(rng=rng))
            rew_max[k] = np.abs(r.sum(axis=1)).max()
        rows.append(
            SweepRow(
                size=n,
                base_mean=float(base_max.mean()),
                base_std=float(base_max.std()),
                rewired_mean=float(rew_max.mean()),
                rewired_std=float(rew_max.std()),
            )
        )
    return rows


def sweep_rows_to_csv(rows) -> str:
    """Render SweepRows as the CSV the sweep CLI emits."""
    lines = ["size,base_mean,base_std,rewired_mean,rewired_std"]
    for r in rows:
        lines.append(
            f"{r.size},{r.base_mean:.17g},{r.base_std:.17g},"
            f"{r.rewired_mean:.17g},{r.rewired_std:.17g}"
        )
    return "\n".join(lines) + "\n"


def fit_loglog_slope(table) -> float:
    """Least-squares slope of log(time) on log(n) for a probe table."""
    rows = [(n, t) for n, t in table]
    if len(rows) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    x = np.log([n for n, _ in rows])
    y = np.log([t for _, t in rows])
    return float(np.polyfit(x, y, 1)[0])
