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
reference the blocked passes below are tested against.

Memory: besides the caller's input, pa_rewire holds one working copy of
the matrix plus the output, never more. The input-side pass runs in place
on a transposed copy, which is freed once it has been copied back into
the output; the bidirectional second pass runs in place on the output.
Scratch space beyond that is two blocks of about 2**16 values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .initializers import InitSpec, _index, init
from .matrix_io import validate_conv, validate_matrix
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

# Values per block of rows in a pass: bounds the pass's scratch memory to
# two blocks (sorted rows and keys) while amortizing per-call overhead.
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


def _pass_rows(a: np.ndarray, gen: np.random.Generator) -> None:
    """One rewiring pass over rows 1.. of a C-contiguous array, in place.

    Row t of `a` is column t of the layer being rewired, so every step
    reads and writes one contiguous row. Rows are processed in blocks of
    about _BLOCK values. A block's rows are sorted when the block starts:
    a row is untouched until its own turn, so this equals sorting every
    row up front. Its exponential keys come from one draw, which yields
    the same stream as one draw of len(row) values per row, so each row
    is placed in the order weighted_draw_order (tests/helpers.py) gives.
    """
    n_rows, n = a.shape
    if n_rows == 1 or n == 1:
        return
    s = a[0].copy()
    block = max(1, _BLOCK // n)
    for start in range(1, n_rows, block):
        stop = min(start + block, n_rows)
        sorted_rows = np.sort(a[start:stop], axis=1)
        if not sorted_rows.all():
            _restore_negative_zeros(a[start:stop], sorted_rows)
        keys = gen.standard_exponential((stop - start) * n).reshape(stop - start, n)
        for i in range(stop - start):
            k = keys[i]
            np.divide(k, attachment_scores(s), out=k)
            row = a[start + i]
            row[np.argsort(k)] = sorted_rows[i]
            s += row


def _check_score_bound(w: np.ndarray, passes: str) -> None:
    """Reject weights whose exponential keys could overflow float64.

    A pass over an (n_in, n_out) matrix keeps |s| <= n_out * max|w|, so
    the unnormalized scores, each at least 1, sum to at most
    S = n_in * (2 * n_out * max|w| + 1), and no normalized score is below
    1/S. A key is an Exp(1) draw divided by a normalized score, and
    standard_exponential never exceeds about 44.4; 64 is the power of two
    above that. Requiring 64 * S to be finite therefore keeps every score
    a normal float and every key finite, so the exponential race alone
    orders the draw. The bidirectional second pass runs on the transpose.
    """
    n_in, n_out = w.shape
    amax = float(max(w.max(), -w.min()))
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

    The bidirectional mode runs the input-side pass, repeats it on the
    transpose of the result, and transposes back, so both strength
    distributions collapse. The multiset of weight values is preserved
    exactly in every mode. Raises ValueError when the weights are so large
    that the exponential keys of the draw would overflow.
    """
    w = validate_matrix(m)
    _check_score_bound(w, cfg.passes)
    # the input-side pass walks the columns of w, i.e. the rows of w.T
    work = w.T.copy()
    _pass_rows(work, cfg.rng)
    out = work.T.copy()
    del work  # free it before the second pass: one working copy at a time
    if cfg.passes == "bidirectional":
        # the output-side pass walks the rows of the result itself
        _pass_rows(out, cfg.rng)
    return out


def pa_rewire_conv(t, cfg: RewireConfig) -> np.ndarray:
    """Rewire a (w, h, z, o) filter bank through its 2-D form (see conv_to_2d).

    Both reshapes are views: of the validated, C-contiguous bank, which
    pa_rewire only reads, and of pa_rewire's fresh output.
    """
    arr = validate_conv(t)
    w, h, z, o = arr.shape
    return pa_rewire(arr.reshape(w * h * z, o), cfg).reshape(arr.shape)


def variance_search(spec: InitSpec, k: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Random-search baseline: draw `k` candidate layers, keep one extreme.

    Selects the candidate with the smallest (mode="min") or largest
    (mode="max") input-side strength variance; ties keep the earliest
    candidate. This isolates the effect of strength variance without
    touching the weight distribution's shape.
    """
    if k < 1:
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


def _sizes(sizes) -> list[int]:
    """The layer sizes of a probe or sweep; 64.9 and True are refused, not truncated."""
    try:
        sizes = [_index(n) for n in sizes]
    except TypeError:
        raise ValueError(f"sizes must be integers, got {sizes!r}") from None
    if not sizes:
        raise ValueError("sizes must be nonempty")
    return sizes


def rewire_cost_probe(sizes, reps: int = 3, seed: int = 0):
    """Wall-time of bidirectional pa_rewire on square n-by-n layers, one row per size.

    `sizes` must be ascending and `reps` >= 1. Each size is timed `reps`
    times on the same matrix and the minimum is kept, after one small
    warmup call, so allocator and frequency-scaling noise does not distort
    the scaling fit. Returns a list of (n, seconds) tuples.
    """
    sizes = _sizes(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    warm = derive_stream(seed, 0, 0)
    pa_rewire(init(InitSpec("kaiming-uniform", 64, 64), warm), RewireConfig(rng=warm))
    table = []
    for idx, n in enumerate(sizes):
        stream = derive_stream(seed, idx, 0)
        w = init(InitSpec("kaiming-uniform", n, n), stream)
        best = float("inf")
        for rep in range(reps):
            cfg = RewireConfig(rng=derive_stream(seed, idx, rep + 1))
            t0 = time.perf_counter()
            pa_rewire(w, cfg)
            best = min(best, time.perf_counter() - t0)
        table.append((n, best))
    return table


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
    if trials < 1:
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
    """Least-squares slope of log(time) against log(n) for a probe table."""
    rows = [(n, t) for n, t in table]
    if len(rows) < 2:
        raise ValueError("need at least two sizes to fit a slope")
    x = np.log([n for n, _ in rows])
    y = np.log([t for _, t in rows])
    return float(np.polyfit(x, y, 1)[0])
