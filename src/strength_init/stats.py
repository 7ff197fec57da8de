"""Statistical comparison of run populations.

Two run populations (baseline weights vs a weight operation, same
configs otherwise) are compared metric by metric: a Welch two-sample
t-test decides whether the means differ, a two-group Kruskal-Wallis
H-test decides whether the medians differ, and each significant
difference is labelled improved or worsened with the metric's polarity
taken into account (higher accuracy is better, a lower convergence epoch
is better). Every verdict uses one significance level, ALPHA = 0.05:
differences with p >= ALPHA are labelled indistinct.

The test statistics are computed here from their defining formulas;
only the reference distributions (Student t, chi-square) come from
scipy.special, which is imported on first use: importing the package
and every command that computes no p-value load numpy alone. Nothing
here calls BLAS: pearson sums its products with numpy's own reductions,
whose bits do not depend on BLAS's thread count, so it holds no pin.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict, field

import numpy as np

__all__ = [
    "welch_t_test",
    "kruskal_wallis",
    "pearson",
    "median_abs_deviation",
    "sample_std",
    "MetricComparison",
    "ComparisonReport",
    "compare",
    "COMPARE_METRICS",
    "ALPHA",
]

ALPHA = 0.05

# (summary-record key, table label, higher is better)
COMPARE_METRICS = (
    ("epoch1_train_acc", "ep. 1 acc.", True),
    ("epoch1_val_acc", "ep. 1 val. acc.", True),
    ("convergence_epoch", "convergence", False),
    ("test_acc", "test acc.", True),
)


def _clean_sample(a, name: str, min_size: int) -> np.ndarray:
    v = np.asarray(a, dtype=np.float64).ravel()
    if v.size < min_size:
        raise ValueError(f"{name} needs at least {min_size} values, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite values")
    return v


def _t_sf(t: float, df: float) -> float:
    """P(T > t) for Student t with df degrees of freedom."""
    from scipy import special

    return float(special.stdtr(df, -t))


def welch_t_test(a, b) -> tuple[float, float]:
    """Two-sided unequal-variance t-test for a difference in means.

    Returns (t, p) with Welch-Satterthwaite degrees of freedom. Two
    identical-variance-zero samples with equal means give (0, 1) by
    convention; zero variance with distinct means gives p = 0.
    """
    x = _clean_sample(a, "a", 2)
    y = _clean_sample(b, "b", 2)
    na, nb = x.size, y.size
    va, vb = x.var(ddof=1), y.var(ddof=1)
    diff = x.mean() - y.mean()
    denom2 = va / na + vb / nb
    if denom2 == 0.0:
        if diff == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, diff), 0.0
    t = diff / math.sqrt(denom2)
    df = denom2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * _t_sf(abs(t), df)
    return float(t), min(1.0, float(p))


def _midranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks (1-based) of a pooled sample, plus tie-group sizes."""
    _, group, sizes = np.unique(pooled, return_inverse=True, return_counts=True)
    # the groups come in ascending order: group g holds ranks ends-sizes+1 .. ends
    ends = np.cumsum(sizes)
    return (0.5 * (ends - sizes + 1 + ends))[group], sizes.astype(np.float64)


def kruskal_wallis(a, b) -> tuple[float, float]:
    """Two-group Kruskal-Wallis H-test with tie correction.

    p comes from the chi-square distribution with one degree of freedom.
    Fully tied data (every value equal) gives (0, 1) by convention.
    """
    from scipy import special

    x = _clean_sample(a, "a", 2)
    y = _clean_sample(b, "b", 2)
    n = x.size + y.size
    pooled = np.concatenate([x, y])
    ranks, tie_sizes = _midranks(pooled)
    correction = 1.0 - float(np.sum(tie_sizes**3 - tie_sizes)) / (n**3 - n)
    if correction <= 0.0:
        return 0.0, 1.0
    mean_rank = 0.5 * (n + 1)
    rx = ranks[: x.size].mean()
    ry = ranks[x.size :].mean()
    h = (12.0 / (n * (n + 1))) * (
        x.size * (rx - mean_rank) ** 2 + y.size * (ry - mean_rank) ** 2
    )
    h /= correction
    p = float(special.chdtrc(1.0, h))
    return float(h), min(1.0, p)


def pearson(x, y) -> tuple[float, float]:
    """Sample correlation with a two-sided p from the t transform.

    r is mapped to t = r * sqrt((n-2) / (1-r**2)); |r| = 1 gives p = 0.
    Raises ValueError when either sample has zero variance.
    """
    vx = _clean_sample(x, "x", 3)
    vy = _clean_sample(y, "y", 3)
    if vx.size != vy.size:
        raise ValueError(f"samples must have equal length, got {vx.size} and {vy.size}")
    dx = vx - vx.mean()
    dy = vy - vy.mean()
    # numpy's own sums, not BLAS dot products, whose bits depend on BLAS's threads
    sx = math.sqrt(float(np.sum(dx * dx)))
    sy = math.sqrt(float(np.sum(dy * dy)))
    dxy = float(np.sum(dx * dy))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for zero-variance sample")
    r = dxy / (sx * sy)
    r = max(-1.0, min(1.0, r))
    n = vx.size
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * _t_sf(abs(t), n - 2)
    return r, min(1.0, float(p))


def sample_std(a) -> float:
    """Sample standard deviation (ddof=1); 0 for a single value."""
    v = np.asarray(a, dtype=np.float64)
    return float(v.std(ddof=1)) if v.size > 1 else 0.0


def median_abs_deviation(a) -> float:
    """Median of absolute deviations from the median (unscaled)."""
    v = _clean_sample(a, "a", 1)
    return float(np.median(np.abs(v - np.median(v))))


@dataclass(frozen=True)
class MetricComparison:
    """Baseline-vs-treatment outcome for one metric."""

    metric: str
    label: str
    higher_is_better: bool
    baseline_mean: float
    baseline_std: float
    treatment_mean: float
    treatment_std: float
    baseline_median: float
    baseline_mad: float
    treatment_median: float
    treatment_mad: float
    t_stat: float
    t_p: float
    h_stat: float
    h_p: float
    mean_verdict: str
    median_verdict: str


@dataclass
class ComparisonReport:
    """Per-metric verdicts for a baseline vs treatment population pair."""

    n_baseline: int
    n_treatment: int
    metrics: list[MetricComparison] = field(default_factory=list)

    def metric(self, name: str) -> MetricComparison:
        for m in self.metrics:
            if m.metric == name:
                return m
        raise KeyError(name)

    def to_json(self) -> str:
        doc = {
            "alpha": ALPHA,
            "n_baseline": self.n_baseline,
            "n_treatment": self.n_treatment,
            "metrics": [asdict(m) for m in self.metrics],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_markdown(self) -> str:
        """Two-row table mirroring the comparison tables: baseline values,
        then treatment values with a (+)/(-)/(=) marker per cell."""
        header = (
            "| weights | "
            + " | ".join(m.label for m in self.metrics)
            + " | test acc. median |"
        )
        rule = "|" + "---|" * (len(self.metrics) + 2)
        base_cells = [f"{m.baseline_mean:.2f}±{m.baseline_std:.2f}" for m in self.metrics]
        treat_cells = [
            f"{m.treatment_mean:.2f}±{m.treatment_std:.2f} {_marker(m.mean_verdict)}"
            for m in self.metrics
        ]
        test = self.metric("test_acc")
        base_cells.append(f"{test.baseline_median:.2f}±{test.baseline_mad:.2f}")
        treat_cells.append(
            f"{test.treatment_median:.2f}±{test.treatment_mad:.2f} {_marker(test.median_verdict)}"
        )
        lines = [
            header,
            rule,
            "| baseline | " + " | ".join(base_cells) + " |",
            "| treatment | " + " | ".join(treat_cells) + " |",
        ]
        return "\n".join(lines) + "\n"


def _marker(verdict: str) -> str:
    return {"improved": "(+)", "worsened": "(−)", "indistinct": "(=)"}[verdict]


def _verdict(p: float, diff: float, higher_is_better: bool) -> str:
    if p >= ALPHA or diff == 0.0:
        return "indistinct"
    better = diff > 0.0 if higher_is_better else diff < 0.0
    return "improved" if better else "worsened"


def _extract(runs, key: str) -> np.ndarray:
    return np.asarray([run[key] for run in runs], dtype=np.float64)


def compare(baseline, treatment) -> ComparisonReport:
    """Compare two run populations metric by metric.

    `baseline` and `treatment` are sequences of run summary dicts (the
    summary records of rep_*.jsonl files, as a manifest run writes them
    and read_run_dir reads them) with at least two runs each, or
    ValueError names the short arm; each dict holds epoch1_train_acc,
    epoch1_val_acc, convergence_epoch and test_acc. Population sizes may
    differ (the tests are unpaired), but a size mismatch is worth a
    warning since paired seeds are the usual setup.
    """
    baseline = list(baseline)
    treatment = list(treatment)
    for arm, runs in (("baseline", baseline), ("treatment", treatment)):
        if len(runs) < 2:
            raise ValueError(f"the {arm} arm needs at least 2 runs, got {len(runs)}")
    if len(baseline) != len(treatment):
        warnings.warn(
            f"population sizes differ ({len(baseline)} vs {len(treatment)}); "
            "running unpaired tests",
            stacklevel=2,
        )
    report = ComparisonReport(n_baseline=len(baseline), n_treatment=len(treatment))
    for key, label, higher in COMPARE_METRICS:
        b = _extract(baseline, key)
        t = _extract(treatment, key)
        t_stat, t_p = welch_t_test(t, b)
        h_stat, h_p = kruskal_wallis(t, b)
        b_median, t_median = float(np.median(b)), float(np.median(t))
        report.metrics.append(
            MetricComparison(
                metric=key,
                label=label,
                higher_is_better=higher,
                baseline_mean=float(b.mean()),
                baseline_std=sample_std(b),
                treatment_mean=float(t.mean()),
                treatment_std=sample_std(t),
                baseline_median=b_median,
                baseline_mad=median_abs_deviation(b),
                treatment_median=t_median,
                treatment_mad=median_abs_deviation(t),
                t_stat=t_stat,
                t_p=t_p,
                h_stat=h_stat,
                h_p=h_p,
                mean_verdict=_verdict(t_p, float(t.mean() - b.mean()), higher),
                median_verdict=_verdict(h_p, t_median - b_median, higher),
            )
        )
    return report
