"""Output checks, run outside the timed part of every round.

Each function returns a list of problems; an empty list means the output
passed. They use numpy only, so a defect in the package cannot hide
itself by also breaking its own check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Criterion 02's bound: bidirectional rewiring leaves at most 10% of the
# unrewired input-side strength variance at 1024^2. It is checked at the
# sweep sizes only; small layers collapse less and have no stated bound.
COLLAPSE_BOUND = 0.10
COLLAPSE_CHECKED_SIZES = (1024, 4096)


def rewire_problems(before: np.ndarray, after: np.ndarray, passes: str) -> list[str]:
    """A rewired layer must be finite and hold the same entries as its input.

    An input-only pass permutes within columns, so each column must keep
    its own entries; the bidirectional mode also permutes within rows, so
    only the whole multiset is kept.
    """
    if after.shape != before.shape:
        return [f"rewired shape {after.shape} differs from input shape {before.shape}"]
    problems = []
    if not np.isfinite(after).all():
        problems.append(f"rewired layer has {int(np.count_nonzero(~np.isfinite(after)))} non-finite entries")
    if passes == "input-only":
        if not np.array_equal(np.sort(before, axis=0), np.sort(after, axis=0)):
            problems.append("a rewired column is not a permutation of the same input column")
    elif not np.array_equal(np.sort(before, axis=None), np.sort(after, axis=None)):
        problems.append("rewired entries are not a permutation of the input entries")
    return problems


def collapse_problems(size: int, ratio: float) -> list[str]:
    """Rewired / unrewired input-side strength variance of an n x n layer."""
    if not math.isfinite(ratio):
        return [f"collapse ratio is {ratio}"]
    if size in COLLAPSE_CHECKED_SIZES and ratio > COLLAPSE_BOUND:
        return [f"collapse ratio {ratio:.4f} at {size}x{size} exceeds {COLLAPSE_BOUND}"]
    return []


def train_problems(out_dir: Path, arms: tuple[str, ...], min_acc: float) -> tuple[dict[str, list[float]], list[str]]:
    """Check the files a manifest run wrote.

    Returns the test accuracy of every repetition that passed, per arm,
    and the problems found. A repetition fails when its records hold a
    non-finite value or its test accuracy is not above ``min_acc``, and
    every repetition fails when the comparison report is missing.
    """
    try:
        json.loads((out_dir / "comparison.json").read_text())
    except (OSError, ValueError) as exc:
        return {arm: [] for arm in arms}, [f"comparison.json unreadable: {exc}"]
    problems = []
    passed: dict[str, list[float]] = {}
    for arm in arms:
        passed[arm] = []
        for path in sorted((out_dir / arm).glob("rep_*.jsonl")):
            records = [json.loads(line) for line in path.read_text().splitlines()]
            values = [v for rec in records for v in rec.values() if isinstance(v, float)]
            acc = records[-1].get("test_acc", float("nan"))
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{arm}/{path.name}: non-finite value in the records")
            elif not acc > min_acc:
                problems.append(f"{arm}/{path.name}: test accuracy {acc} is not above {min_acc}")
            else:
                passed[arm].append(acc)
    return passed, problems
