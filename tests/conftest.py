"""Shared fixtures plus one pass/fail line per acceptance criterion."""

import re

import numpy as np
import pytest
from hypothesis import settings

from strength_init.rng import derive_stream

# property tests draw a fixed sequence of examples, with no time limit per
# example and no example database, so every run checks the same cases
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("tier1")

_ACCEPTANCE_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_acceptance_results: dict[str, str] = {}


@pytest.fixture
def stream():
    """A fresh deterministic stream per test."""
    return derive_stream(7, 0, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_runtest_logreport(report):
    m = _ACCEPTANCE_PATTERN.search(report.nodeid)
    if not m:
        return
    key = f"{int(m.group(1)):02d} {m.group(2).replace('_', ' ')}"
    if report.when == "call":
        _acceptance_results[key] = report.outcome.upper()
    elif report.when == "setup" and report.outcome in ("skipped", "failed"):
        _acceptance_results[key] = report.outcome.upper()


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_acceptance_results):
        terminalreporter.write_line(f"ACCEPTANCE {key}: {_acceptance_results[key]}")
