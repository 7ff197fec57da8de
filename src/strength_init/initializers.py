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
    orthogonal        semi-orthogonal columns/rows scaled by `gain`

Orthogonal's QR goes through LAPACK to BLAS, so it holds _one_blas_thread,
the package's one BLAS pin: a draw is the same at any OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import operator
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["METHODS", "InitSpec", "init"]

METHODS = (
    "glorot-uniform",
    "glorot-normal",
    "kaiming-uniform",
    "kaiming-normal",
    "truncated-normal",
    "orthogonal",
)


# The package's rules for integer and real arguments. This module imports
# nothing from the package, so every other module can use them.
def _int(value, what: str) -> int:
    """`value` as a plain int. numpy integers pass; 2.5, "2" and True
    (which operator.index would take as 1) raise ValueError naming `what`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what}: integers only, got {value!r}")


def _ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of plain ints, each read by _int; a value that
    is not iterable, such as 3, raises ValueError naming `what`."""
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(f"{what}: a sequence of integers, got {values!r}") from None
    return tuple(_int(v, what) for v in items)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@functools.cache
def _openblas_thread_functions():
    """(get, set) for the thread count of the OpenBLAS that numpy ships in
    numpy.libs, or None when no such library or symbol is found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or another build's symbols
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


# The OpenBLAS thread count is process-wide, so the pin is too: the holders
# in the process, and the count the first of them found.
_PIN_LOCK = threading.Lock()
_pin_holders = 0
_pin_saved = 0


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread; yields whether it could be pinned
    (False leaves BLAS untouched). Holds may nest and overlap across
    threads: the first holder saves the thread count and sets 1, and the
    last restores it, so no holder sees the count change under it."""
    global _pin_holders, _pin_saved
    funcs = _openblas_thread_functions()
    if funcs is None:
        yield False
        return
    get, set_ = funcs
    with _PIN_LOCK:
        if _pin_holders == 0:
            _pin_saved = get()
            set_(1)
        _pin_holders += 1
    try:
        yield True
    finally:
        with _PIN_LOCK:
            _pin_holders -= 1
            if _pin_holders == 0:
                set_(_pin_saved)


@dataclass(frozen=True)
class InitSpec:
    """Which initializer to run and at what shape."""

    method: str
    rows: int
    cols: int
    gain: float = 1.0  # orthogonal's scale; every other method refuses a gain but 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown init method {self.method!r}, expected one of {METHODS}")
        _int(self.rows, "rows"), _int(self.cols, "cols")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got ({self.rows}, {self.cols})")
        if not (_real(self.gain) and math.isfinite(self.gain)):
            raise ValueError(f"gain must be a finite number, got {self.gain!r}")
        if self.gain != 1.0 and self.method != "orthogonal":
            raise ValueError(f"only orthogonal takes a gain, {self.method} got gain={self.gain!r}")


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
        return _orthogonal(rows, cols, rng, spec.gain)
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
    with _one_blas_thread():
        q, r = np.linalg.qr(a)
    # fix signs so the factorization (and hence the draw) is unique, and
    # scale in the same step: a factor of -1 or 1 commutes exactly with gain
    q *= np.where(np.diag(r) < 0.0, -gain, gain)
    return np.ascontiguousarray(q.T if rows < cols else q)
