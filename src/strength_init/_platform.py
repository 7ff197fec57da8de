"""What every module of the package shares: its argument rules and its BLAS pin.

This module imports nothing from the package, so every other module can
use it. _one_blas_thread is the package's one BLAS pin. Orthogonal's QR
goes through LAPACK to BLAS, so it holds the pin: a draw is the same at
any OPENBLAS_NUM_THREADS. Training and evaluation hold it too.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import operator
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np


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


def _finite(value) -> bool:
    """Whether `value` is a finite real number; bools, NaN, Infinity and
    integers past the largest float are not."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _conform(a, ndim: int, name: str) -> np.ndarray:
    """`a` as a C-contiguous float64 array of rank `ndim` with every
    dimension >= 1; aliases `a` when it conforms."""
    arr = np.asarray(a, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} must have all dims >= 1, got {arr.shape}")
    return arr


def _require_finite(arr: np.ndarray, name: str) -> np.ndarray:
    """`arr` itself, once every entry is checked to be finite."""
    if not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(f"{name} has {bad} non-finite entries")
    return arr


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
