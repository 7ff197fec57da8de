"""Weight-matrix representation, serialization, and conv reshaping.

A layer's weights are a 2-D float64 array of shape (n_in, n_out): entry
(i, x) is the connection weight between input neuron i and output neuron x.
Convolutional weights are 4-D (w, h, z, o) arrays, where w and h are the
filter's spatial dimensions, z the input channels, and o the output
channels; they map to 2-D with n_in = w*h*z rows and o columns.

WMAT is the repository's on-disk binary format: a single ASCII header line

    WMAT1 rows=<R> cols=<C> dtype=f64 order=row-major endian=little\\n

followed immediately by R*C*8 bytes of raw little-endian float64. The
round trip is bit-exact, which the reproducibility checks rely on.

A matrix of the wrong rank, an empty shape or a non-finite entry, and a
file that breaks the format, are refused with ValueError; a failure of
the file system itself surfaces as OSError.
"""

from __future__ import annotations

import io
import os
import re

import numpy as np

from .initializers import _int

__all__ = [
    "validate_matrix",
    "save_matrix",
    "load_matrix",
    "conv_to_2d",
    "conv_from_2d",
]

_HEADER_RE = re.compile(
    rb"\AWMAT1 rows=([0-9]+) cols=([0-9]+) dtype=f64 order=row-major endian=little\Z"
)
_MAX_HEADER_LEN = 128


def _checked(a, ndim: int, name: str) -> np.ndarray:
    """`a` as a C-contiguous float64 array of rank `ndim` with every
    dimension >= 1 and every entry finite; aliases `a` when it conforms."""
    arr = np.asarray(a, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} must have all dims >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(f"{name} has {bad} non-finite entries")
    return arr


def validate_matrix(m, name: str = "matrix") -> np.ndarray:
    """Return `m` as a C-contiguous float64 2-D array, checking invariants.

    Raises ValueError on a bad rank or shape and on a NaN or Inf entry.
    The returned array may alias the input when it already conforms;
    callers that mutate must copy.
    """
    return _checked(m, 2, name)


def save_matrix(m, path) -> None:
    """Write `m` to `path` in WMAT format (bit-exact round trip)."""
    arr = validate_matrix(m)
    rows, cols = arr.shape
    header = f"WMAT1 rows={rows} cols={cols} dtype=f64 order=row-major endian=little\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(_bytes_view(arr.astype("<f8", copy=False)))


def load_matrix(path) -> np.ndarray:
    """Read a WMAT file back into a float64 matrix.

    The payload is read straight into the returned array. Raises
    ValueError, naming the path, when the header is missing or malformed,
    the payload length disagrees with the header's shape, or an entry is
    not finite; OSError when the file cannot be read.
    """
    with open(path, "rb") as f:
        header = _read_header_line(f, path)
        match = _HEADER_RE.match(header)
        if match is None:
            raise ValueError(f"{path}: malformed WMAT header {header!r}")
        rows, cols = int(match.group(1)), int(match.group(2))
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: header declares empty shape ({rows}, {cols})")
        expected = rows * cols * 8
        # compare with the file size before allocating, so a corrupt header
        # cannot ask for an arbitrarily large array
        found = os.fstat(f.fileno()).st_size - f.tell()
        if found == expected:
            arr = np.empty((rows, cols), dtype="<f8")
            # a file that shrinks or grows while being read still fails below
            found = f.readinto(_bytes_view(arr)) + len(f.read(1))
        if found != expected:
            raise ValueError(
                f"{path}: expected {expected} payload bytes for shape "
                f"({rows}, {cols}), found {found}"
            )
    return _checked(arr, 2, f"{path}: payload")


def _bytes_view(arr: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array, without copying them."""
    return memoryview(arr).cast("B")


def _read_header_line(f: io.BufferedReader, path) -> bytes:
    line = f.readline(_MAX_HEADER_LEN)
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: missing or overlong WMAT header line")
    return line[:-1]


def conv_to_2d(t) -> np.ndarray:
    """Reshape a (w, h, z, o) filter bank to a (w*h*z, o) weight matrix.

    Filter position (iw, ih, iz) maps to row ((iw*h) + ih)*z + iz, i.e.
    w varies slowest. The bank is checked as validate_matrix checks a
    matrix. Both conv functions return a view of their input when it
    already conforms; callers that mutate must copy.
    """
    arr = _checked(t, 4, "conv tensor (w, h, z, o)")
    return arr.reshape(-1, arr.shape[3])


def conv_from_2d(m, filter_shape) -> np.ndarray:
    """Inverse of conv_to_2d: the (w, h, z, o) view of a (w*h*z, o) matrix."""
    w, h, z = (_int(v, "filter shape") for v in filter_shape)
    arr = validate_matrix(m)
    if arr.shape[0] != w * h * z:
        raise ValueError(
            f"matrix has {arr.shape[0]} rows, filter shape {(w, h, z)} needs {w * h * z}"
        )
    return arr.reshape(w, h, z, arr.shape[1])
