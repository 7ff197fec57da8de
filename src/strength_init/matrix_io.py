"""Weight-matrix representation, serialization, and conv reshaping.

A layer's weights are a 2-D float64 array of shape (n_in, n_out): entry
(i, x) is the connection weight between input neuron i and output neuron x.
Convolutional weights are 4-D (w, h, z, o) arrays, where w and h are the
filter's spatial dimensions, z the input channels, and o the output
channels; they map to 2-D with n_in = w*h*z rows and o columns.

WMAT is the repository's on-disk binary format: a single ASCII header line

    WMAT1 rows=<R> cols=<C> dtype=f64 order=row-major endian=little\\n

followed immediately by R*C*8 bytes of raw little-endian float64. The
round trip is bit-exact, which the reproducibility checks rely on. CSV
import/export is provided for interop, limited to 10**6 entries.
"""

from __future__ import annotations

import io
import os
import re

import numpy as np

__all__ = [
    "MatrixIOError",
    "HeaderError",
    "PayloadError",
    "NonFiniteError",
    "validate_matrix",
    "save_matrix",
    "load_matrix",
    "save_matrix_csv",
    "load_matrix_csv",
    "conv_to_2d",
    "conv_from_2d",
    "transpose",
]

CSV_MAX_ENTRIES = 10**6

_HEADER_RE = re.compile(
    rb"\AWMAT1 rows=([0-9]+) cols=([0-9]+) dtype=f64 order=row-major endian=little\Z"
)
_MAX_HEADER_LEN = 128


class MatrixIOError(Exception):
    """Base class for matrix I/O failures."""


class HeaderError(MatrixIOError):
    """WMAT header line is missing, malformed, or declares a bad shape."""


class PayloadError(MatrixIOError):
    """Payload length does not match the shape declared in the header."""


class NonFiniteError(MatrixIOError):
    """A matrix entry is NaN or infinite."""


def validate_matrix(m, name: str = "matrix") -> np.ndarray:
    """Return `m` as a C-contiguous float64 2-D array, checking invariants.

    Raises ValueError on bad rank/shape and NonFiniteError on NaN/Inf.
    The returned array may alias the input when it already conforms;
    callers that mutate must copy.
    """
    arr = np.asarray(m, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have rows, cols >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NonFiniteError(f"{name} has {bad} non-finite entries")
    return arr


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
    HeaderError, PayloadError, or NonFiniteError depending on what is
    wrong with the file.
    """
    with open(path, "rb") as f:
        header = _read_header_line(f, path)
        match = _HEADER_RE.match(header)
        if match is None:
            raise HeaderError(f"{path}: malformed WMAT header {header!r}")
        rows, cols = int(match.group(1)), int(match.group(2))
        if rows < 1 or cols < 1:
            raise HeaderError(f"{path}: header declares empty shape ({rows}, {cols})")
        expected = rows * cols * 8
        # compare with the file size before allocating, so a corrupt header
        # cannot ask for an arbitrarily large array
        found = os.fstat(f.fileno()).st_size - f.tell()
        if found == expected:
            arr = np.empty((rows, cols), dtype="<f8")
            # a file that shrinks or grows while being read still fails below
            found = f.readinto(_bytes_view(arr)) + len(f.read(1))
        if found != expected:
            raise PayloadError(
                f"{path}: expected {expected} payload bytes for shape "
                f"({rows}, {cols}), found {found}"
            )
    arr = arr.astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NonFiniteError(f"{path}: payload has {bad} non-finite entries")
    return arr


def _bytes_view(arr: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array, without copying them."""
    return memoryview(arr).cast("B")


def _read_header_line(f: io.BufferedReader, path) -> bytes:
    line = f.readline(_MAX_HEADER_LEN)
    if not line.endswith(b"\n"):
        raise HeaderError(f"{path}: missing or overlong WMAT header line")
    return line[:-1]


def save_matrix_csv(m, path) -> None:
    """Write `m` as plain comma-separated rows (matrices up to 10**6 entries)."""
    arr = validate_matrix(m)
    if arr.size > CSV_MAX_ENTRIES:
        raise ValueError(f"CSV export limited to {CSV_MAX_ENTRIES} entries, got {arr.size}")
    np.savetxt(path, arr, delimiter=",", fmt="%.17g")


def load_matrix_csv(path) -> np.ndarray:
    """Read a comma-separated matrix written by save_matrix_csv."""
    arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if arr.size > CSV_MAX_ENTRIES:
        raise ValueError(f"CSV import limited to {CSV_MAX_ENTRIES} entries, got {arr.size}")
    return validate_matrix(arr, name=str(path))


def validate_conv(t, name: str = "conv tensor") -> np.ndarray:
    """Return `t` as a C-contiguous float64 (w, h, z, o) array."""
    arr = np.asarray(t, dtype=np.float64, order="C")
    if arr.ndim != 4:
        raise ValueError(f"{name} must be 4-D (w, h, z, o), got ndim={arr.ndim}")
    if min(arr.shape) < 1:
        raise ValueError(f"{name} must have all dims >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NonFiniteError(f"{name} has {bad} non-finite entries")
    return arr


def conv_to_2d(t) -> np.ndarray:
    """Reshape a (w, h, z, o) filter bank to a (w*h*z, o) weight matrix.

    Filter position (iw, ih, iz) maps to row ((iw*h) + ih)*z + iz, i.e.
    w varies slowest. The inverse is conv_from_2d.
    """
    arr = validate_conv(t)
    w, h, z, o = arr.shape
    return arr.reshape(w * h * z, o).copy()


def conv_from_2d(m, filter_shape) -> np.ndarray:
    """Inverse of conv_to_2d: rebuild (w, h, z, o) from a (w*h*z, o) matrix."""
    w, h, z = (int(v) for v in filter_shape)
    arr = validate_matrix(m)
    if arr.shape[0] != w * h * z:
        raise ValueError(
            f"matrix has {arr.shape[0]} rows, filter shape {(w, h, z)} needs {w * h * z}"
        )
    return arr.reshape(w, h, z, arr.shape[1]).copy()


def transpose(m) -> np.ndarray:
    """Return the transpose as a fresh C-contiguous matrix."""
    return np.ascontiguousarray(validate_matrix(m).T)
