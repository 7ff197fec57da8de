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

Saving over an existing file rewrites it in place: the inode, the mode
and any hard links stay, and nothing is fsynced. The file is never cut to
zero length, because on ext4 (with its default auto_da_alloc) truncating
a file to zero makes close() start writing it back, and the next save of
the same path then waits for the disk. The first byte is zeroed before
the payload is written and the header goes last, so a save cut short at
any point leaves a file that load_matrix refuses. A target that is not a
regular file, such as /dev/null or a pipe, is written straight through.
Loading reads a pipe too: a regular file's size is checked against the
header before the payload is allocated, and a stream's payload is read
in bounded chunks, so a corrupt header cannot ask for more memory than
the input holds.

A matrix of the wrong rank, an empty shape or a non-finite entry, and a
file that breaks the format, are refused with ValueError; a failure of
the file system itself surfaces as OSError.
"""

from __future__ import annotations

import io
import os
import re
import stat

import numpy as np

from .initializers import _ints

__all__ = [
    "save_matrix",
    "load_matrix",
    "conv_to_2d",
    "conv_from_2d",
]

_HEADER_RE = re.compile(
    rb"\AWMAT1 rows=([0-9]+) cols=([0-9]+) dtype=f64 order=row-major endian=little\Z"
)
_MAX_HEADER_LEN = 128
_STREAM_CHUNK = 1 << 20


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


def _validate_matrix(m) -> np.ndarray:
    """Return `m` as a C-contiguous float64 2-D array, checking invariants.

    Raises ValueError on a bad rank or shape and on a NaN or Inf entry.
    The returned array may alias the input when it already conforms;
    callers that mutate must copy.
    """
    return _require_finite(_conform(m, 2, "matrix"), "matrix")


def _keep_contents(path, flags: int) -> int:
    """Open as open() would for "wb", but without truncating the file."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def save_matrix(m, path) -> None:
    """Write `m` to `path` in WMAT format (bit-exact round trip).

    An existing file is rewritten in place, never cut to zero length (see
    the module docstring).
    """
    arr = _validate_matrix(m)
    header = b"WMAT1 rows=%d cols=%d dtype=f64 order=row-major endian=little\n" % arr.shape
    payload = _bytes_view(arr.astype("<f8", copy=False))
    with open(path, "wb", opener=_keep_contents) as f:
        if not stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.write(header)
            f.write(payload)
            return
        f.write(b"\0")  # breaks the magic until the header goes in last
        f.seek(len(header))
        f.write(payload)
        f.truncate()
        f.seek(0)
        f.write(header)


def load_matrix(path) -> np.ndarray:
    """Read a WMAT file back into a float64 matrix.

    A regular file's payload is read straight into the returned array,
    and a stream's (a pipe, /dev/stdin) in bounded chunks. Raises
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
        st = os.fstat(f.fileno())
        if stat.S_ISREG(st.st_mode):
            # compare with the file size before allocating, so a corrupt
            # header cannot ask for an arbitrarily large array
            found = st.st_size - f.tell()
            if found == expected:
                arr = np.empty((rows, cols), dtype="<f8")
                # a file that shrinks or grows while being read still fails below
                found = f.readinto(_bytes_view(arr)) + len(f.read(1))
        else:
            # a pipe has no size: what the stream delivers bounds the buffer,
            # and one byte past the payload is enough to refuse a long one
            payload = _read_at_most(f, expected + 1)
            found = len(payload)
            if found == expected:
                arr = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
        if found != expected:
            raise ValueError(
                f"{path}: expected {expected} payload bytes for shape "
                f"({rows}, {cols}), found {found}"
            )
    name = f"{path}: payload"
    return _require_finite(_conform(arr, 2, name), name)


def _bytes_view(arr: np.ndarray) -> memoryview:
    """The raw bytes of a C-contiguous array, without copying them."""
    return memoryview(arr).cast("B")


def _read_at_most(f: io.BufferedReader, limit: int) -> bytearray:
    """Up to `limit` bytes of `f`, read in chunks of at most _STREAM_CHUNK."""
    buf = bytearray()
    while len(buf) < limit:
        chunk = f.read(min(limit - len(buf), _STREAM_CHUNK))
        if not chunk:
            break
        buf += chunk
    return buf


def _read_header_line(f: io.BufferedReader, path) -> bytes:
    line = f.readline(_MAX_HEADER_LEN)
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: missing or overlong WMAT header line")
    return line[:-1]


def conv_to_2d(t) -> np.ndarray:
    """Reshape a (w, h, z, o) filter bank to a (w*h*z, o) weight matrix.

    Filter position (iw, ih, iz) maps to row ((iw*h) + ih)*z + iz, i.e.
    w varies slowest. A bank of the wrong rank, an empty shape or a
    non-finite entry is refused with ValueError, as save_matrix refuses
    such a matrix. Both conv functions return a view of their input when
    it already conforms; callers that mutate must copy.
    """
    name = "conv tensor (w, h, z, o)"
    arr = _require_finite(_conform(t, 4, name), name)
    return arr.reshape(-1, arr.shape[3])


def conv_from_2d(m, filter_shape) -> np.ndarray:
    """Inverse of conv_to_2d: the (w, h, z, o) view of a (w*h*z, o) matrix."""
    shape = _ints(filter_shape, "filter shape")
    if len(shape) != 3 or min(shape) < 1:
        raise ValueError(f"filter shape must be 3 integers >= 1 (w, h, z), got {shape}")
    w, h, z = shape
    arr = _validate_matrix(m)
    if arr.shape[0] != w * h * z:
        raise ValueError(
            f"matrix has {arr.shape[0]} rows, filter shape {(w, h, z)} needs {w * h * z}"
        )
    return arr.reshape(w, h, z, arr.shape[1])
