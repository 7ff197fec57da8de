"""Helpers shared between test modules: an IDX writer independent of the
package's reader, a synthetic IDX dataset and unreadable .gz variants of a
file, the closed-form oracles the initializer and strength tests compare
against, and the per-column draw the rewiring kernel is checked against."""

import gzip
import math
import struct
from pathlib import Path

import numpy as np


def write_idx(path, data):
    """Write `data` as a uint8 IDX file: a big-endian header (magic 0x08 in
    the third byte, the rank in the fourth, then one 32-bit field per
    dimension) and the raw payload, gzipped when `path` ends in .gz."""
    arr = np.ascontiguousarray(data, dtype=np.uint8)
    raw = struct.pack(f">{arr.ndim + 1}i", 0x800 | arr.ndim, *arr.shape) + arr.tobytes()
    path = Path(path)
    path.write_bytes(gzip.compress(raw, mtime=0) if path.suffix == ".gz" else raw)


def make_synthetic_mnist(root, n_train=240, n_test=40, side=4, seed=0):
    """A tiny class-structured dataset in the on-disk layout the MNIST
    loader expects: ten noisy class templates rendered to IDX files."""
    d = root / "mnist"
    d.mkdir(parents=True, exist_ok=True)
    gen = np.random.default_rng(seed)
    centers = gen.integers(30, 220, size=(10, side * side))

    def render(n):
        labels = gen.integers(0, 10, size=n).astype(np.uint8)
        noise = gen.integers(-25, 26, size=(n, side * side))
        images = np.clip(centers[labels] + noise, 0, 255).astype(np.uint8)
        return images.reshape(n, side, side), labels

    tr_imgs, tr_labs = render(n_train)
    te_imgs, te_labs = render(n_test)
    write_idx(d / "train-images-idx3-ubyte", tr_imgs)
    write_idx(d / "train-labels-idx1-ubyte", tr_labs)
    write_idx(d / "t10k-images-idx3-ubyte", te_imgs)
    write_idx(d / "t10k-labels-idx1-ubyte", te_labs)
    return root


def nominal_weight_variance(method: str, rows: int, cols: int) -> float:
    """Per-entry variance each method aims for (uniform variance is b**2/3).

    Orthogonal has no i.i.d. sampling variance; its entries are returned
    with the 1/n variance a gain-1 orthonormal basis implies.
    """
    if method == "glorot-uniform":
        return 6.0 / (rows + cols) / 3.0
    if method == "glorot-normal":
        return 2.0 / (rows + cols)
    if method == "kaiming-uniform":
        return 6.0 / rows / 3.0
    if method == "kaiming-normal":
        return 2.0 / rows
    if method == "truncated-normal":
        sigma2 = 2.0 / rows
        phi3 = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
        z = math.erf(3.0 / math.sqrt(2.0))
        return sigma2 * (1.0 - 6.0 * phi3 / z)
    if method == "orthogonal":
        return 1.0 / max(rows, cols)
    raise ValueError(f"unknown init method {method!r}")


def predicted_strength_variance(weight_variance: float, n_l: int) -> float:
    """Variance the sum-of-variances law predicts for strengths: var(W) * n_l."""
    if weight_variance < 0.0:
        raise ValueError("weight_variance must be >= 0")
    return float(weight_variance) * int(n_l)


def weighted_draw_order(p: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Draw all indices sequentially, without replacement, weighted by `p`.

    Implemented as an exponential race: index i gets an Exp(1)/p[i] arrival
    time and the draw order is the arrival order. The minimum of
    independent exponentials with rates p[i] lands on i with probability
    p[i]/sum(p), and by memorylessness the remaining arrivals replay the
    same race on the survivors, which is exactly sequential weighted sampling with
    renormalization after each draw, in O(n log n). The rewiring passes draw
    the same keys in blocks of rows; this per-column form is their reference.
    """
    keys = gen.standard_exponential(p.shape[0]) / p
    return np.argsort(keys)


def broken_gzip(raw: bytes, how: str) -> bytes:
    """Bytes for a .gz file holding `raw` that gzip cannot read back:
    "not-gzip" (`raw` itself), "truncated" (half the compressed stream) or
    "flipped" (one deflate byte inverted, which zlib rejects)."""
    if how == "not-gzip":
        return raw
    gz = gzip.compress(raw, mtime=0)
    if how == "truncated":
        return gz[: len(gz) // 2]
    if how == "flipped":
        # the header is 10 bytes; byte 11 sits in the first block's code lengths
        return gz[:11] + bytes([gz[11] ^ 0xFF]) + gz[12:]
    raise ValueError(f"unknown breakage {how!r}")
