"""IDX image/label ingestion and deterministic data splits.

The module reads IDX files and writes none; demos/05_train_and_compare.py
shows how to write them. The IDX container stores big-endian 32-bit
header fields followed by a uint8 payload: the magic number, whose low
byte is the rank, then one field per dimension. Images carry magic
0x00000803 and (count, rows, cols), labels carry magic 0x00000801 and
(count,). Files may be plain or gzip-compressed (detected by the .gz
suffix). Pixels are flattened and load_named_dataset keeps them uint8.
pixels_to_float is the one rule that scales them to float64 in [0, 1]:
training applies it one batch or evaluation chunk at a time, so no
float64 copy of a dataset is held. Labels stay integer class ids.

A file that breaks the format (a wrong magic, a header or payload of the
wrong length, a .gz that is not gzip, is cut short or is corrupt) and an
image/label pair that disagrees on the sample count are refused with
ValueError naming the path; a failure of the file system itself
surfaces as OSError.

The experiment protocol holds out a validation set sampled once from the
training set (same size as the test set); the split is a function of the
experiment's global seed, never of the repetition, so every repetition
sees identical data.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._platform import _int

__all__ = [
    "Dataset",
    "split",
    "dataset_paths",
    "load_named_dataset",
    "pixels_to_float",
]

_IMAGE_MAGIC = 0x00000803
_LABEL_MAGIC = 0x00000801

DATASET_NAMES = ("mnist", "fmnist")

_IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass(frozen=True)
class Dataset:
    """Flat features plus integer labels."""

    features: np.ndarray  # (n, d) uint8 pixels, or float64 features such as scaled pixels
    labels: np.ndarray    # (n,) int64

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D (n, d), got shape {self.features.shape}")
        if self.labels.shape[:1] != self.features.shape[:1]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows vs labels of shape {self.labels.shape}"
            )

    @property
    def n(self) -> int:
        return int(self.features.shape[0])


def _open(path):
    """A binary reader of `path`, decompressing when it ends in .gz."""
    return gzip.open(path) if Path(path).suffix == ".gz" else open(path, "rb")


def _read_idx(path, magic: int, kind: str) -> np.ndarray:
    """The uint8 array of an IDX file that must carry `magic`."""
    rank = magic & 0xFF
    try:
        with _open(path) as f:
            header = f.read(4 * (rank + 1))
            payload = f.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        # a .gz that is not gzip, is cut short or has a corrupt stream
        raise ValueError(f"{path}: {exc}") from exc
    if header[:4] != struct.pack(">i", magic):
        raise ValueError(f"{path}: {kind} magic 0x{header[:4].hex()}, expected 0x{magic:08x}")
    if len(header) != 4 * (rank + 1):
        raise ValueError(f"{path}: truncated IDX header")
    shape = struct.unpack(f">{rank}I", header[4:])
    size = math.prod(shape)
    if len(payload) != size:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, header declares {size}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def _load_idx_pixels(images_path, labels_path) -> Dataset:
    """Load an image/label IDX pair into flat uint8 pixel features."""
    images = _read_idx(images_path, _IMAGE_MAGIC, "image")
    labels = _read_idx(labels_path, _LABEL_MAGIC, "label")
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    return Dataset(images.reshape(images.shape[0], -1), labels.astype(np.int64))


def pixels_to_float(pixels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """uint8 pixels as float64 in [0, 1], into `out` when given.

    The bits equal astype(np.float64) / 255.0 with or without `out`.
    """
    return np.divide(pixels, 255.0, out=out, dtype=np.float64)


def split(dataset: Dataset, test_size: int, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Partition a dataset into (train, validation) with |validation| = test_size.

    The partition is disjoint and exhaustive, drawn from the numpy
    Generator `rng`; both sides keep ascending original order so the
    training shuffle alone controls presentation order.
    """
    test_size = _int(test_size, "test_size")  # 2.9 would truncate to 2
    if test_size < 0:
        raise ValueError("test_size must be >= 0")
    if test_size >= dataset.n:
        raise ValueError(f"test_size {test_size} must be < dataset size {dataset.n}")
    perm = rng.permutation(dataset.n)
    x, y = dataset.features, dataset.labels
    val_idx = np.sort(perm[:test_size])
    train_idx = np.sort(perm[test_size:])
    return Dataset(x[train_idx], y[train_idx]), Dataset(x[val_idx], y[val_idx])


def dataset_paths(data_dir, name: str) -> dict[str, Path]:
    """Resolve the four IDX files of a named dataset in data_dir/name/.

    That directory alone is searched, so an MNIST file is never taken for
    an FMNIST one; each file may be plain or .gz, and the plain one wins.
    """
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}, expected one of {DATASET_NAMES}")
    root = Path(data_dir) / name
    out = {}
    for key, fname in _IDX_FILES.items():
        found = [c for c in (root / fname, root / (fname + ".gz")) if c.exists()]
        if not found:
            raise FileNotFoundError(f"{fname}[.gz] not found under {root}")
        out[key] = found[0]
    return out


def load_named_dataset(data_dir, name: str) -> tuple[Dataset, Dataset]:
    """Load (train, test) for a named dataset with flat uint8 pixel features."""
    paths = dataset_paths(data_dir, name)
    train = _load_idx_pixels(paths["train_images"], paths["train_labels"])
    test = _load_idx_pixels(paths["test_images"], paths["test_labels"])
    return train, test
