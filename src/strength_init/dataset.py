"""IDX image/label ingestion and deterministic data splits.

The IDX container stores big-endian 32-bit header fields followed by a
uint8 payload: the magic number, whose low byte is the rank, then one
field per dimension. Images carry magic 0x00000803 and (count, rows,
cols), labels carry magic 0x00000801 and (count,). Files may be plain or
gzip-compressed (detected by the .gz suffix). Pixels are flattened;
load_named_pixels keeps them uint8, and pixels_to_float is the one rule
that scales them to float64 in [0, 1]: scale_pixels (and so
load_named_dataset) applies it to a whole dataset, while an experiment
keeps its splits uint8 and training applies it one batch or evaluation
chunk at a time. Labels stay integer class ids.

The experiment protocol holds out a validation set sampled once from the
training set (same size as the test set); the split is a function of the
experiment's global seed, never of the repetition, so every repetition
sees identical data.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .initializers import _index

__all__ = [
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "IdxError",
    "IdxMagicError",
    "IdxCountMismatchError",
    "Dataset",
    "read_idx_images",
    "read_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "split",
    "dataset_paths",
    "load_named_pixels",
    "load_named_dataset",
    "pixels_to_float",
    "scale_pixels",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

DATASET_NAMES = ("mnist", "fmnist")

_IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class IdxError(Exception):
    """Base class for IDX ingestion failures."""


class IdxMagicError(IdxError):
    """File does not start with the expected IDX magic number."""


class IdxCountMismatchError(IdxError):
    """Image and label files disagree on the number of samples."""


@dataclass(frozen=True)
class Dataset:
    """Flat features plus integer labels."""

    features: np.ndarray  # (n, d) uint8 pixels, or float64 features such as scaled pixels
    labels: np.ndarray    # (n,) int64

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise IdxCountMismatchError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx])


def _open(path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        # fixed mtime so identical content gives identical bytes
        return gzip.GzipFile(path, mode, mtime=0)
    return open(path, mode)


def _read_idx(path, magic: int, kind: str) -> np.ndarray:
    """The uint8 array of an IDX file that must carry `magic`."""
    rank = magic & 0xFF
    with _open(path, "rb") as f:
        header = f.read(4 * (rank + 1))
        payload = f.read()
    if header[:4] != struct.pack(">i", magic):
        raise IdxMagicError(f"{path}: {kind} magic 0x{header[:4].hex()}, expected 0x{magic:08x}")
    if len(header) != 4 * (rank + 1):
        raise IdxError(f"{path}: truncated IDX header")
    shape = struct.unpack(f">{rank}I", header[4:])
    size = math.prod(shape)
    if len(payload) != size:
        raise IdxError(f"{path}: payload holds {len(payload)} bytes, header declares {size}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def _write_idx(path, data, magic: int, kind: str) -> None:
    arr = np.ascontiguousarray(data, dtype=np.uint8)
    rank = magic & 0xFF
    if arr.ndim != rank:
        raise ValueError(f"{kind} must be {rank}-D, got ndim={arr.ndim}")
    with _open(path, "wb") as f:
        f.write(struct.pack(f">{rank + 1}i", magic, *arr.shape))
        f.write(arr.tobytes())


def read_idx_images(path) -> np.ndarray:
    """Raw (count, rows, cols) uint8 image cube from an IDX file."""
    return _read_idx(path, IMAGE_MAGIC, "image")


def read_idx_labels(path) -> np.ndarray:
    """Raw (count,) uint8 label vector from an IDX file."""
    return _read_idx(path, LABEL_MAGIC, "label")


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (count, rows, cols) uint8 cube in IDX image format."""
    _write_idx(path, images, IMAGE_MAGIC, "images")


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a (count,) uint8 vector in IDX label format."""
    _write_idx(path, labels, LABEL_MAGIC, "labels")


def _load_idx_pixels(images_path, labels_path) -> Dataset:
    """Load an image/label IDX pair into flat uint8 pixel features."""
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    return Dataset(images.reshape(images.shape[0], -1), labels.astype(np.int64))


def pixels_to_float(pixels: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """uint8 pixels as float64 in [0, 1], into `out` when given.

    The bits equal astype(np.float64) / 255.0 with or without `out`.
    """
    return np.divide(pixels, 255.0, out=out, dtype=np.float64)


def scale_pixels(dataset: Dataset) -> Dataset:
    """The same samples with uint8 pixels scaled to float64 in [0, 1]."""
    return Dataset(pixels_to_float(dataset.features), dataset.labels)


def split(dataset: Dataset, test_size: int, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Partition a dataset into (train, validation) with |validation| = test_size.

    The partition is disjoint and exhaustive, drawn from the numpy
    Generator `rng`; both sides keep ascending original order so the
    training shuffle alone controls presentation order.
    """
    try:
        test_size = _index(test_size)  # 2.9 would truncate to 2
    except TypeError:
        raise ValueError(f"test_size must be an integer, got {test_size!r}") from None
    if test_size < 0:
        raise ValueError("test_size must be >= 0")
    if test_size >= dataset.n:
        raise ValueError(f"test_size {test_size} must be < dataset size {dataset.n}")
    perm = rng.permutation(dataset.n)
    val_idx = np.sort(perm[:test_size])
    train_idx = np.sort(perm[test_size:])
    return dataset.subset(train_idx), dataset.subset(val_idx)


def dataset_paths(data_dir, name: str) -> dict[str, Path]:
    """Resolve the four IDX files for a named dataset under data_dir/name/.

    Falls back to data_dir/ itself, and to .gz variants, so both layouts
    `<dir>/mnist/train-images-idx3-ubyte` and `<dir>/train-images-idx3-ubyte.gz`
    work.
    """
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}, expected one of {DATASET_NAMES}")
    roots = [Path(data_dir) / name, Path(data_dir)]
    out = {}
    for key, fname in _IDX_FILES.items():
        found = [c for root in roots for c in (root / fname, root / (fname + ".gz")) if c.exists()]
        if not found:
            raise FileNotFoundError(f"{fname}[.gz] not found under {roots[0]} or {roots[1]}")
        out[key] = found[0]
    return out


def load_named_pixels(data_dir, name: str) -> tuple[Dataset, Dataset]:
    """Load (train, test) for a named dataset with flat uint8 pixel features."""
    paths = dataset_paths(data_dir, name)
    train = _load_idx_pixels(paths["train_images"], paths["train_labels"])
    test = _load_idx_pixels(paths["test_images"], paths["test_labels"])
    return train, test


def load_named_dataset(data_dir, name: str) -> tuple[Dataset, Dataset]:
    """Load (train, test) for a named dataset from IDX files on disk."""
    train, test = load_named_pixels(data_dir, name)
    return scale_pixels(train), scale_pixels(test)
