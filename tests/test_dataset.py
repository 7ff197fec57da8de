import gzip
import re
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from helpers import broken_gzip, write_idx
from strength_init.dataset import (
    Dataset,
    dataset_paths,
    load_named_dataset,
    pixels_to_float,
    split,
    _IMAGE_MAGIC,
    _LABEL_MAGIC,
    _load_idx_pixels,
    _read_idx,
)
from strength_init.rng import derive_stream


def read_images(path):
    return _read_idx(path, _IMAGE_MAGIC, "image")


def read_labels(path):
    return _read_idx(path, _LABEL_MAGIC, "label")


def load_idx(images_path, labels_path):
    """An image/label IDX pair as flat [0, 1] features, as training scales them."""
    pixels = _load_idx_pixels(images_path, labels_path)
    return Dataset(pixels_to_float(pixels.features), pixels.labels)


@pytest.fixture
def idx_pair(tmp_path, rng):
    images = rng.integers(0, 256, size=(40, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40, dtype=np.uint8)
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(ipath, images)
    write_idx(lpath, labels)
    return ipath, lpath, images, labels


def test_magic_constants():
    assert _IMAGE_MAGIC == 0x00000803 == 2051
    assert _LABEL_MAGIC == 0x00000801 == 2049


def test_header_layout_and_rank(tmp_path):
    # big-endian magic (low byte = rank), one 32-bit field per dimension, payload
    (tmp_path / "l.idx").write_bytes(bytes.fromhex("00000801 00000003 000102"))
    (tmp_path / "i.idx").write_bytes(bytes.fromhex("00000803 00000002 00000001 00000001 0707"))
    npt.assert_array_equal(read_labels(tmp_path / "l.idx"), [0, 1, 2])
    npt.assert_array_equal(read_images(tmp_path / "i.idx"), np.full((2, 1, 1), 7))


def test_round_trip(idx_pair):
    ipath, lpath, images, labels = idx_pair
    ds = load_idx(ipath, lpath)
    assert ds.n == 40
    assert ds.features.shape == (40, 25)
    npt.assert_array_equal(ds.labels, labels.astype(np.int64))
    npt.assert_allclose(ds.features, images.reshape(40, 25) / 255.0)


def test_scaling_bounds(idx_pair):
    ipath, lpath, *_ = idx_pair
    ds = load_idx(ipath, lpath)
    assert ds.features.min() >= 0.0
    assert ds.features.max() <= 1.0


def test_all_zero_payload(tmp_path):
    write_idx(tmp_path / "z.idx", np.zeros((3, 4, 4), dtype=np.uint8))
    write_idx(tmp_path / "zl.idx", np.zeros(3, dtype=np.uint8))
    ds = load_idx(tmp_path / "z.idx", tmp_path / "zl.idx")
    assert not ds.features.any()


def test_bad_image_magic(tmp_path, idx_pair):
    _, lpath, *_ = idx_pair
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 12)
    with pytest.raises(ValueError, match="image magic 0x00000801, expected"):
        read_images(bad)


def test_bad_label_magic(tmp_path, idx_pair):
    ipath, _, *_ = idx_pair
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\xff\x00\x08\x01" + b"\x00" * 4)
    with pytest.raises(ValueError, match="label magic 0xff000801, expected"):
        load_idx(ipath, bad)


@pytest.mark.parametrize("shape", [(20,), (), (4, 5, 1)])
def test_features_must_be_two_dimensional(shape):
    # 1-D features used to reach training and die there with an IndexError
    with pytest.raises(ValueError, match="features must be 2-D"):
        Dataset(np.zeros(shape), np.zeros(20, dtype=np.int64))


@pytest.mark.parametrize("labels", [np.array(1), np.zeros(2, dtype=np.int64)], ids=["0-d", "too-few"])
def test_labels_need_a_first_axis_as_long_as_the_rows(labels):
    # 0-d labels used to raise IndexError here
    with pytest.raises(ValueError, match="3 feature rows vs labels of shape"):
        Dataset(np.zeros((3, 4)), labels)


def test_count_mismatch(tmp_path, rng):
    write_idx(tmp_path / "i.idx", rng.integers(0, 255, (5, 2, 2), dtype=np.uint8))
    write_idx(tmp_path / "l.idx", rng.integers(0, 10, 7, dtype=np.uint8))
    with pytest.raises(ValueError, match="has 5 images but .* has 7 labels"):
        load_idx(tmp_path / "i.idx", tmp_path / "l.idx")


def test_truncated_payload(tmp_path, idx_pair):
    ipath, *_ = idx_pair
    data = ipath.read_bytes()
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(data[:-10])
    with pytest.raises(ValueError, match="payload holds 990 bytes, header declares 1000"):
        read_images(trunc)
    trunc.write_bytes(data[:10])  # the magic and part of the dimensions
    with pytest.raises(ValueError, match="truncated IDX header"):
        read_images(trunc)


def test_gzip_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(6, 3, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=6, dtype=np.uint8)
    write_idx(tmp_path / "i.idx.gz", images)
    write_idx(tmp_path / "l.idx.gz", labels)
    ds = load_idx(tmp_path / "i.idx.gz", tmp_path / "l.idx.gz")
    npt.assert_allclose(ds.features, images.reshape(6, 9) / 255.0)


@pytest.mark.parametrize(
    "how, cause",
    [("not-gzip", gzip.BadGzipFile), ("truncated", EOFError), ("flipped", zlib.error)],
)
def test_broken_gzip_is_a_value_error_naming_the_path(tmp_path, idx_pair, how, cause):
    ipath, *_ = idx_pair
    bad = tmp_path / "i.idx.gz"
    bad.write_bytes(broken_gzip(ipath.read_bytes(), how))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: ") as exc:
        read_images(bad)
    assert isinstance(exc.value.__cause__, cause)


class TestSplit:
    def _dataset(self, n=600):
        feats = np.linspace(0.0, 1.0, n * 2).reshape(n, 2)
        labels = np.arange(n, dtype=np.int64) % 10
        return Dataset(feats, labels)

    def test_sizes_disjoint_exhaustive(self):
        ds = self._dataset(600)
        train, val = split(ds, 100, derive_stream(1, 0, 0))
        assert train.n == 500
        assert val.n == 100
        seen = np.concatenate([train.features[:, 0], val.features[:, 0]])
        npt.assert_array_equal(np.sort(seen), np.sort(ds.features[:, 0]))

    def test_zero_test_size(self):
        ds = self._dataset(50)
        train, val = split(ds, 0, derive_stream(1, 0, 0))
        assert train.n == 50
        assert val.n == 0

    def test_too_large_rejected(self):
        ds = self._dataset(50)
        with pytest.raises(ValueError):
            split(ds, 50, derive_stream(1, 0, 0))

    @pytest.mark.parametrize("test_size", [2.9, True, "2"])
    def test_non_integer_size_rejected(self, test_size):
        # 2.9 used to make a 2-row validation set
        with pytest.raises(ValueError, match="integer"):
            split(self._dataset(50), test_size, derive_stream(1, 0, 0))

    def test_deterministic(self):
        ds = self._dataset(200)
        t1, v1 = split(ds, 40, derive_stream(9, 0, 0))
        t2, v2 = split(ds, 40, derive_stream(9, 0, 0))
        npt.assert_array_equal(t1.features, t2.features)
        npt.assert_array_equal(v1.labels, v2.labels)

    def test_different_seeds_differ(self):
        ds = self._dataset(200)
        _, v1 = split(ds, 40, derive_stream(1, 0, 0))
        _, v2 = split(ds, 40, derive_stream(2, 0, 0))
        assert not np.array_equal(v1.features, v2.features)


class TestNamedDataset:
    def _write_named(self, root, name, n_train=30, n_test=10):
        d = root / name
        d.mkdir(parents=True)
        rng = np.random.default_rng(0)
        write_idx(d / "train-images-idx3-ubyte", rng.integers(0, 255, (n_train, 4, 4), dtype=np.uint8))
        write_idx(d / "train-labels-idx1-ubyte", rng.integers(0, 10, n_train, dtype=np.uint8))
        write_idx(d / "t10k-images-idx3-ubyte", rng.integers(0, 255, (n_test, 4, 4), dtype=np.uint8))
        write_idx(d / "t10k-labels-idx1-ubyte", rng.integers(0, 10, n_test, dtype=np.uint8))

    def test_load(self, tmp_path):
        self._write_named(tmp_path, "mnist")
        train, test = load_named_dataset(tmp_path, "mnist")
        assert train.n == 30
        assert test.n == 10
        assert train.features.dtype == test.features.dtype == np.uint8
        assert train.features.shape == (30, 16)

    def test_named_directory_only_and_plain_before_gz(self, tmp_path):
        # dataset_paths reads <dir>/<name>/ alone, and there a plain file
        # wins over its .gz
        files = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte", "t10k-images-idx3-ubyte",
                 "t10k-labels-idx1-ubyte"]
        named = tmp_path / "mnist"
        named.mkdir()
        for d, suffix in [(named, ""), (named, ".gz"), (tmp_path, ""), (tmp_path, ".gz")]:
            for f in files:
                (d / (f + suffix)).touch()
        assert set(dataset_paths(tmp_path, "mnist").values()) == {named / f for f in files}
        for f in files:
            (named / f).unlink()
        assert set(dataset_paths(tmp_path, "mnist").values()) == {named / (f + ".gz") for f in files}
        for f in files:
            (named / (f + ".gz")).unlink()
        # the flat files alone, plain and .gz, are found for neither name
        for name in ("mnist", "fmnist"):
            with pytest.raises(FileNotFoundError, match=f"not found under {re.escape(str(tmp_path / name))}$"):
                dataset_paths(tmp_path, name)

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dataset_paths(tmp_path, "mnist")

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError):
            dataset_paths(tmp_path, "cifar10")
