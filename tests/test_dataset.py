import numpy as np
import numpy.testing as npt
import pytest

from strength_init.dataset import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    Dataset,
    IdxCountMismatchError,
    IdxError,
    IdxMagicError,
    _load_idx_pixels,
    dataset_paths,
    load_named_dataset,
    read_idx_images,
    read_idx_labels,
    scale_pixels,
    split,
    write_idx_images,
    write_idx_labels,
)
from strength_init.rng import derive_stream


def load_idx(images_path, labels_path):
    """An image/label IDX pair as flat [0, 1] features, as a named dataset loads it."""
    return scale_pixels(_load_idx_pixels(images_path, labels_path))


@pytest.fixture
def idx_pair(tmp_path, rng):
    images = rng.integers(0, 256, size=(40, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 10, size=40, dtype=np.uint8)
    ipath, lpath = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    return ipath, lpath, images, labels


def test_magic_constants():
    assert IMAGE_MAGIC == 0x00000803 == 2051
    assert LABEL_MAGIC == 0x00000801 == 2049


def test_header_layout_and_rank(tmp_path):
    # big-endian magic (low byte = rank), one 32-bit field per dimension, payload
    write_idx_labels(tmp_path / "l.idx", np.arange(3, dtype=np.uint8))
    assert (tmp_path / "l.idx").read_bytes() == bytes.fromhex("00000801 00000003 000102")
    write_idx_images(tmp_path / "i.idx", np.full((2, 1, 1), 7, dtype=np.uint8))
    assert (tmp_path / "i.idx").read_bytes() == bytes.fromhex("00000803 00000002 00000001 00000001 0707")
    npt.assert_array_equal(read_idx_labels(tmp_path / "l.idx"), [0, 1, 2])
    assert read_idx_images(tmp_path / "i.idx").shape == (2, 1, 1)
    with pytest.raises(ValueError):
        write_idx_labels(tmp_path / "bad.idx", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        write_idx_images(tmp_path / "bad.idx", np.zeros(3))


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
    write_idx_images(tmp_path / "z.idx", np.zeros((3, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "zl.idx", np.zeros(3, dtype=np.uint8))
    ds = load_idx(tmp_path / "z.idx", tmp_path / "zl.idx")
    assert not ds.features.any()


def test_bad_image_magic(tmp_path, idx_pair):
    _, lpath, *_ = idx_pair
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 12)
    with pytest.raises(IdxMagicError):
        read_idx_images(bad)


def test_bad_label_magic(tmp_path, idx_pair):
    ipath, _, *_ = idx_pair
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\xff\x00\x08\x01" + b"\x00" * 4)
    with pytest.raises(IdxMagicError):
        load_idx(ipath, bad)


def test_count_mismatch(tmp_path, rng):
    write_idx_images(tmp_path / "i.idx", rng.integers(0, 255, (5, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "l.idx", rng.integers(0, 10, 7, dtype=np.uint8))
    with pytest.raises(IdxCountMismatchError):
        load_idx(tmp_path / "i.idx", tmp_path / "l.idx")


def test_truncated_payload(tmp_path, idx_pair):
    ipath, *_ = idx_pair
    data = ipath.read_bytes()
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(data[:-10])
    with pytest.raises(IdxError):
        read_idx_images(trunc)
    trunc.write_bytes(data[:10])  # the magic and part of the dimensions
    with pytest.raises(IdxError, match="truncated"):
        read_idx_images(trunc)


def test_gzip_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(6, 3, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, size=6, dtype=np.uint8)
    write_idx_images(tmp_path / "i.idx.gz", images)
    write_idx_labels(tmp_path / "l.idx.gz", labels)
    ds = load_idx(tmp_path / "i.idx.gz", tmp_path / "l.idx.gz")
    npt.assert_allclose(ds.features, images.reshape(6, 9) / 255.0)


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
        write_idx_images(d / "train-images-idx3-ubyte", rng.integers(0, 255, (n_train, 4, 4), dtype=np.uint8))
        write_idx_labels(d / "train-labels-idx1-ubyte", rng.integers(0, 10, n_train, dtype=np.uint8))
        write_idx_images(d / "t10k-images-idx3-ubyte", rng.integers(0, 255, (n_test, 4, 4), dtype=np.uint8))
        write_idx_labels(d / "t10k-labels-idx1-ubyte", rng.integers(0, 10, n_test, dtype=np.uint8))

    def test_load(self, tmp_path):
        self._write_named(tmp_path, "mnist")
        train, test = load_named_dataset(tmp_path, "mnist")
        assert train.n == 30
        assert test.n == 10

    def test_missing_files(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dataset_paths(tmp_path, "mnist")

    def test_unknown_name(self, tmp_path):
        with pytest.raises(ValueError):
            dataset_paths(tmp_path, "cifar10")
