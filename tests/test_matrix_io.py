import os

import numpy as np
import numpy.testing as npt
import pytest

from strength_init import matrix_io
from strength_init.initializers import InitSpec, init
from strength_init.matrix_io import (
    conv_from_2d,
    conv_to_2d,
    load_matrix,
    save_matrix,
    _validate_matrix,
)
from strength_init.rng import derive_stream


class TestWmatRoundTrip:
    def test_small_matrix_bit_exact(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "m.wmat"
        save_matrix(m, path)
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        assert header == b"WMAT1 rows=2 cols=2 dtype=f64 order=row-major endian=little"
        assert len(payload) == 32
        npt.assert_array_equal(load_matrix(path), m)

    def test_one_by_one_zero(self, tmp_path):
        path = tmp_path / "m.wmat"
        save_matrix(np.array([[0.0]]), path)
        out = load_matrix(path)
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.0

    def test_large_kaiming_sample(self, tmp_path):
        w = init(InitSpec("kaiming-normal", 1024, 1024), derive_stream(3, 0, 0))
        path = tmp_path / "big.wmat"
        save_matrix(w, path)
        header_len = len("WMAT1 rows=1024 cols=1024 dtype=f64 order=row-major endian=little\n")
        assert path.stat().st_size == header_len + 8 * 1024 * 1024
        npt.assert_array_equal(load_matrix(path), w)

    def test_negative_zero_and_subnormals_survive(self, tmp_path):
        m = np.array([[-0.0, 5e-324], [1e308, -1e-308]])
        path = tmp_path / "edge.wmat"
        save_matrix(m, path)
        out = load_matrix(path)
        assert out.tobytes() == m.tobytes()


class TestWmatErrors:
    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.wmat"
        path.write_bytes(b"WMAT2 rows=1 cols=1 dtype=f64 order=row-major endian=little\n" + b"\0" * 8)
        with pytest.raises(ValueError, match="malformed WMAT header"):
            load_matrix(path)

    def test_missing_newline(self, tmp_path):
        path = tmp_path / "bad.wmat"
        path.write_bytes(b"WMAT1 rows=1")
        with pytest.raises(ValueError, match="missing or overlong WMAT header line"):
            load_matrix(path)

    def test_payload_too_short(self, tmp_path):
        path = tmp_path / "short.wmat"
        path.write_bytes(b"WMAT1 rows=2 cols=2 dtype=f64 order=row-major endian=little\n" + b"\0" * 24)
        with pytest.raises(ValueError, match="expected 32 payload bytes .* found 24"):
            load_matrix(path)

    def test_payload_too_long(self, tmp_path):
        path = tmp_path / "long.wmat"
        path.write_bytes(b"WMAT1 rows=1 cols=1 dtype=f64 order=row-major endian=little\n" + b"\0" * 16)
        with pytest.raises(ValueError, match="expected 8 payload bytes .* found 16"):
            load_matrix(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "nan.wmat"
        payload = np.array([[np.nan]]).tobytes()
        path.write_bytes(b"WMAT1 rows=1 cols=1 dtype=f64 order=row-major endian=little\n" + payload)
        with pytest.raises(ValueError, match="payload has 1 non-finite entries"):
            load_matrix(path)

    def test_save_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError, match="matrix has 1 non-finite entries"):
            save_matrix(np.array([[np.inf]]), tmp_path / "x.wmat")

    def test_save_reports_path_on_io_failure(self, tmp_path):
        target = tmp_path / "no_such_dir" / "x.wmat"
        with pytest.raises(OSError) as exc:
            save_matrix(np.eye(2), target)
        assert "no_such_dir" in str(exc.value)


class _PayloadWriteFails:
    """A writable file whose writes of more than a header's length fail."""

    def __init__(self, f):
        self._f = f

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        if memoryview(data).nbytes > matrix_io._MAX_HEADER_LEN:
            raise OSError(28, "No space left on device")
        return self._f.write(data)


class TestWmatOverwrite:
    @pytest.mark.parametrize("old_shape, new_shape", [((4, 4), (2, 2)), ((2, 2), (10, 12))])
    def test_overwrite_matches_a_fresh_save(self, tmp_path, old_shape, new_shape):
        new = np.arange(np.prod(new_shape), dtype=np.float64).reshape(new_shape) - 1.5
        path, fresh = tmp_path / "m.wmat", tmp_path / "fresh.wmat"
        save_matrix(np.ones(old_shape), path)
        save_matrix(new, path)
        save_matrix(new, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        npt.assert_array_equal(load_matrix(path), new)

    def test_inode_mode_and_hard_links_kept(self, tmp_path):
        path, link = tmp_path / "m.wmat", tmp_path / "link.wmat"
        save_matrix(np.eye(3), path)
        os.chmod(path, 0o640)
        os.link(path, link)
        before = os.stat(path)
        new = np.full((2, 5), 0.25)
        save_matrix(new, path)
        after = os.stat(path)
        assert after.st_ino == before.st_ino
        assert after.st_mode == before.st_mode
        assert after.st_nlink == 2
        assert link.read_bytes() == path.read_bytes()
        npt.assert_array_equal(load_matrix(link), new)

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            save_matrix(np.eye(2), tmp_path / "m.wmat")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "m.wmat").st_mode & 0o777 == 0o666 & ~0o027

    def test_save_cut_short_over_old_file_is_refused_on_load(self, tmp_path, monkeypatch):
        path = tmp_path / "m.wmat"
        save_matrix(np.ones((16, 16)), path)
        real_open = open
        monkeypatch.setattr(
            matrix_io, "open", lambda *a, **k: _PayloadWriteFails(real_open(*a, **k)), raising=False
        )
        with pytest.raises(OSError, match="No space left"):
            save_matrix(np.zeros((16, 16)), path)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=str(path)):
            load_matrix(path)

    def test_save_to_devnull(self):
        save_matrix(np.eye(3), os.devnull)


class TestConvReshape:
    def test_flat_filters(self):
        t = np.arange(5.0).reshape(1, 1, 1, 5)
        m = conv_to_2d(t)
        assert m.shape == (1, 5)
        npt.assert_array_equal(m[0], np.arange(5.0))

    def test_two_positions_one_filter(self):
        t = np.array([7.0, -3.0]).reshape(2, 1, 1, 1)
        m = conv_to_2d(t)
        npt.assert_array_equal(m, np.array([[7.0], [-3.0]]))

    def test_index_formula_brute_force(self, rng):
        w, h, z, o = 3, 3, 16, 32
        t = rng.normal(size=(w, h, z, o))
        m = conv_to_2d(t)
        assert m.shape == (w * h * z, o)
        for iw in range(w):
            for ih in range(h):
                for iz in range(z):
                    row = ((iw * h) + ih) * z + iz
                    npt.assert_array_equal(m[row], t[iw, ih, iz])

    def test_per_column_multiset_matches_filter(self, rng):
        t = rng.normal(size=(3, 3, 4, 6))
        m = conv_to_2d(t)
        for io in range(6):
            npt.assert_array_equal(np.sort(m[:, io]), np.sort(t[..., io], axis=None))

    def test_round_trip(self, rng):
        t = rng.normal(size=(2, 4, 3, 5))
        back = conv_from_2d(conv_to_2d(t), (2, 4, 3))
        npt.assert_array_equal(back, t)
        assert np.shares_memory(back, t)

    def test_entry_bijection(self, rng):
        t = rng.normal(size=(3, 2, 5, 4))
        npt.assert_array_equal(np.sort(conv_to_2d(t), axis=None), np.sort(t, axis=None))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            conv_from_2d(np.zeros((5, 2)), (2, 2, 2))

    def test_non_integer_filter_shape_rejected(self):
        with pytest.raises(ValueError, match="filter shape: integers only"):
            conv_from_2d(np.ones((4, 2)), (1.9, 2, 2))

    @pytest.mark.parametrize("shape", [3, (2, 2), (1, 2, 2, 2), (2, -2, -1)])
    def test_filter_shape_needs_three_positive_integers(self, shape):
        # 3 used to raise TypeError, (2, 2) an unpacking error that did not
        # name the shape, and (2, -2, -1) reached reshape
        with pytest.raises(ValueError, match="filter shape"):
            conv_from_2d(np.ones((4, 2)), shape)


class TestValidate:
    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            _validate_matrix(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _validate_matrix(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="matrix has 1 non-finite entries"):
            _validate_matrix(np.array([[1.0, np.nan]]))

    def test_conv_checked_by_the_same_rules(self):
        with pytest.raises(ValueError, match="4-D"):
            conv_to_2d(np.zeros((3, 3, 4)))
        with pytest.raises(ValueError, match="dims >= 1"):
            conv_to_2d(np.zeros((3, 3, 0, 2)))
        with pytest.raises(ValueError, match=r"conv tensor \(w, h, z, o\) has 2 non-finite entries"):
            conv_to_2d(np.full((1, 1, 1, 2), np.inf))
        bank = np.zeros((2, 2, 1, 3))
        assert np.shares_memory(conv_to_2d(bank), bank)
