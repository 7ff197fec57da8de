import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from helpers import nominal_weight_variance

from strength_init.initializers import METHODS, InitSpec, init
from strength_init.rng import derive_stream


def test_kaiming_uniform_bound():
    w = init(InitSpec("kaiming-uniform", 1024, 512), derive_stream(1, 0, 0))
    bound = math.sqrt(6.0 / 1024)
    assert abs(bound - 0.076547) < 1e-6
    assert np.all(np.abs(w) <= bound)


def test_glorot_uniform_bound():
    w = init(InitSpec("glorot-uniform", 300, 200), derive_stream(1, 0, 0))
    assert np.all(np.abs(w) <= math.sqrt(6.0 / 500))


def test_orthogonal_square_identity():
    w = init(InitSpec("orthogonal", 64, 64), derive_stream(2, 0, 0))
    npt.assert_allclose(w.T @ w, np.eye(64), atol=1e-10)


@pytest.mark.parametrize("rows,cols", [(80, 30), (30, 80), (64, 64), (7, 3), (3, 7)])
def test_orthogonal_semi_orthogonality(rows, cols):
    w = init(InitSpec("orthogonal", rows, cols), derive_stream(5, 0, 0))
    if rows >= cols:
        resid = np.abs(w.T @ w - np.eye(cols)).max()
    else:
        resid = np.abs(w @ w.T - np.eye(rows)).max()
    assert resid < 1e-8


def test_orthogonal_wide_draw_peaks_below_four_outputs():
    # the sign fix scales the QR factor in place, and only the transpose
    # of a wide draw is copied: about 3.37 outputs, where numpy's QR sets
    # the peak (a scaled copy before the transpose made it 4.33)
    spec = InitSpec("orthogonal", 256, 784)
    init(spec, derive_stream(6, 0, 0))  # load LAPACK and the BLAS pin outside the trace
    tracemalloc.start()
    try:
        w = init(spec, derive_stream(6, 0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.flags.c_contiguous
    assert peak <= 3.6 * w.nbytes


def test_truncated_normal_million_samples():
    rows, cols = 1024, 977  # ~1e6 samples at the 1024 fan-in scale
    w = init(InitSpec("truncated-normal", rows, cols), derive_stream(11, 0, 0))
    sigma = math.sqrt(2.0 / rows)
    assert np.count_nonzero(np.abs(w) > 3.0 * sigma) == 0
    # closed-form std of a normal truncated at +-3 sigma
    phi3 = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
    z = math.erf(3.0 / math.sqrt(2.0))
    expected_std = sigma * math.sqrt(1.0 - 6.0 * phi3 / z)
    assert abs(w.std() - expected_std) / expected_std < 0.01


@pytest.mark.parametrize("method", [m for m in METHODS if m != "orthogonal"])
def test_moment_compliance(method):
    rows, cols = 400, 300  # 1.2e5 samples
    w = init(InitSpec(method, rows, cols), derive_stream(17, 0, 0))
    nominal = nominal_weight_variance(method, rows, cols)
    sigma = math.sqrt(nominal)
    assert abs(w.mean()) <= 5.0 * sigma / math.sqrt(w.size)
    assert abs(w.var() - nominal) / nominal < 0.02


@pytest.mark.parametrize("method", METHODS)
def test_determinism(method):
    spec = InitSpec(method, 33, 21)
    a = init(spec, derive_stream(9, 4, 2))
    b = init(spec, derive_stream(9, 4, 2))
    npt.assert_array_equal(a, b)


@pytest.mark.parametrize("method", METHODS)
def test_shapes_and_dtype(method):
    w = init(InitSpec(method, 5, 9), derive_stream(0, 0, 0))
    assert w.shape == (5, 9)
    assert w.dtype == np.float64
    assert np.isfinite(w).all()


def test_spec_validation():
    with pytest.raises(ValueError):
        InitSpec("unknown-method", 4, 4)
    with pytest.raises(ValueError):
        InitSpec("kaiming-uniform", 0, 4)


@pytest.mark.parametrize("rows, cols", [(True, 4), (8, 4.0), (8, np.float64(4)), (8, "4")])
def test_spec_refuses_non_integer_shape(rows, cols):
    with pytest.raises(ValueError):
        InitSpec("orthogonal", rows, cols)


def test_spec_accepts_numpy_numbers():
    a = init(InitSpec("orthogonal", np.int64(8), np.int32(4)), derive_stream(1, 0, 0))
    b = init(InitSpec("orthogonal", 8, 4), derive_stream(1, 0, 0))
    npt.assert_array_equal(a, b)


def test_nominal_variance_matches_samples():
    # uniform variance law b**2/3 at the documented bounds
    assert abs(nominal_weight_variance("kaiming-uniform", 256, 256) - 2.0 / 256) < 1e-15
    assert abs(nominal_weight_variance("kaiming-normal", 1024, 1) - 2.0 / 1024) < 1e-15
