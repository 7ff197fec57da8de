"""Property tests of the rewiring invariants over edge-case inputs.

Layers include 1xn and nx1 shapes, repeated and constant columns, and
magnitudes just inside and just outside the attachment-score overflow
guard. Values are compared by their bit patterns, so a rewire must move
weights without changing a single bit, the sign of a zero included. See
MacIver et al., "Hypothesis: A new approach to property-based testing"
(JOSS 2019).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from strength_init.rewiring import PASS_MODES, RewireConfig, pa_rewire, pa_rewire_conv
from strength_init.rng import derive_stream

DBL_MAX = float(np.finfo(np.float64).max)

dims = st.integers(1, 10)
shapes = st.one_of(st.tuples(dims, dims), dims.map(lambda n: (1, n)), dims.map(lambda n: (n, 1)))
bank_shapes = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 6))
seeds = st.integers(0, 2**32 - 1)
modes = st.sampled_from(PASS_MODES)
# zeros and a subnormal are spelled out so that ties occur and a rewire
# that rounds or re-adds a weight changes its bits in the examples run
values = st.floats(-8.0, 8.0) | st.sampled_from((0.0, -0.0, 5e-324))


@st.composite
def weights(draw, shape_strategy):
    """A float64 array whose last axis indexes output neurons; one output
    neuron may repeat another's weights, and one may be constant."""
    shape = draw(shape_strategy)
    w = draw(arrays(np.float64, shape, elements=values))
    n_out = shape[-1]
    if n_out > 1 and draw(st.booleans()):
        w[..., draw(st.integers(0, n_out - 1))] = w[..., draw(st.integers(0, n_out - 1))]
    if draw(st.booleans()):
        w[..., draw(st.integers(0, n_out - 1))] = draw(values)
    return w


def bits(a, axis=None):
    """The sorted bit patterns of `a` along `axis` (all entries for None)."""
    return np.sort(np.ascontiguousarray(a).view(np.uint64), axis=axis)


def cfg(seed, passes):
    return RewireConfig(rng=derive_stream(seed, 0, 0), passes=passes)


@given(weights(shapes), seeds)
def test_input_only_permutes_each_column(m, seed):
    out = pa_rewire(m, cfg(seed, "input-only"))
    assert out.shape == m.shape
    np.testing.assert_array_equal(bits(out, axis=0), bits(m, axis=0))
    assert out[:, 0].tobytes() == m[:, 0].tobytes()


@given(weights(shapes), seeds)
def test_bidirectional_preserves_multiset(m, seed):
    out = pa_rewire(m, cfg(seed, "bidirectional"))
    assert out.shape == m.shape
    np.testing.assert_array_equal(bits(out), bits(m))


@given(weights(shapes), seeds, modes)
def test_equal_streams_give_equal_output(m, seed, passes):
    assert pa_rewire(m, cfg(seed, passes)).tobytes() == pa_rewire(m, cfg(seed, passes)).tobytes()


@given(weights(bank_shapes), seeds)
def test_conv_input_only_permutes_each_filter(t, seed):
    out = pa_rewire_conv(t, cfg(seed, "input-only"))
    assert out.shape == t.shape
    flat_in, flat_out = t.reshape(-1, t.shape[-1]), out.reshape(-1, t.shape[-1])
    np.testing.assert_array_equal(bits(flat_out, axis=0), bits(flat_in, axis=0))
    assert out[..., 0].tobytes() == t[..., 0].tobytes()


@given(weights(bank_shapes), seeds, modes)
def test_conv_preserves_multiset_and_is_deterministic(t, seed, passes):
    out = pa_rewire_conv(t, cfg(seed, passes))
    np.testing.assert_array_equal(bits(out), bits(t))
    assert pa_rewire_conv(t, cfg(seed, passes)).tobytes() == out.tobytes()


@st.composite
def at_score_bound(draw, shape_strategy, inside):
    """Weights whose max |w| sits a relative 1e-9 inside or outside the
    largest magnitude _check_score_bound accepts for their 2-D shape."""
    shape = draw(shape_strategy)
    rows, cols = int(np.prod(shape[:-1])), shape[-1]
    amax = DBL_MAX / (128.0 * rows * cols) * ((1.0 - 1e-9) if inside else (1.0 + 1e-9))
    w = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))) * amax
    w.flat[draw(st.integers(0, w.size - 1))] = draw(st.sampled_from((-amax, amax)))
    return w


@pytest.mark.parametrize("rewire", [pa_rewire, pa_rewire_conv], ids=["2d", "conv"])
@given(data=st.data(), seed=seeds, passes=modes)
def test_score_bound_edges(rewire, data, seed, passes):
    shape_strategy = shapes if rewire is pa_rewire else bank_shapes
    inside = data.draw(at_score_bound(shape_strategy, inside=True))
    with np.errstate(over="raise"):
        out = rewire(inside, cfg(seed, passes))
    np.testing.assert_array_equal(bits(out), bits(inside))
    outside = data.draw(at_score_bound(shape_strategy, inside=False))
    with pytest.raises(ValueError, match="overflow"):
        rewire(outside, cfg(seed, passes))


def test_signed_zero_tied_with_zero_keeps_its_sign():
    m = np.zeros((9, 2))
    m[0, 1] = -0.0
    out = pa_rewire(m, cfg(0, "input-only"))
    assert np.count_nonzero(np.signbit(out[:, 1])) == 1
