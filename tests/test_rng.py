import numpy as np
import numpy.testing as npt
import pytest

from strength_init.initializers import InitSpec, init
from strength_init.rng import (
    BATCH_ORDER_DOMAIN,
    SPLIT_DOMAIN,
    derive_stream,
    harness_generator,
)


def test_same_triple_same_draws():
    a = derive_stream(42, 3, 9).uniform(size=1000)
    b = derive_stream(42, 3, 9).uniform(size=1000)
    npt.assert_array_equal(a, b)


def test_distinct_layers_differ():
    a = derive_stream(42, 0, 0).uniform(size=1000)
    b = derive_stream(42, 1, 0).uniform(size=1000)
    assert not np.array_equal(a, b)


def test_distinct_repetitions_differ():
    a = derive_stream(42, 0, 0).uniform(size=1000)
    b = derive_stream(42, 0, 1).uniform(size=1000)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = derive_stream(1, 0, 0).uniform(size=100)
    b = derive_stream(2, 0, 0).uniform(size=100)
    assert not np.array_equal(a, b)


def test_negative_seed_is_masked_to_64_bits():
    a = derive_stream(-1, 0, 0).uniform(size=10)
    b = derive_stream((1 << 64) - 1, 0, 0).uniform(size=10)
    npt.assert_array_equal(a, b)


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        derive_stream(0, -1, 0)
    with pytest.raises(ValueError):
        derive_stream(0, 0, -1)


def test_hundred_repetitions_pairwise_distinct():
    # collision check across repetition streams of one layer
    spec = InitSpec("kaiming-normal", 256, 256)
    digests = set()
    for rep in range(100):
        w = init(spec, derive_stream(7, 0, rep))
        digests.add(w.tobytes()[:256])
    assert len(digests) == 100


def test_harness_domains_are_independent():
    batch = harness_generator(7, BATCH_ORDER_DOMAIN).uniform(size=100)
    split = harness_generator(7, SPLIT_DOMAIN).uniform(size=100)
    layer = derive_stream(7, BATCH_ORDER_DOMAIN, 0).uniform(size=100)
    assert not np.array_equal(batch, split)
    # 1-element harness keys never collide with 2-element layer keys
    assert not np.array_equal(batch, layer)


def test_harness_generator_deterministic():
    a = harness_generator(9, BATCH_ORDER_DOMAIN).permutation(50)
    b = harness_generator(9, BATCH_ORDER_DOMAIN).permutation(50)
    npt.assert_array_equal(a, b)


def test_streams_are_numpy_generators():
    assert isinstance(derive_stream(3, 1, 2), np.random.Generator)
    assert isinstance(harness_generator(3, SPLIT_DOMAIN), np.random.Generator)
