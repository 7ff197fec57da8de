"""Golden digests: SHA-256 of init and rewire outputs for fixed seeds.

The invariant tests elsewhere would not notice an optimization that moves a
single weight; these pins do. Rewiring and every initializer but orthogonal
call no BLAS, so their digests hold for a given numpy on a given platform.
Orthogonal init goes through LAPACK's QR, which calls BLAS: with OpenBLAS
0.3.31 a 784x256 draw changes bits between 1 and 2 threads, while the
48x32 draw pinned here does not. A change that alters any digest changes
the outputs of every seeded experiment.
"""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from helpers import weighted_draw_order
from strength_init.initializers import METHODS, InitSpec, init
from strength_init.rewiring import RewireConfig, attachment_scores, pa_rewire, pa_rewire_conv
from strength_init.rng import derive_stream

SEED = 20220717


def digest(a: np.ndarray) -> str:
    assert a.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


INIT_DIGESTS = {
    "glorot-uniform": "40b53192c7a9ebb8fe012ba379cb2f5c687c86de583ff70b54546b89bd7e95c0",
    "glorot-normal": "679c524599bb2077bf3b8770e4273d132acf31b60de520a598fd95caf657302f",
    "kaiming-uniform": "8bf50a134f141ae78c48c58a47f837a116baa5a40451137594dd043f59b0c913",
    "kaiming-normal": "1413db63d205de6eb47187e0dcb4bdf1d0a97807cc0574f359402ab01dbee258",
    "truncated-normal": "88b9026e06b010caa7e189365f79f97d13f12f849104708db2c9ea8a96b0e2ea",
    "orthogonal": "a9453ac97d24a3652dd48cee3dfe871f51c5b7a94d373158cd1c3e79bfed1e80",
}


@pytest.mark.parametrize("method", METHODS)
def test_init_digest(method):
    w = init(InitSpec(method, 48, 32), derive_stream(SEED, 0, 0))
    assert w.shape == (48, 32)
    assert digest(w) == INIT_DIGESTS[method]


REWIRE_DIGESTS = {
    # (rows, cols, passes): digest of pa_rewire(init(...)) on one stream
    (1, 5, "input-only"): "1ed4dc83a4e8d3c645efbadc90e2e12ea605fc97bcd89b2aa1f7c090b6d51807",
    (1, 5, "bidirectional"): "1ed4dc83a4e8d3c645efbadc90e2e12ea605fc97bcd89b2aa1f7c090b6d51807",
    (5, 1, "input-only"): "bfd2fbc0dddb0fabf80c7373033e44d7198fe4d21c98baf0e23ecf7e5fc8ad17",
    (5, 1, "bidirectional"): "bfd2fbc0dddb0fabf80c7373033e44d7198fe4d21c98baf0e23ecf7e5fc8ad17",
    (64, 10, "input-only"): "66195f029adfadb6d089479fcc40eb14eb7cdb23799b99246e3e7d77aaed2cba",
    (64, 10, "bidirectional"): "7e761ab8b0297ca1e0d019c12d2589bfa8a504c49affc8d4f56ba36922acfc4c",
    (784, 64, "input-only"): "363326029b076e6687439eaa428f5099399c708d36a392708a7aaf10933a1e9a",
    (784, 64, "bidirectional"): "cc94d30be938b2db6c4ed11716bb8f89f12393f2257b3a01c10b758c74ab947b",
    (256, 256, "input-only"): "ab0b4fafa745ac32b332b7d5a933121cdad99ab2627dd071a84b23d0d92bfc45",
    (256, 256, "bidirectional"): "2602b55e2907232c60d91f1e80e8ec6bd60dbd9d044e01d8b0ae877f6befdbf8",
    (1024, 1024, "input-only"): "61fabfe1e54b36508ba11a899a6cfa9b66d4d736c4d95a0a94710d4fb8d750b0",
    (1024, 1024, "bidirectional"): "97dbc068ca85ab7bdb5c2c230000c8d43bced42e1cd562bb11e6d0d2fd3a71d8",
}


@pytest.mark.parametrize("rows, cols, passes", sorted(REWIRE_DIGESTS))
def test_pa_rewire_digest(rows, cols, passes):
    # init and rewire share one stream, as in build_layer_weights
    stream = derive_stream(SEED, rows, cols)
    w = init(InitSpec("kaiming-uniform", rows, cols), stream)
    out = pa_rewire(w, RewireConfig(rng=stream, passes=passes))
    assert out.shape == (rows, cols)
    assert out.flags.c_contiguous
    assert digest(out) == REWIRE_DIGESTS[(rows, cols, passes)]


CONV_DIGESTS = {
    "input-only": "130c5319aa8b0e3030c4d1825c44222241964f0dd32ce732368ef6c4629a506a",
    "bidirectional": "63a219f734c0aab29a6627b02e9c404cadd7dab7553b7e3d33d28537c7afc5fb",
}


@pytest.mark.parametrize("passes", sorted(CONV_DIGESTS))
def test_pa_rewire_conv_digest(passes):
    stream = derive_stream(SEED, 3, 64)
    bank = init(InitSpec("kaiming-normal", 3 * 3 * 32, 64), stream).reshape(3, 3, 32, 64)
    out = pa_rewire_conv(bank, RewireConfig(rng=stream, passes=passes))
    assert out.shape == (3, 3, 32, 64)
    assert digest(out) == CONV_DIGESTS[passes]


def reference_pass(m, gen):
    """Input-side pass written column by column from the module's scores
    and the per-column draw: the definition the input-only pa_rewire must match."""
    out = np.array(m, dtype=np.float64)
    n_in, n_out = out.shape
    if n_in == 1 or n_out == 1:
        return out
    s = out[:, 0].copy()
    for t in range(1, n_out):
        order = weighted_draw_order(attachment_scores(s), gen)
        out[order, t] = np.sort(out[:, t])
        s += out[:, t]
    return out


SMALL_SHAPES = [(1, 1), (1, 4), (4, 1), (2, 2), (3, 7), (7, 3), (16, 16), (40, 9)]


@pytest.mark.parametrize("rows, cols", SMALL_SHAPES)
def test_pa_pass_matches_reference(rows, cols):
    m = np.random.default_rng(rows * 100 + cols).normal(size=(rows, cols))
    fast = derive_stream(SEED, rows, cols)
    ref = derive_stream(SEED, rows, cols)
    out = pa_rewire(m, RewireConfig(rng=fast, passes="input-only"))
    npt.assert_array_equal(out, reference_pass(m, ref))
    # both consumed exactly the same number of draws
    assert fast.random() == ref.random()


@pytest.mark.parametrize("rows, cols", SMALL_SHAPES)
def test_bidirectional_matches_reference(rows, cols):
    m = np.random.default_rng(rows * 100 + cols).normal(size=(rows, cols))
    fast = derive_stream(SEED, rows, cols)
    ref = derive_stream(SEED, rows, cols)
    out = pa_rewire(m, RewireConfig(rng=fast, passes="bidirectional"))
    expected = reference_pass(reference_pass(m, ref).T, ref).T
    npt.assert_array_equal(out, expected)
    assert fast.random() == ref.random()
