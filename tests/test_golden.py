"""Golden digests: SHA-256 of init, rewire and training outputs for fixed seeds.

The invariant tests elsewhere would not notice an optimization that moves a
single weight; these pins do. Rewiring and every initializer but orthogonal
call no BLAS, so their digests hold for a given numpy on a given platform.
Orthogonal init goes through LAPACK's QR, which calls BLAS: with OpenBLAS
0.3.31 a 784x256 draw changes bits between 1 and 2 threads, while the
48x32 draw pinned here does not. Inside a manifest run, which holds
OpenBLAS at one thread, the QR always runs at one thread.

The training pin holds the files of one small two-arm manifest run. Its
matmuls go through BLAS, so it holds for a given numpy/BLAS build on a
given platform; because a run pins BLAS to one thread, it holds under any
OPENBLAS_NUM_THREADS and any number of member groups. A change that
alters any digest changes the outputs of every seeded experiment.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from helpers import make_synthetic_mnist, weighted_draw_order
import strength_init
from strength_init import rewiring
from strength_init.manifest import ExperimentManifest, run_manifest
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
    # rectangular layers whose passes each span several blocks and end in a partial one
    (300, 2048, "input-only"): "f894a48738f80ad10520f50bbc767a20a32713bb41976a7b87dead8e6679eba0",
    (300, 2048, "bidirectional"): "5f79102a463ceb76b47ee75c25aecd6cb687713d44cbc54292046c175c8a3bd6",
    (2048, 300, "input-only"): "afe33a9c5bf2c0ce131ae9d75eeea41fb3e46f34d6a4970a709c5221f7954fa7",
    (2048, 300, "bidirectional"): "63003dfecbcc19c7ecaefe9a1c56830805491a935dbb98dc45ff1e9e3a3e714f",
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
# Each shape at the module's block size, then at blocks of 16 values, where
# the shapes from 3x7 up span several blocks of one pass or both.
REFERENCE_CASES = [pytest.param(r, c, None, id=f"{r}-{c}") for r, c in SMALL_SHAPES] + [
    pytest.param(r, c, 16, id=f"{r}-{c}-block16") for r, c in SMALL_SHAPES
]


@pytest.mark.parametrize("rows, cols, block", REFERENCE_CASES)
def test_pa_pass_matches_reference(rows, cols, block, monkeypatch):
    if block:
        monkeypatch.setattr(rewiring, "_BLOCK", block)
    m = np.random.default_rng(rows * 100 + cols).normal(size=(rows, cols))
    fast = derive_stream(SEED, rows, cols)
    ref = derive_stream(SEED, rows, cols)
    out = pa_rewire(m, RewireConfig(rng=fast, passes="input-only"))
    npt.assert_array_equal(out, reference_pass(m, ref))
    # both consumed exactly the same number of draws
    assert fast.random() == ref.random()


@pytest.mark.parametrize("rows, cols, block", REFERENCE_CASES)
def test_bidirectional_matches_reference(rows, cols, block, monkeypatch):
    if block:
        monkeypatch.setattr(rewiring, "_BLOCK", block)
    m = np.random.default_rng(rows * 100 + cols).normal(size=(rows, cols))
    fast = derive_stream(SEED, rows, cols)
    ref = derive_stream(SEED, rows, cols)
    out = pa_rewire(m, RewireConfig(rng=fast, passes="bidirectional"))
    expected = reference_pass(reference_pass(m, ref).T, ref).T
    npt.assert_array_equal(out, expected)
    assert fast.random() == ref.random()


# Every file of a two-arm run but manifest.json, which holds the paths.
# Layer 1 has K = 784, where 1 and 2 BLAS threads give different GEMM
# bits, and the train (1500 rows) and validation (1900 rows) splits each
# span two evaluation chunks, so their sums cross a chunk boundary.
TRAINING_DIGESTS = {
    "baseline/curves.csv": "abb96ee50318072cab5f67a419acf31e207768be8aa9866e1418e484d0e0b950",
    "baseline/gradients.csv": "8b75f11e4ee27a97eb4aa2dca055de075a736b9ca0ebde9b5daf5c9e6418d4f9",
    "baseline/rep_000.jsonl": "f1a15e20d668a6a574cf02e87c6be393be779090595291f78cc01deda6bb522d",
    "baseline/rep_001.jsonl": "721a74ad1d8cde4f946b81ad08b71049f45105e5067cc3ba029c9e7291a97c7b",
    "baseline/rep_002.jsonl": "beb5e93c29573ebca7555cb1e31e54d4238f5e9437e897de3e2717112cd8f8e1",
    "baseline/summary.json": "f9974bdbc374d1448cff744fa1953aa33ff7847a015940551d290cc6b47d45c5",
    "comparison.json": "0337c19101bdb6959baab1e43f6d57418d8cf53637f5d35663b6e3269ec201f8",
    "comparison.md": "423467a76bdacb5d10f9199a21e9fc0fa7054284d462c99977a3368006b72bef",
    "treatment/curves.csv": "1e4729b24300a0ef02d433d5ed6cd8572fcc8e43a3db1075ae0b2ddf23c09fa9",
    "treatment/gradients.csv": "8d921490fb6b9562a0b5f2012340de7154bad3da33925445cff17f6434962585",
    "treatment/rep_000.jsonl": "181a28cfa35150910b182fb2f71adca9e67434433e057f6a4d2a846aa644ac02",
    "treatment/rep_001.jsonl": "713f8c42304c3993fe26029683c526a5bb6a1a6985b2589ad8a92b8883e6b3fb",
    "treatment/rep_002.jsonl": "83ff440af9c9105a141f49ee9f389e42bbd52871c8ff0e70c3efa75bf833d8c7",
    "treatment/summary.json": "fc260ec3d00696fc6d2d79a9419d1279970143b703ad02b64647cb301103c19a",
}


@pytest.fixture(scope="module")
def mnist_784(tmp_path_factory):
    return make_synthetic_mnist(tmp_path_factory.mktemp("data"), n_train=3400, n_test=1900, side=28)


def golden_manifest(data_dir, out_dir):
    return ExperimentManifest(dataset="mnist", arch=(784, 32, 16, 10), out_dir=str(out_dir),
                              data_dir=str(data_dir), baseline_rewire="none", treatment_rewire="pa",
                              global_seed=SEED, repetitions=3, epochs=2, batch_size=64, lr0=0.05)


def run_digests(out_dir: Path) -> dict[str, str]:
    files = sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != "manifest.json")
    return {p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


@pytest.mark.parametrize("blas_threads", [1, 2])
def test_training_digest_at_any_blas_thread_count(mnist_784, tmp_path, blas_threads):
    # the thread count is read when numpy loads, so each run is a process of its own
    mpath = tmp_path / "m.json"
    mpath.write_text(golden_manifest(mnist_784, tmp_path / "out").to_json())
    src = Path(strength_init.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "strength_init.cli", "run", "--manifest", str(mpath)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert run_digests(tmp_path / "out") == TRAINING_DIGESTS


@pytest.mark.parametrize("n_groups", [1, 2], ids=["1-group", "2-groups"])
def test_training_digest_at_any_group_count(mnist_784, tmp_path, monkeypatch, n_groups):
    # an arm trains one member group per core it may run on
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_groups)))
    assert run_manifest(golden_manifest(mnist_784, tmp_path / "out")) == 0
    assert run_digests(tmp_path / "out") == TRAINING_DIGESTS
