"""Acceptance suite: one test per release criterion, at the stated
tolerances. The conftest hook prints one PASS/FAIL line per criterion at
the end of the session.

Criterion 07 exercises the full-MNIST desk-scale reproduction and needs
the real IDX files (see README); it skips with a message when they are
not available.
"""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats

from helpers import make_synthetic_mnist

from strength_init.dataset import dataset_paths, load_named_dataset, split
from strength_init.initializers import METHODS, InitSpec, init
from strength_init.manifest import ExperimentManifest, resolve_data_dir, run_manifest
from strength_init.rewiring import (
    RewireConfig,
    fit_loglog_slope,
    pa_rewire,
    max_strength_scaling,
    pa_rewire_conv,
    rewire_cost_probe,
)
from strength_init.rng import derive_stream, harness_generator
from strength_init.stats import kruskal_wallis, median_abs_deviation, pearson, welch_t_test
from strength_init.strength import strengths
from strength_init.training import (
    MlpArch,
    TrainConfig,
    _backward,
    _forward,
    _softmax_ce,
    train,
)

SEED = 20240901


def test_criterion_01_multiset_preservation():
    """1000 random initializer/shape cases, conv tensors included: the
    sorted entry list after rewiring equals the input bitwise."""
    gen = np.random.default_rng(SEED)
    for case in range(1000):
        method = METHODS[case % len(METHODS)]
        passes = "bidirectional" if case % 3 else "input-only"
        stream = derive_stream(SEED, 0, case)
        if case % 5 == 0:
            w, h, z = (int(v) for v in gen.integers(1, 5, size=3))
            o = int(gen.integers(1, 17))
            flat = init(InitSpec(method, w * h * z, o), stream)
            tensor = flat.reshape(w, h, z, o)
            out = pa_rewire_conv(tensor, RewireConfig(rng=stream, passes=passes))
        else:
            rows = int(gen.integers(1, 33))
            cols = int(gen.integers(1, 33))
            tensor = init(InitSpec(method, rows, cols), stream)
            out = pa_rewire(tensor, RewireConfig(rng=stream, passes=passes))
        npt.assert_array_equal(np.sort(out, axis=None), np.sort(tensor, axis=None))


def test_criterion_02_strength_collapse():
    """1024x1024, 100 seeds, bidirectional: mean strength variance on both
    sides is at most 10% of the unrewired mean (pre-build oracle measured
    ~2%, so the 10% threshold stands)."""
    for method in ("kaiming-uniform", "kaiming-normal"):
        base_in = base_out = rew_in = rew_out = 0.0
        for rep in range(100):
            stream = derive_stream(SEED + 2, 0, rep)
            w = init(InitSpec(method, 1024, 1024), stream)
            r = pa_rewire(w, RewireConfig(rng=stream, passes="bidirectional"))
            base_in += strengths(w, "input").var()
            base_out += strengths(w, "output").var()
            rew_in += strengths(r, "input").var()
            rew_out += strengths(r, "output").var()
        assert rew_in / base_in <= 0.10, method
        assert rew_out / base_out <= 0.10, method


def test_criterion_03_strength_variance_law():
    """200 kaiming-normal 1024x1024 layers: mean empirical strength
    variance within 10% of the predicted var(W) * n = 2.0."""
    varis = [
        strengths(init(InitSpec("kaiming-normal", 1024, 1024), derive_stream(SEED + 3, 0, rep)), "input").var()
        for rep in range(200)
    ]
    assert abs(np.mean(varis) - 2.0) / 2.0 < 0.10


def test_criterion_04_max_strength_scaling():
    """Sizes 64..4096, 100 trials: base mean max|s| strictly increases
    with size, rewired mean max|s| sits below base at every size."""
    rows = max_strength_scaling(
        "kaiming-uniform", [64, 256, 1024, 4096], 100, derive_stream(SEED + 4, 0, 0)
    )
    base = [r.base_mean for r in rows]
    assert all(a < b for a, b in zip(base, base[1:])), base
    for r in rows:
        assert r.rewired_mean < r.base_mean, r


def test_criterion_05_orthogonal_residuals():
    """50 random shapes: semi-orthogonality residual below 1e-8."""
    gen = np.random.default_rng(SEED + 5)
    for rep in range(50):
        rows = int(gen.integers(2, 300))
        cols = int(gen.integers(2, 300))
        w = init(InitSpec("orthogonal", rows, cols), derive_stream(SEED + 5, 0, rep))
        if rows >= cols:
            resid = np.abs(w.T @ w - np.eye(cols)).max()
        else:
            resid = np.abs(w @ w.T - np.eye(rows)).max()
        assert resid < 1e-8, (rows, cols, resid)


def test_criterion_06_gradient_correctness():
    """100 random toy networks (<=200 parameters): backprop matches
    central finite differences within 1e-5 relative error elementwise."""
    h = 1e-5
    gen = np.random.default_rng(SEED + 6)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        sizes = [int(gen.integers(2, 7)) for _ in range(int(gen.integers(3, 5)))]
        n_params = sum(a * b for a, b in zip(sizes, sizes[1:]))
        if n_params > 200:
            continue
        ws = [gen.normal(scale=0.8, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
        bs = [gen.normal(scale=0.1, size=b) for b in sizes[1:]]
        x = gen.normal(size=(6, sizes[0]))
        y = gen.integers(0, sizes[-1], size=6)
        pre, acts = _forward(ws, bs, x, collect=True)
        if pre[:-1] and min(np.abs(z).min() for z in pre[:-1]) < 1e-3:
            continue  # stay clear of the ReLU kink for the difference quotient

        def loss_of():
            a = x
            for l, (w, b) in enumerate(zip(ws, bs)):
                a = a @ w + b
                if l < len(ws) - 1:
                    a = np.maximum(a, 0.0)
            shifted = a - a.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return -logp[np.arange(6), y].mean()

        _, probs = _softmax_ce(pre[-1], y)
        grads_w, _ = _backward(ws, pre, acts, probs, y)
        for l in range(len(ws)):
            fd = np.zeros_like(ws[l])
            for i in range(ws[l].shape[0]):
                for j in range(ws[l].shape[1]):
                    ws[l][i, j] += h
                    up = loss_of()
                    ws[l][i, j] -= 2 * h
                    down = loss_of()
                    ws[l][i, j] += h
                    fd[i, j] = (up - down) / (2 * h)
            npt.assert_allclose(grads_w[l], fd, rtol=1e-5, atol=1e-8)
        checked += 1
    assert checked == 100


def _mnist_or_skip():
    data_dir = resolve_data_dir(None)
    try:
        dataset_paths(data_dir, "mnist")
    except FileNotFoundError:
        pytest.skip(
            f"real MNIST IDX files not found under {data_dir} "
            "(set STRENGTH_INIT_DATA or place them in ./data/mnist)"
        )
    return data_dir


def test_criterion_07_desk_scale_training():
    """Shallow-thin on full MNIST, kaiming-uniform, 10 seeds, 30 epochs:
    baseline mean epoch-1 train accuracy lands in [91.5, 94.5] and the
    rewired mean epoch-1 accuracy is at least the baseline mean. Needs
    the real dataset; skips otherwise."""
    data_dir = _mnist_or_skip()
    train_full, test_ds = load_named_dataset(data_dir, "mnist")
    assert train_full.n == 60000 and train_full.features.shape[1] == 784
    assert test_ds.n == 10000
    split_gen = harness_generator(SEED + 7, 1)
    train_ds, val_ds = split(train_full, test_ds.n, split_gen)
    assert (train_ds.n, val_ds.n) == (50000, 10000)
    arch = MlpArch((784, 64, 64, 10))

    def run_arm(rewire):
        accs = []
        for rep in range(10):
            cfg = TrainConfig(
                arch=arch,
                epochs=30,
                global_seed=SEED + 7,
                repetition_index=rep,
                init_method="kaiming-uniform",
                rewire=rewire,
            )
            accs.append(train(cfg, train_ds, val_ds, test_ds).train_acc[0])
        return float(np.mean(accs))

    base_mean = run_arm("none")
    pa_mean = run_arm("pa")
    assert 91.5 <= base_mean <= 94.5, base_mean
    assert pa_mean >= base_mean, (pa_mean, base_mean)


def test_criterion_08_statistics_oracle_equivalence():
    """Welch t, Kruskal-Wallis, Pearson, and MAD agree with the reference
    implementations within 1e-6 on 50 fixed random datasets."""
    gen = np.random.default_rng(SEED + 8)
    for _ in range(50):
        n = int(gen.integers(8, 80))
        a = gen.normal(gen.uniform(-3, 3), gen.uniform(0.3, 4.0), n)
        b = gen.normal(gen.uniform(-3, 3), gen.uniform(0.3, 4.0), n + int(gen.integers(0, 6)))
        t, p = welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert abs(t - ref.statistic) < 1e-6 and abs(p - ref.pvalue) < 1e-6
        hh, hp = kruskal_wallis(a, b)
        ref = scipy.stats.kruskal(a, b)
        assert abs(hh - ref.statistic) < 1e-6 and abs(hp - ref.pvalue) < 1e-6
        x = gen.normal(size=n)
        y = 0.5 * x + gen.normal(size=n)
        r, rp = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert abs(r - ref.statistic) < 1e-6 and abs(rp - ref.pvalue) < 1e-6
        assert abs(median_abs_deviation(a) - scipy.stats.median_abs_deviation(a)) < 1e-6


def test_criterion_09_null_calibration():
    """2000 same-distribution comparisons: rejection rate at alpha = 0.05
    stays within [0.03, 0.07] for both tests."""
    gen = np.random.default_rng(SEED + 9)
    n_sim = 2000
    rej_t = rej_h = 0
    for _ in range(n_sim):
        a = gen.normal(size=30)
        b = gen.normal(size=30)
        if welch_t_test(a, b)[1] < 0.05:
            rej_t += 1
        if kruskal_wallis(a, b)[1] < 0.05:
            rej_h += 1
    assert 0.03 <= rej_t / n_sim <= 0.07, rej_t / n_sim
    assert 0.03 <= rej_h / n_sim <= 0.07, rej_h / n_sim


def test_criterion_10_complexity_probe():
    """Wall-time of rewiring over n in {256..4096} fits a log-log slope
    inside [1.8, 2.5]."""
    table = rewire_cost_probe([256, 512, 1024, 2048, 4096], reps=3, seed=SEED + 10)
    slope = fit_loglog_slope(table)
    assert 1.8 <= slope <= 2.5, (slope, table)


def test_criterion_11_manifest_determinism(tmp_path):
    """Re-running a manifest reproduces every output byte for byte."""
    data_dir = make_synthetic_mnist(tmp_path / "data")
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        manifest = ExperimentManifest(
            dataset="mnist",
            arch=(16, 12, 10),
            out_dir=str(out),
            data_dir=str(data_dir),
            treatment_rewire="pa",
            global_seed=SEED + 11,
            repetitions=3,
            epochs=3,
            batch_size=32,
            lr0=0.05,
        )
        assert run_manifest(manifest) == 0
        outs.append(out)
    a, b = outs
    rel_paths = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_paths_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert rel_paths == rel_paths_b
    for rel in rel_paths:
        if rel.name == "manifest.json":
            continue  # embeds its own out_dir, everything else must match
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
