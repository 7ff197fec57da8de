"""The lock-step population engine against per-repetition SGD.

`reference_train` is the per-repetition training loop the population
engine replaced, kept verbatim with its own forward, loss, backward and
evaluation, so the engine's shared helpers cannot hide a difference:
every field of every RunMetrics must match it bit for bit.
"""

import json
import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from strength_init import _platform, training
from strength_init.dataset import Dataset, pixels_to_float, split
from strength_init.initializers import InitSpec, init
from strength_init.manifest import ExperimentManifest, _rep_records, _run_population
from strength_init.rng import BATCH_ORDER_DOMAIN, derive_stream, harness_generator
from strength_init.training import (
    MlpArch,
    RunMetrics,
    TrainConfig,
    TrainingDivergedError,
    build_layer_weights,
    train,
    train_population,
    _cosine_lr,
)

# "pa" rewires both sides; its id names the passes, as for "pa-input"
REWIRE_MODES = (
    "none",
    pytest.param("pa", id="pa-bidirectional"),
    "pa-input",
    "var-min:3",
    "var-max:3",
)


def _ref_forward_collect(weights, biases, x):
    pre = []
    acts = [x]
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        pre.append(z)
        a = np.maximum(z, 0.0) if l < last else z
        acts.append(a)
    return pre, acts


def _ref_softmax_ce(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    lse = np.log(exp.sum(axis=1)) + logits.max(axis=1)
    loss = float(np.mean(lse - logits[np.arange(labels.shape[0]), labels]))
    return loss, probs


def _ref_backward(weights, pre, acts, probs, labels):
    batch = labels.shape[0]
    delta = probs.copy()
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ weights[l].T
            delta[pre[l - 1] <= 0.0] = 0.0
    return grads_w, grads_b


def _ref_evaluate(weights, biases, features, labels, chunk=1024):
    n = features.shape[0]
    correct = 0
    loss_sum = 0.0
    for start in range(0, n, chunk):
        x = features[start : start + chunk]
        y = labels[start : start + chunk]
        a = x
        last = len(weights) - 1
        for l, (w, b) in enumerate(zip(weights, biases)):
            a = a @ w + b
            if l < last:
                a = np.maximum(a, 0.0)
        loss, _ = _ref_softmax_ce(a, y)
        loss_sum += loss * x.shape[0]
        correct += int(np.count_nonzero(a.argmax(axis=1) == y))
    return 100.0 * correct / n, loss_sum / n


def reference_train(cfg, train_ds, val_ds, test_ds):
    """One repetition, trained alone: the loop the population engine replaced."""
    weights = build_layer_weights(cfg)
    biases = [np.zeros(s) for s in cfg.arch.layer_sizes[1:]]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    batch_gen = harness_generator(cfg.global_seed, BATCH_ORDER_DOMAIN)

    metrics = RunMetrics(repetition_index=cfg.repetition_index)

    x_train, y_train = train_ds.features, train_ds.labels
    n = train_ds.n
    best_val = -1.0
    best_weights = None
    best_biases = None

    for epoch in range(cfg.epochs):
        lr = _cosine_lr(epoch, cfg.epochs, cfg.lr0)
        perm = batch_gen.permutation(n)
        grad_sums = np.zeros(len(weights))
        n_batches = 0
        for batch_i, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                pre, acts = _ref_forward_collect(weights, biases, xb)
                loss, probs = _ref_softmax_ce(pre[-1], yb)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch + 1, batch_i + 1, loss, cfg.repetition_index)
            grads_w, grads_b = _ref_backward(weights, pre, acts, probs, yb)
            for l, g in enumerate(grads_w):
                grad_sums[l] += float(np.abs(g).mean())
            n_batches += 1
            for l in range(len(weights)):
                vel_w[l] = 0.9 * vel_w[l] + grads_w[l]
                vel_b[l] = 0.9 * vel_b[l] + grads_b[l]
                weights[l] -= lr * vel_w[l]
                biases[l] -= lr * vel_b[l]

        train_acc, _ = _ref_evaluate(weights, biases, x_train, y_train)
        val_acc, val_loss = _ref_evaluate(weights, biases, val_ds.features, val_ds.labels)
        metrics.train_acc.append(train_acc)
        metrics.val_acc.append(val_acc)
        metrics.val_loss.append(val_loss)
        metrics.lr.append(lr)
        metrics.grad_abs_mean.append([float(s / n_batches) for s in grad_sums])
        if val_acc > best_val:
            best_val = val_acc
            best_weights = [w.copy() for w in weights]
            best_biases = [b.copy() for b in biases]
            metrics.convergence_epoch = epoch + 1

    test_acc, _ = _ref_evaluate(best_weights, best_biases, test_ds.features, test_ds.labels)
    metrics.test_acc = test_acc
    return metrics


def _task(n, seed):
    gen = np.random.default_rng(seed)
    centers = gen.normal(scale=2.0, size=(5, 10))
    labels = gen.integers(0, 5, size=n)
    feats = centers[labels] + gen.normal(scale=0.7, size=(n, 10))
    feats = (feats - feats.min()) / (feats.max() - feats.min())
    return Dataset(feats, labels.astype(np.int64))


@pytest.fixture(scope="module")
def splits():
    # 290 training rows: at batch size 48 the last batch has 2 rows, at 58
    # every batch is full
    train_ds, val_ds = split(_task(350, 0), 60, derive_stream(9, 0, 0))
    return train_ds, val_ds, _task(60, 1)


ARCHS = {1: (10, 5), 3: (10, 12, 8, 5)}


def _configs(n_pop, n_layers, rewire, batch_size=48):
    rewires = rewire if isinstance(rewire, (list, tuple)) else [rewire] * n_pop
    return [
        TrainConfig(
            arch=MlpArch(ARCHS[n_layers]),
            epochs=3,
            batch_size=batch_size,
            lr0=0.2,
            global_seed=13,
            repetition_index=r,
            rewire=rewires[r],
        )
        for r in range(n_pop)
    ]


@pytest.mark.parametrize("rewire", REWIRE_MODES)
@pytest.mark.parametrize("ragged_last_batch", [True, False])
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("n_pop", [1, 3])
def test_population_matches_per_repetition_training(
    splits, n_pop, n_layers, ragged_last_batch, rewire
):
    cfgs = _configs(n_pop, n_layers, rewire, batch_size=48 if ragged_last_batch else 58)
    got = train_population(cfgs, *splits)
    assert len(got) == n_pop
    for cfg, metrics in zip(cfgs, got):
        assert metrics.__dict__ == reference_train(cfg, *splits).__dict__


def test_mixed_rewire_population(monkeypatch, splits):
    cfgs = _configs(3, 3, ["none", "pa", "var-max:3"])
    for cfg, metrics in zip(cfgs, train_population(cfgs, *splits)):
        assert metrics.__dict__ == reference_train(cfg, *splits).__dict__
    # in two member groups, results come back in the order of the configs
    _spy_groups(monkeypatch, 2)
    backwards = cfgs[::-1]
    for cfg, metrics in zip(backwards, train_population(backwards, *splits), strict=True):
        assert metrics.__dict__ == reference_train(cfg, *splits).__dict__


def test_members_must_share_schedule(splits):
    a, b = _configs(2, 1, "none")
    with pytest.raises(ValueError, match="share"):
        train_population([a, replace(b, epochs=4)], *splits)
    with pytest.raises(ValueError):
        train_population([], *splits)


_LOCKSTEP = training._lockstep


def _spy_groups(monkeypatch, cores):
    """Let a population see `cores` CPUs; returns the list to which each
    member group's repetition indices are appended as the group starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    groups = []

    def spy(cfgs, *data):
        groups.append([cfg.repetition_index for cfg in cfgs])
        return _LOCKSTEP(cfgs, *data)

    monkeypatch.setattr(training, "_lockstep", spy)
    return groups


def test_more_groups_than_cores_write_the_bytes_of_one_group(monkeypatch, splits):
    # five member groups of one repetition each, on five threads with a
    # short switch interval: any state the groups shared would show in the
    # metric files, which must equal those of one population
    cfgs = _configs(5, 3, "var-max:3")

    def files(cores):
        groups = _spy_groups(monkeypatch, cores)
        runs = train_population(cfgs, *splits)
        # the lines of each repetition's file, as a manifest arm writes them
        return sorted(groups), [[json.dumps(rec) for rec in _rep_records(m)] for m in runs]

    one_groups, one = files(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        five_groups, five = files(8)
    finally:
        sys.setswitchinterval(interval)
    assert (one_groups, five_groups) == ([[0, 1, 2, 3, 4]], [[0], [1], [2], [3], [4]])
    assert len(one) == 5
    assert five == one


def _blas_threads():
    funcs = _platform._openblas_thread_functions()
    if funcs is None:
        pytest.skip("numpy's OpenBLAS thread functions are not found; populations train as one group")
    return funcs


def test_arm_holds_blas_at_one_thread_and_restores_it(monkeypatch, splits):
    get, set_ = _blas_threads()
    seen = []

    def spy(cfgs, *data):
        seen.append(get())
        raise RuntimeError("stop")

    monkeypatch.setattr(training, "_lockstep", spy)
    old = get()
    try:
        set_(2)
        with pytest.raises(RuntimeError, match="stop"):
            train_population(_configs(2, 1, "none"), *splits)
        after = get()
    finally:
        set_(old)
    assert seen == [1] * min(2, len(os.sched_getaffinity(0)))
    assert after == 2


def _spy_qr(monkeypatch, get):
    """The BLAS thread count of each np.linalg.qr call, in a list filled as they run."""
    seen, qr = [], np.linalg.qr

    def spy(a):
        seen.append(get())
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", spy)
    return seen


def test_concurrent_populations_overlap(monkeypatch, splits):
    # the second population enters while the first trains, and the count
    # the first found comes back only when the last of them returns
    get, set_ = _blas_threads()
    entered = [threading.Event(), threading.Event()]
    first_done = threading.Event()
    seen = []

    def spy(cfgs, *data):
        rep = cfgs[0].repetition_index
        seen.append(("enter", rep, get()))
        entered[rep].set()
        if rep == 0:
            entered[1].wait(timeout=10)
        else:
            first_done.wait(timeout=10)
            seen.append(("after first", rep, get()))
        return [RunMetrics(repetition_index=cfg.repetition_index) for cfg in cfgs]

    monkeypatch.setattr(training, "_lockstep", spy)
    first_cfg, second_cfg = _configs(2, 1, "none")
    old = get()
    try:
        set_(2)
        first = threading.Thread(target=train_population, args=([first_cfg], *splits))
        second = threading.Thread(target=train_population, args=([second_cfg], *splits))
        first.start()
        assert entered[0].wait(timeout=10)
        second.start()
        overlapped = entered[1].wait(timeout=10)
        first.join(timeout=10)
        first_done.set()
        second.join(timeout=10)
        after = get()
    finally:
        set_(old)
    assert overlapped
    assert not first.is_alive() and not second.is_alive()
    assert seen == [("enter", 0, 1), ("enter", 1, 1), ("after first", 1, 1)]
    assert after == 2


def test_orthogonal_init_beside_a_population_keeps_it_at_one_thread(monkeypatch, splits):
    get, set_ = _blas_threads()
    entered, init_done = threading.Event(), threading.Event()
    seen = []
    qr_threads = _spy_qr(monkeypatch, get)

    def spy(cfgs, *data):
        seen.append(get())
        entered.set()
        init_done.wait(timeout=10)
        seen.append(get())
        return [RunMetrics(repetition_index=cfg.repetition_index) for cfg in cfgs]

    monkeypatch.setattr(training, "_lockstep", spy)
    old = get()
    try:
        set_(2)
        population = threading.Thread(target=train_population, args=(_configs(1, 1, "none"), *splits))
        population.start()
        assert entered.wait(timeout=10)
        drawer = threading.Thread(target=init, args=(InitSpec("orthogonal", 64, 32), derive_stream(1, 0, 0)))
        drawer.start()
        drawer.join(timeout=10)
        init_done.set()
        population.join(timeout=10)
        after = get()
    finally:
        set_(old)
    assert not drawer.is_alive() and not population.is_alive()
    assert qr_threads == [1]
    assert seen == [1, 1]
    assert after == 2


def test_orthogonal_init_runs_its_qr_at_one_thread_and_restores_the_count(monkeypatch):
    get, set_ = _blas_threads()
    seen = _spy_qr(monkeypatch, get)
    old = get()
    try:
        set_(2)
        init(InitSpec("orthogonal", 48, 32), derive_stream(1, 0, 0))
        after = get()
    finally:
        set_(old)
    assert seen == [1]
    assert after == 2


def test_pin_counts_holders_across_many_threads():
    # more holders than cores, switching often: a lost update of the
    # holder count would leave a holder at the old count, or never restore it
    get, set_ = _blas_threads()
    wrong = []
    start = threading.Barrier(8, timeout=10)

    def hold():
        start.wait()
        for _ in range(20000):
            with _platform._one_blas_thread():
                if get() != 1:
                    wrong.append(get())

    old = get()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        set_(2)
        threads = [threading.Thread(target=hold) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        after = get()
    finally:
        sys.setswitchinterval(interval)
        set_(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert after == 2


def _diverging(reps):
    """build_layer_weights with the weights of `reps` scaled by 1e150, which
    makes their first batch's logits overflow float64."""
    def build(cfg):
        scale = 1e150 if cfg.repetition_index in reps else 1.0
        return [scale * w for w in build_layer_weights(cfg)]
    return build


def test_population_divergence_names_lowest_repetition(monkeypatch, splits, tmp_path):
    # repetitions 1 and 2 diverge; repetition 0 trains normally
    monkeypatch.setattr(training, "build_layer_weights", _diverging({1, 2}))
    cfgs = _configs(3, 3, "none")
    with pytest.raises(TrainingDivergedError) as exc:
        train_population(cfgs, *splits)
    assert (exc.value.epoch, exc.value.batch, exc.value.repetition) == (1, 1, 1)
    assert not math.isfinite(exc.value.loss)
    assert "repetition 1" in str(exc.value)
    # alone, the same repetition diverges at the same place and is still named
    with pytest.raises(TrainingDivergedError) as alone:
        train(cfgs[1], *splits)
    assert (alone.value.epoch, alone.value.batch, alone.value.repetition) == (1, 1, 1)
    assert str(alone.value) == f"non-finite loss {alone.value.loss} at epoch 1, batch 1, repetition 1"
    assert train(cfgs[0], *splits).__dict__ == reference_train(cfgs[0], *splits).__dict__
    # two member groups, repetitions (0, 2) and (1,), raise the same error
    # once both groups stop: whether repetition 2 diverges at the same
    # batch in the first group or the first group trains to the end
    groups = _spy_groups(monkeypatch, 2)
    for reps in ({1, 2}, {1}):
        monkeypatch.setattr(training, "build_layer_weights", _diverging(reps))
        groups.clear()
        with pytest.raises(TrainingDivergedError) as grouped:
            train_population(cfgs, *splits)
        assert sorted(groups) == [[0, 2], [1]]
        assert (grouped.value.epoch, grouped.value.batch, grouped.value.repetition) == (1, 1, 1)
    # a manifest arm that diverges writes no repetition file
    m = ExperimentManifest(dataset="mnist", arch=ARCHS[3], out_dir=str(tmp_path), epochs=3,
                           batch_size=48, lr0=0.2, global_seed=13, repetitions=3)
    assert [m.train_config("none", r) for r in range(3)] == cfgs
    with pytest.raises(TrainingDivergedError):
        _run_population(m, "none", tmp_path / "arm", splits)
    assert not list((tmp_path / "arm").glob("rep_*.jsonl"))


@pytest.mark.parametrize("eval_chunk", [2048, 7])
def test_pixels_train_like_their_scaled_copy(monkeypatch, eval_chunk):
    # uint8 features are scaled one batch and one evaluation chunk at a
    # time; the metrics must equal those of training on pixels_to_float of
    # them. A 7-row chunk ends each split on a partial slice of the buffer.
    gen = np.random.default_rng(5)
    labels = gen.integers(0, 5, size=410).astype(np.int64)
    centers = gen.integers(40, 216, size=(5, 10))
    pixels = np.clip(centers[labels] + gen.integers(-40, 41, size=(410, 10)), 0, 255).astype(np.uint8)
    full, test = Dataset(pixels[:350], labels[:350]), Dataset(pixels[350:], labels[350:])
    parts = (*split(full, 60, derive_stream(9, 0, 0)), test)
    monkeypatch.setattr(training, "_EVAL_CHUNK", eval_chunk)
    cfgs = _configs(3, 3, ["none", "pa", "var-max:3"])
    got = train_population(cfgs, *parts)
    want = train_population(cfgs, *(Dataset(pixels_to_float(p.features), p.labels) for p in parts))
    assert [m.__dict__ for m in got] == [m.__dict__ for m in want]
    assert got[0].train_acc[-1] > 20.0  # the task is learned, not a constant


def test_memory_is_weights_plus_a_few_chunks(monkeypatch):
    # MNIST-shaped uint8 splits, built before tracing: evaluation scales
    # _EVAL_CHUNK rows at a time into one reused buffer, so the peak is set
    # by the chunk, not by the size of a split
    gen = np.random.default_rng(3)
    parts = [
        Dataset(gen.integers(0, 256, size=(n, 784), dtype=np.uint8), gen.integers(0, 10, size=n))
        for n in (10000, 2000, 2000)
    ]
    cfgs = [
        TrainConfig(arch=MlpArch((784, 64, 64, 10)), epochs=1, global_seed=4, repetition_index=r)
        for r in range(4)
    ]
    # one population, then two member groups on two threads: each group
    # holds its own evaluation buffer, under one bound
    for cores, want in ((1, [[0, 1, 2, 3]]), (2, [[0, 2], [1, 3]])):
        groups = _spy_groups(monkeypatch, cores)
        tracemalloc.start()
        try:
            train_population(cfgs, *parts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(groups) == want
        assert peak <= 32 * 2**20
