"""The lock-step population engine against per-repetition SGD.

`reference_train` is the per-repetition training loop the population
engine replaced, kept verbatim with its own forward, loss, backward and
evaluation, so the engine's shared helpers cannot hide a difference:
every field of every RunMetrics must match it bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from strength_init.dataset import Dataset, split
from strength_init.rng import BATCH_ORDER_DOMAIN, derive_stream, harness_generator
from strength_init.training import (
    MlpArch,
    RunMetrics,
    TrainConfig,
    TrainingDivergedError,
    build_layer_weights,
    cosine_lr,
    train,
    train_population,
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


def _ref_evaluate(weights, biases, features, labels, chunk=8192):
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
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
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
                raise TrainingDivergedError(epoch + 1, batch_i + 1, loss)
            grads_w, grads_b = _ref_backward(weights, pre, acts, probs, yb)
            for l, g in enumerate(grads_w):
                grad_sums[l] += float(np.abs(g).mean())
            n_batches += 1
            for l in range(len(weights)):
                vel_w[l] = cfg.momentum * vel_w[l] + grads_w[l]
                vel_b[l] = cfg.momentum * vel_b[l] + grads_b[l]
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


def test_mixed_rewire_population(splits):
    cfgs = _configs(3, 3, ["none", "pa", "var-max:3"])
    for cfg, metrics in zip(cfgs, train_population(cfgs, *splits)):
        assert metrics.__dict__ == reference_train(cfg, *splits).__dict__


def test_members_must_share_schedule(splits):
    a, b = _configs(2, 1, "none")
    with pytest.raises(ValueError, match="share"):
        train_population([a, replace(b, epochs=4)], *splits)
    with pytest.raises(ValueError):
        train_population([], *splits)


def test_population_divergence_names_lowest_repetition(splits):
    # orthogonal weights at gain 1e150 make the first batch's logits
    # overflow float64 for repetitions 1 and 2; repetition 0 trains normally
    cfgs = _configs(3, 3, "none")
    cfgs[1:] = [replace(c, init_method="orthogonal", init_gain=1e150) for c in cfgs[1:]]
    with pytest.raises(TrainingDivergedError) as exc:
        train_population(cfgs, *splits)
    assert (exc.value.epoch, exc.value.batch, exc.value.repetition) == (1, 1, 1)
    assert not math.isfinite(exc.value.loss)
    assert "repetition 1" in str(exc.value)
    # alone, the same repetition diverges at the same place and the
    # message keeps the single-run form
    with pytest.raises(TrainingDivergedError) as alone:
        train(cfgs[1], *splits)
    assert (alone.value.epoch, alone.value.batch, alone.value.repetition) == (1, 1, None)
    assert str(alone.value) == f"non-finite loss {alone.value.loss} at epoch 1, batch 1"
    assert train(cfgs[0], *splits).__dict__ == reference_train(cfgs[0], *splits).__dict__
