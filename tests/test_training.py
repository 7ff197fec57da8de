import math

import numpy as np
import numpy.testing as npt
import pytest

from strength_init import training
from strength_init.dataset import Dataset, scale_pixels, split
from strength_init.rng import derive_stream
from strength_init.training import (
    MlpArch,
    TrainConfig,
    TrainingDivergedError,
    build_layer_weights,
    cosine_lr,
    evaluate,
    parse_rewire_mode,
    train,
    _backward,
    _forward,
    _softmax_ce,
)


def synthetic_task(n=400, d=12, classes=6, seed=0):
    """Linearly separable-ish toy data so a few epochs show learning."""
    gen = np.random.default_rng(seed)
    centers = gen.normal(scale=2.0, size=(classes, d))
    labels = gen.integers(0, classes, size=n)
    feats = centers[labels] + gen.normal(scale=0.5, size=(n, d))
    feats = (feats - feats.min()) / (feats.max() - feats.min())
    return Dataset(feats, labels.astype(np.int64))


@pytest.fixture(scope="module")
def toy_splits():
    full = synthetic_task(n=400)
    test = synthetic_task(n=80, seed=1)
    train_ds, val_ds = split(full, 80, derive_stream(3, 0, 0))
    return train_ds, val_ds, test


def toy_config(**kw):
    base = dict(
        arch=MlpArch((12, 16, 6)),
        epochs=4,
        batch_size=32,
        lr0=0.05,
        global_seed=5,
        repetition_index=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestSchedule:
    def test_documented_values(self):
        assert cosine_lr(0, 100, 0.01) == 0.01
        assert abs(cosine_lr(50, 100, 0.01) - 0.005) < 1e-15
        assert abs(cosine_lr(100, 100, 0.01)) < 1e-12

    def test_monotone_decreasing(self):
        vals = [cosine_lr(e, 30, 0.1) for e in range(31)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestRewireModeParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("none", ("none", None)),
            ("pa", ("pa", None)),
            ("var-min:1", ("var-min", 1)),
            ("pa-input", ("pa-input", None)),
            ("var-min:50", ("var-min", 50)),
            ("var-max:7", ("var-max", 7)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rewire_mode(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "var-min", "var-min:", "var-min:0", "pa-output", "magic", "pa-bidirectional",
            # one spelling per K: ASCII digits, no sign, space, underscore or leading zero
            "var-min: 5", "var-min:+5", "var-min:5_0", "var-max:\u0663", "var-min:05",
        ],
    )
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rewire_mode(text)


class TestLossAndGradients:
    def test_uniform_predictor_loss_is_log_k(self):
        logits = np.zeros((32, 10))
        labels = np.arange(32) % 10
        loss, probs = _softmax_ce(logits, labels)
        assert abs(loss - math.log(10)) < 1e-9
        npt.assert_allclose(probs, 0.1)

    def test_backprop_matches_central_differences(self):
        # independent oracle: finite differences of a plainly written loss
        h = 1e-5
        checked = 0
        gen = np.random.default_rng(2024)
        for net in range(10):
            sizes = [4, 5, 4, 3]
            ws = [gen.normal(scale=0.8, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
            bs = [gen.normal(scale=0.1, size=b) for b in sizes[1:]]
            x = gen.normal(size=(8, 4))
            y = gen.integers(0, 3, size=8)

            def loss_of(ws, bs):
                a = x
                for l, (w, b) in enumerate(zip(ws, bs)):
                    a = a @ w + b
                    if l < len(ws) - 1:
                        a = np.maximum(a, 0.0)
                shifted = a - a.max(axis=1, keepdims=True)
                logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                return -logp[np.arange(8), y].mean()

            # keep pre-activations away from the ReLU kink so the finite
            # difference is taken on a smooth neighborhood
            pre, acts = _forward(ws, bs, x, collect=True)
            if min(np.abs(z).min() for z in pre[:-1]) < 1e-3:
                continue
            loss, probs = _softmax_ce(pre[-1], y)
            grads_w, grads_b = _backward(ws, pre, acts, probs, y)
            for l in range(len(ws)):
                fd = np.zeros_like(ws[l])
                for i in range(ws[l].shape[0]):
                    for j in range(ws[l].shape[1]):
                        ws[l][i, j] += h
                        up = loss_of(ws, bs)
                        ws[l][i, j] -= 2 * h
                        down = loss_of(ws, bs)
                        ws[l][i, j] += h
                        fd[i, j] = (up - down) / (2 * h)
                npt.assert_allclose(grads_w[l], fd, rtol=1e-5, atol=1e-8)
                fdb = np.zeros_like(bs[l])
                for j in range(bs[l].shape[0]):
                    bs[l][j] += h
                    up = loss_of(ws, bs)
                    bs[l][j] -= 2 * h
                    down = loss_of(ws, bs)
                    bs[l][j] += h
                    fdb[j] = (up - down) / (2 * h)
                npt.assert_allclose(grads_b[l], fdb, rtol=1e-5, atol=1e-8)
            checked += 1
        assert checked >= 5


class TestBuildWeights:
    def test_baseline_and_pa_share_pre_rewire_draws(self):
        base = build_layer_weights(toy_config(rewire="none"))
        rewired = build_layer_weights(toy_config(rewire="pa"))
        for b, r in zip(base, rewired):
            npt.assert_array_equal(np.sort(b, axis=None), np.sort(r, axis=None))

    def test_var_search_mode(self):
        ws = build_layer_weights(toy_config(rewire="var-min:5"))
        assert [w.shape for w in ws] == [(12, 16), (16, 6)]

    def test_repetitions_differ(self):
        a = build_layer_weights(toy_config(repetition_index=0))
        b = build_layer_weights(toy_config(repetition_index=1))
        assert not np.array_equal(a[0], b[0])


class TestTrain:
    def test_metrics_shape_and_ranges(self, toy_splits):
        metrics = train(toy_config(), *toy_splits)
        assert len(metrics.train_acc) == 4
        assert len(metrics.val_acc) == 4
        assert len(metrics.lr) == 4
        # one mean |grad| per epoch and weight layer
        assert [len(g) for g in metrics.grad_abs_mean] == [2] * 4
        assert all(v > 0.0 for g in metrics.grad_abs_mean for v in g)
        assert all(0.0 <= a <= 100.0 for a in metrics.train_acc)
        assert 1 <= metrics.convergence_epoch <= 4
        assert 0.0 <= metrics.test_acc <= 100.0

    def test_learning_happens(self, toy_splits):
        metrics = train(toy_config(epochs=8), *toy_splits)
        assert metrics.train_acc[-1] > 50.0

    def test_selection_rule(self, toy_splits):
        metrics = train(toy_config(epochs=6), *toy_splits)
        best = int(np.argmax(metrics.val_acc)) + 1
        assert metrics.convergence_epoch == best

    def test_deterministic_bitwise(self, toy_splits):
        a = train(toy_config(), *toy_splits)
        b = train(toy_config(), *toy_splits)
        assert a.train_acc == b.train_acc
        assert a.val_loss == b.val_loss
        assert a.grad_abs_mean == b.grad_abs_mean
        assert a.test_acc == b.test_acc

    def test_batch_order_shared_across_reps(self, toy_splits):
        # different repetitions see identical data order: their first-epoch
        # metrics differ only through the weights
        a = train(toy_config(repetition_index=0), *toy_splits)
        b = train(toy_config(repetition_index=1), *toy_splits)
        assert a.train_acc != b.train_acc  # weights differ

    def test_divergence_detected(self, toy_splits):
        # feature scale so large that the first update makes the next
        # batch's logits overflow float64
        train_ds, val_ds, test_ds = toy_splits
        huge = Dataset(train_ds.features * 1e155, train_ds.labels)
        with pytest.raises(TrainingDivergedError) as exc:
            train(toy_config(epochs=3), huge, val_ds, test_ds)
        assert exc.value.epoch >= 1
        assert not math.isfinite(exc.value.loss)

    def test_empty_validation_rejected(self, toy_splits):
        train_ds, _, test_ds = toy_splits
        empty = Dataset(np.zeros((0, 12)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            train(toy_config(), train_ds, empty, test_ds)

    def test_feature_width_mismatch(self, toy_splits):
        cfg = toy_config(arch=MlpArch((13, 8, 6)))
        with pytest.raises(ValueError, match="features"):
            train(cfg, *toy_splits)


class TestEvaluate:
    def test_perfect_predictor(self):
        # a weight matrix that copies the one-hot feature onto the logits
        feats = np.eye(4)
        labels = np.arange(4, dtype=np.int64)
        acc, loss = evaluate([np.eye(4) * 10.0], [np.zeros(4)], feats, labels)
        assert acc == 100.0
        assert loss < 1e-3

    def test_chunking_invariant(self, rng, monkeypatch):
        feats = rng.uniform(size=(100, 6))
        labels = rng.integers(0, 3, size=100)
        ws = [rng.normal(size=(6, 3))]
        bs = [np.zeros(3)]
        monkeypatch.setattr(training, "_EVAL_CHUNK", 7)
        a1 = evaluate(ws, bs, feats, labels)
        monkeypatch.setattr(training, "_EVAL_CHUNK", 100)
        a2 = evaluate(ws, bs, feats, labels)
        assert a1[0] == a2[0]
        assert abs(a1[1] - a2[1]) < 1e-12
        # uint8 pixels, scaled chunk by chunk (100 rows in chunks of 7 end
        # on a 2-row tail), give the bits of evaluating their scaled copy
        pixels = rng.integers(0, 256, size=(100, 6), dtype=np.uint8)
        scaled = scale_pixels(Dataset(pixels, labels)).features
        for chunk in (7, 100):
            monkeypatch.setattr(training, "_EVAL_CHUNK", chunk)
            assert evaluate(ws, bs, pixels, labels) == evaluate(ws, bs, scaled, labels)


class TestConfigValidation:
    def test_arch_too_short(self):
        with pytest.raises(ValueError):
            MlpArch((10,))

    def test_bad_momentum(self):
        with pytest.raises(ValueError):
            toy_config(momentum=1.0)

    def test_bad_lr(self):
        with pytest.raises(ValueError):
            toy_config(lr0=0.0)

    def test_bad_rewire(self):
        with pytest.raises(ValueError):
            toy_config(rewire="shuffle")

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", True), ("batch_size", True), ("lr0", True), ("init_gain", False), ("momentum", False),
         ("global_seed", True), ("repetition_index", True)],
    )
    def test_bool_is_not_a_number(self, field, value):
        with pytest.raises(ValueError):
            toy_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("global_seed", 1.5), ("global_seed", "1"), ("repetition_index", 1.0), ("repetition_index", -1)],
    )
    def test_seed_and_repetition_are_not_truncated(self, field, value):
        # 1.5 used to build seed 1's weights
        with pytest.raises(ValueError, match=field):
            toy_config(**{field: value})

    def test_bool_is_not_a_layer_size(self):
        with pytest.raises(TypeError):
            MlpArch((784, True))

    def test_summary_fields(self, toy_splits):
        metrics = train(toy_config(), *toy_splits)
        s = metrics.summary()
        assert s["type"] == "summary"
        assert set(s) >= {"epoch1_train_acc", "epoch1_val_acc", "convergence_epoch", "test_acc"}
        records = metrics.epoch_records()
        assert len(records) == 4
        assert records[0]["epoch"] == 1
