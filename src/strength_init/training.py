"""From-scratch fully connected training under a fixed simple schedule.

The network is an MLP with ReLU hidden layers and a softmax
cross-entropy output, trained by mini-batch SGD with momentum _MOMENTUM
(0.9) and a cosine learning-rate schedule annealed to zero (no
restarts), updated once per epoch. Weights come from the repository's
initializers at their nominal scale (plus optional rewiring); biases
start at zero and are excluded from strength computation and rewiring
throughout.

Randomness is strictly partitioned: weights draw from the per-layer
per-repetition streams, while the batch shuffle draws from a stream
derived from the global seed alone, so every repetition of an experiment
sees the same data order and differs only in its weights.

Per epoch the harness records end-of-epoch train accuracy, validation
accuracy and loss, the learning rate used, and the mean absolute
weight gradient per layer averaged over the epoch's batches.
The final model is the epoch with the highest validation accuracy
(earliest epoch wins ties); test accuracy is evaluated once, there.

There is one engine, train_population, and train is a population of
one. Because the batch order is shared, R repetitions train in
lock-step: each batch is gathered once and every layer runs as one
matmul over the stacked (R, n_in, n_out) weights, which issues the same
GEMM per repetition as training it alone. Every other step is
elementwise or runs on one repetition's contiguous slice, so a
population's metrics are bit-identical to training each repetition by
itself. The engine holds R copies each of the weights, the velocities
and the best-epoch snapshot.

Features may be float64 or uint8 pixels (as load_named_dataset returns
them); pixels are scaled (dataset.pixels_to_float) one gathered batch or
evaluation chunk at a time, with the same bits as scaling them all up
front. evaluate takes a stacked population, so one model is a stack of
one, and runs chunks outer, members inner: each chunk of up to
_EVAL_CHUNK (1024) rows is scaled once into one float64 buffer per call
(6 MiB at 784 features) and every repetition runs its own forward pass
on it. The chunk size is a fixed constant: a member's loss is summed per
chunk, so it is part of the bits of val_loss once a split has more than
1024 rows; accuracies are exact counts.

One check (_check_split) refuses a split the network cannot take, with
ValueError: train_population runs it on all three splits before any
member group starts, and evaluate on its own input.

Reproducibility: the package's outputs are bit-identical for a given
seed on the same platform and numpy/BLAS build. A population trains as
n = min(R, cores) member groups, cores being the CPUs the process may
run on: group g holds configs g, g + n, g + 2n, ... Each group is one
lock-step population on its own thread, the calling thread running the
first, and OpenBLAS is held at one thread for the whole call (the
package's one pin, initializers._one_blas_thread, which evaluate also
holds), so the cores run independent GEMMs side by side and the outputs
of train, train_population, evaluate and a manifest run depend neither
on n nor on OPENBLAS_NUM_THREADS. Concurrent calls overlap. Where the
OpenBLAS thread functions cannot be found, a population trains as one
group and BLAS keeps its threads.
"""

from __future__ import annotations

import math
import os
import re
import threading
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, pixels_to_float
from .initializers import METHODS, InitSpec, _int, _ints, _one_blas_thread, _real, init
from .rewiring import RewireConfig, pa_rewire, variance_search
from .rng import BATCH_ORDER_DOMAIN, derive_stream, harness_generator

__all__ = [
    "MlpArch",
    "TrainConfig",
    "RunMetrics",
    "TrainingDivergedError",
    "build_layer_weights",
    "train",
    "train_population",
    "evaluate",
]

_EVAL_CHUNK = 1024
_MOMENTUM = 0.9


@dataclass(frozen=True)
class MlpArch:
    """Layer widths from input to output, e.g. (784, 64, 64, 10)."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = _ints(self.layer_sizes, "layer sizes")
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {sizes}")

    @property
    def n_weight_layers(self) -> int:
        return len(self.layer_sizes) - 1


_PA_PASSES = {"pa": "bidirectional", "pa-input": "input-only"}


def _parse_rewire_mode(mode: str) -> tuple[str, int | None]:
    """Split a rewire-mode string into (kind, K).

    Accepts "none", "pa" (bidirectional), "pa-input", and "var-min:K" /
    "var-max:K" with K >= 1 in ASCII digits and no leading zero, so each
    K has one spelling.
    """
    mode = str(mode)
    if mode == "none" or mode in _PA_PASSES:
        return mode, None
    kind, _, k = mode.partition(":")
    if kind not in ("var-min", "var-max"):
        raise ValueError(f"unknown rewire mode {mode!r}")
    if not re.fullmatch("[1-9][0-9]*", k):
        raise ValueError(
            f"{kind} needs a candidate count >= 1 in plain digits, e.g. {kind}:50, got {mode!r}"
        )
    return kind, int(k)


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training repetition depends on."""

    arch: MlpArch
    epochs: int = 100
    batch_size: int = 128
    lr0: float = 0.01
    global_seed: int = 0
    repetition_index: int = 0
    init_method: str = "kaiming-uniform"
    rewire: str = "none"

    def __post_init__(self):
        if self.init_method not in METHODS:
            raise ValueError(f"unknown init method {self.init_method!r}")
        if not (_real(self.lr0) and 0.0 < self.lr0 < math.inf):
            raise ValueError(f"lr0 must be a finite number > 0, got {self.lr0!r}")
        for name in ("epochs", "batch_size", "global_seed", "repetition_index"):
            _int(getattr(self, name), name)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.repetition_index < 0:
            raise ValueError(f"repetition_index must be >= 0, got {self.repetition_index}")
        _parse_rewire_mode(self.rewire)


@dataclass
class RunMetrics:
    """Per-epoch trace plus the final selection of one training run.

    manifest renders it as the records of a rep_*.jsonl file.
    """

    repetition_index: int
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    grad_abs_mean: list[list[float]] = field(default_factory=list)
    convergence_epoch: int = 0
    test_acc: float = 0.0


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries where it happened.

    `repetition` is the diverged member's repetition_index, also when it
    trained alone.
    """

    def __init__(self, epoch: int, batch: int, loss: float, repetition: int):
        where = f"epoch {epoch}, batch {batch}, repetition {repetition}"
        super().__init__(f"non-finite loss {loss} at {where}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        self.repetition = repetition


def _cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Cosine schedule: lr0 at epoch 0, lr0/2 halfway, exactly 0 at the end."""
    return lr0 * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


def build_layer_weights(cfg: TrainConfig) -> list[np.ndarray]:
    """Initialize (and optionally rewire) every weight matrix of a config.

    Layer l draws from derive_stream(global_seed, l, repetition_index);
    rewiring continues on the same stream, so a baseline run and its
    rewired treatment start from identical pre-rewiring weights.
    """
    kind, k = _parse_rewire_mode(cfg.rewire)
    sizes = cfg.arch.layer_sizes
    weights = []
    for l in range(cfg.arch.n_weight_layers):
        stream = derive_stream(cfg.global_seed, l, cfg.repetition_index)
        spec = InitSpec(cfg.init_method, sizes[l], sizes[l + 1])
        if kind.startswith("var-"):
            w = variance_search(spec, k, kind[4:], stream)
        else:
            w = init(spec, stream)
            if kind in _PA_PASSES:
                w = pa_rewire(w, RewireConfig(rng=stream, passes=_PA_PASSES[kind]))
        weights.append(w)
    return weights


def _forward(weights, biases, x, collect: bool = False):
    """Forward pass of one model or of a stacked population.

    Weights are (n_in, n_out) with biases broadcastable to (1, n_out), or
    stacked (R, n_in, n_out) with (R, 1, n_out); `x` is one shared
    (batch, n_in) block either way, which matmul broadcasts over the
    stack. Returns the logits, or with `collect` the pre-activations and
    the inputs of every layer (plus the logits) that backprop needs.
    """
    pre = []
    acts = [x]
    a = x
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w
        z += b
        a = np.maximum(z, 0.0) if l < last else z
        if collect:
            pre.append(z)
            acts.append(a)
    return (pre, acts) if collect else a


def _softmax_ce(logits, labels):
    """Mean cross-entropy over the batch axis and the softmax probabilities,
    numerically stable; a stacked (R, batch, k) input gives R losses."""
    top = logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits - top)
    total = exp.sum(axis=-1, keepdims=True)
    probs = exp / total
    lse = np.log(total[..., 0]) + top[..., 0]
    loss = np.mean(lse - logits[..., np.arange(labels.shape[0]), labels], axis=-1)
    return loss, probs


def _backward(weights, pre, acts, probs, labels):
    """Mean-reduced gradients for every weight matrix and bias vector.

    Works on one model or a stacked population alike (see _forward); bias
    gradients are (n_out,) per model, so (R, n_out) for a population.
    `probs` is consumed: it becomes the output layer's delta in place.
    """
    batch = labels.shape[0]
    delta = probs
    delta[..., np.arange(batch), labels] -= 1.0
    delta /= batch
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = np.swapaxes(acts[l], -1, -2) @ delta
        grads_b[l] = delta.sum(axis=-2)
        if l > 0:
            delta = delta @ np.swapaxes(weights[l], -1, -2)
            np.copyto(delta, 0.0, where=pre[l - 1] <= 0.0)
    return grads_w, grads_b


def _check_split(name, features, labels, n_in, n_out) -> None:
    """A split needs a row, 2-D features n_in wide and one integer label
    per row in [0, n_out): a class outside it would index past the logits."""
    if features.ndim != 2 or features.shape[1] != n_in:
        raise ValueError(f"{name} features must be (n, {n_in}) for the network, got {features.shape}")
    if features.shape[0] < 1:
        raise ValueError(f"{name} set must be nonempty")
    if labels.shape != features.shape[:1] or labels.dtype.kind not in "iu":
        raise ValueError(f"{name} labels must be one integer per row, got {labels.dtype} {labels.shape}")
    if not 0 <= labels.min() <= labels.max() < n_out:
        raise ValueError(f"{name} labels must lie in [0, {n_out}), found {labels.min()}..{labels.max()}")


def evaluate(weights, biases, features, labels):
    """(accuracy in percent, mean loss) of each member of a population.

    Weights are stacked (R, n_in, n_out) with biases (R, 1, n_out); one
    model is a stack of one. Each _EVAL_CHUNK rows of uint8 pixels are
    scaled once, into one buffer reused across chunks, and every member
    runs its own forward pass on them; a member's sums add up chunk by
    chunk, so the other members do not change its bits.
    """
    _check_split("evaluation", features, labels, weights[0].shape[-2], weights[-1].shape[-1])
    n_pop = weights[0].shape[0]
    n = features.shape[0]
    chunk = _EVAL_CHUNK
    buf = np.empty((min(chunk, n), features.shape[1])) if features.dtype == np.uint8 else None
    correct = [0] * n_pop
    loss_sum = [0.0] * n_pop
    with _one_blas_thread():
        for start in range(0, n, chunk):
            rows = features[start : start + chunk]
            x = rows if buf is None else pixels_to_float(rows, buf[: rows.shape[0]])
            y = labels[start : start + chunk]
            for r in range(n_pop):
                logits = _forward([w[r] for w in weights], [b[r] for b in biases], x)
                loss, _ = _softmax_ce(logits, y)
                loss_sum[r] += float(loss) * x.shape[0]
                correct[r] += int(np.count_nonzero(logits.argmax(axis=1) == y))
    return [(100.0 * c / n, s / n) for c, s in zip(correct, loss_sum)]


# What every member of a population shares: the network, the schedule and
# the batch order (a function of the global seed alone).
_SHARED_FIELDS = ("arch", "epochs", "batch_size", "lr0", "global_seed")


def train(cfg: TrainConfig, train_ds: Dataset, val_ds: Dataset, test_ds: Dataset) -> RunMetrics:
    """Run one full training repetition and return its metric trace.

    A population of one: see train_population. Deterministic: identical
    (cfg, data) gives an identical RunMetrics. Raises
    TrainingDivergedError if the batch loss ever goes non-finite.
    """
    return train_population([cfg], train_ds, val_ds, test_ds)[0]


def train_population(cfgs, train_ds: Dataset, val_ds: Dataset, test_ds: Dataset) -> list[RunMetrics]:
    """Train several repetitions in lock-step; one RunMetrics per config, in order.

    The configs may differ only in repetition_index, init_method and
    rewire. Each RunMetrics is bit-identical to training that config by
    itself, and uint8 pixels give the metrics of their pixels_to_float
    copy; member groups and the OpenBLAS pin change no bit (see the
    module docstring).

    Raises TrainingDivergedError once every group has stopped, naming the
    first batch where any member's loss is non-finite and the lowest such
    repetition.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("a population needs at least one config")
    head = cfgs[0]
    for cfg in cfgs[1:]:
        if any(getattr(cfg, f) != getattr(head, f) for f in _SHARED_FIELDS):
            raise ValueError(f"population members must share {', '.join(_SHARED_FIELDS)}")
    sizes = head.arch.layer_sizes
    for name, ds in (("train", train_ds), ("validation", val_ds), ("test", test_ds)):
        _check_split(name, ds.features, ds.labels, sizes[0], sizes[-1])
    with _one_blas_thread() as pinned:
        n = min(len(cfgs), len(os.sched_getaffinity(0))) if pinned else 1
        results, errors = [None] * n, [None] * n

        def run(g):
            try:
                results[g] = _lockstep(cfgs[g::n], train_ds, val_ds, test_ds)
            except Exception as exc:  # raised below, once every group is done
                errors[g] = exc

        # the calling thread trains group 0, so an interrupt (Ctrl-C)
        # propagates at once and the daemon threads end with the process
        threads = [threading.Thread(target=run, args=(g,), daemon=True) for g in range(1, n)]
        for t in threads:
            t.start()
        run(0)
        for t in threads:
            t.join()
    # the first error that is not a divergence, in group order, else the
    # divergence at the lowest (epoch, batch, repetition), as in one group
    failed = [e for e in errors if e is not None]
    if failed:
        faults = [e for e in failed if not isinstance(e, TrainingDivergedError)]
        raise faults[0] if faults else min(failed, key=lambda e: (e.epoch, e.batch, e.repetition))
    return [results[i % n][i // n] for i in range(len(cfgs))]


def _lockstep(cfgs, train_ds: Dataset, val_ds: Dataset, test_ds: Dataset) -> list[RunMetrics]:
    """Train one checked group of configs as one lock-step population."""
    head = cfgs[0]
    sizes = head.arch.layer_sizes
    n_pop = len(cfgs)
    n_layers = head.arch.n_weight_layers
    weights = [np.empty((n_pop, sizes[l], sizes[l + 1])) for l in range(n_layers)]
    for r, cfg in enumerate(cfgs):
        for l, w in enumerate(build_layer_weights(cfg)):
            weights[l][r] = w
    biases = [np.zeros((n_pop, 1, s)) for s in sizes[1:]]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    best_w = [np.empty_like(w) for w in weights]
    best_b = [np.empty_like(b) for b in biases]
    best_val = [-1.0] * n_pop
    batch_gen = harness_generator(head.global_seed, BATCH_ORDER_DOMAIN)

    runs = [RunMetrics(repetition_index=cfg.repetition_index) for cfg in cfgs]

    x_train, y_train = train_ds.features, train_ds.labels
    n = train_ds.n

    for epoch in range(head.epochs):
        lr = _cosine_lr(epoch, head.epochs, head.lr0)
        perm = batch_gen.permutation(n)
        grad_sums = np.zeros((n_pop, n_layers))
        n_batches = 0
        for batch_i, start in enumerate(range(0, n, head.batch_size)):
            idx = perm[start : start + head.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            xb = pixels_to_float(xb) if xb.dtype == np.uint8 else xb
            # a diverging run overflows before the loss check catches it;
            # the check is the detector, so keep the overflow quiet
            with np.errstate(over="ignore", invalid="ignore"):
                pre, acts = _forward(weights, biases, xb, collect=True)
                losses, probs = _softmax_ce(pre[-1], yb)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                r = min(bad, key=lambda i: cfgs[i].repetition_index)
                rep = cfgs[r].repetition_index
                raise TrainingDivergedError(epoch + 1, batch_i + 1, float(losses[r]), rep)
            grads_w, grads_b = _backward(weights, pre, acts, probs, yb)
            for l, g in enumerate(grads_w):
                for r in range(n_pop):
                    grad_sums[r, l] += float(np.abs(g[r]).mean())
            n_batches += 1
            # v = _MOMENTUM * v + g; w -= lr * v, with the gradient's
            # buffer reused for lr * v
            for param, vel, grad in zip(weights + biases, vel_w + vel_b, grads_w + grads_b):
                grad = grad.reshape(vel.shape)
                np.multiply(vel, _MOMENTUM, out=vel)
                np.add(vel, grad, out=vel)
                np.multiply(vel, lr, out=grad)
                np.subtract(param, grad, out=param)

        train_evals = evaluate(weights, biases, x_train, y_train)
        val_evals = evaluate(weights, biases, val_ds.features, val_ds.labels)
        for r, m in enumerate(runs):
            train_acc, _ = train_evals[r]
            val_acc, val_loss = val_evals[r]
            m.train_acc.append(train_acc)
            m.val_acc.append(val_acc)
            m.val_loss.append(val_loss)
            m.lr.append(lr)
            m.grad_abs_mean.append([float(s / n_batches) for s in grad_sums[r]])
            if val_acc > best_val[r]:
                best_val[r] = val_acc
                for src, dst in zip(weights + biases, best_w + best_b):
                    dst[r] = src[r]
                m.convergence_epoch = epoch + 1

    test_evals = evaluate(best_w, best_b, test_ds.features, test_ds.labels)
    for m, (test_acc, _) in zip(runs, test_evals):
        m.test_acc = test_acc
    return runs
