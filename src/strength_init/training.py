"""From-scratch fully connected training under a fixed simple schedule.

The network is an MLP with ReLU hidden layers and a softmax
cross-entropy output, trained by mini-batch SGD with momentum and a
cosine learning-rate schedule annealed to zero (no restarts), updated
once per epoch. Weights come from the repository's initializers (plus
optional rewiring); biases start at zero and are excluded from strength
computation and rewiring throughout.

Randomness is strictly partitioned: weights draw from the per-layer
per-repetition streams, while the batch shuffle draws from a stream
derived from the global seed alone, so every repetition of an experiment
sees the same data order and differs only in its weights.

Per epoch the harness records end-of-epoch train accuracy, validation
accuracy and loss, the learning rate used, and (optionally) the mean
absolute weight gradient per layer averaged over the epoch's batches.
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
and the best-epoch snapshot; the end-of-epoch evaluations walk the
repetitions one at a time, so their memory does not grow with R. A
population stops with TrainingDivergedError at the first batch where any
member's loss is non-finite, naming the lowest such repetition.

Bit-identity holds on the same platform, with the same numpy/BLAS build
and the same BLAS thread count: on a 2-vCPU machine with OpenBLAS 0.3.31,
OPENBLAS_NUM_THREADS=1 and =2 give different training digests. Rewiring
and every initializer but orthogonal (whose QR goes through LAPACK, and
whose 784x256 draw also changes with the thread count) use no BLAS.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .initializers import METHODS, InitSpec, init
from .rewiring import RewireConfig, pa_rewire, variance_search
from .rng import BATCH_ORDER_DOMAIN, derive_stream, harness_generator

__all__ = [
    "MlpArch",
    "TrainConfig",
    "RunMetrics",
    "TrainingDivergedError",
    "parse_rewire_mode",
    "cosine_lr",
    "build_layer_weights",
    "train",
    "train_population",
    "gradient_flow",
    "evaluate",
]

_EVAL_CHUNK = 8192


@dataclass(frozen=True)
class MlpArch:
    """Layer widths from input to output, e.g. (784, 64, 64, 10)."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        try:
            # numpy integers pass; "1684" and 8.7 do not
            sizes = tuple(operator.index(s) for s in self.layer_sizes)
        except TypeError:
            raise TypeError(f"layer sizes must be integers, got {self.layer_sizes!r}") from None
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("an MLP needs at least input and output sizes")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {sizes}")

    @property
    def n_weight_layers(self) -> int:
        return len(self.layer_sizes) - 1


def parse_rewire_mode(mode: str) -> tuple[str, int | None]:
    """Split a rewire-mode string into (kind, K).

    Accepts "none", "pa" / "pa-bidirectional", "pa-input", and
    "var-min:K" / "var-max:K" with integer K >= 1.
    """
    mode = str(mode)
    if mode in ("none", "pa-bidirectional", "pa-input"):
        return mode, None
    if mode == "pa":
        return "pa-bidirectional", None
    for kind in ("var-min", "var-max"):
        if mode == kind or mode.startswith(kind + ":"):
            k = mode[len(kind) + 1 :] if ":" in mode else ""
            if not k:
                raise ValueError(f"{kind} needs a candidate count, e.g. {kind}:50")
            k = int(k)
            if k < 1:
                raise ValueError(f"{kind} candidate count must be >= 1, got {k}")
            return kind, k
    raise ValueError(f"unknown rewire mode {mode!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training repetition depends on."""

    arch: MlpArch
    epochs: int = 100
    batch_size: int = 128
    lr0: float = 0.01
    momentum: float = 0.9
    global_seed: int = 0
    repetition_index: int = 0
    init_method: str = "kaiming-uniform"
    init_gain: float = 1.0
    rewire: str = "none"
    log_gradients: bool = True

    def __post_init__(self):
        if self.init_method not in METHODS:
            raise ValueError(f"unknown init method {self.init_method!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.lr0 <= 0.0:
            raise ValueError(f"lr0 must be > 0, got {self.lr0}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            try:
                operator.index(value)  # numpy integers pass, 2.5 does not
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        parse_rewire_mode(self.rewire)


@dataclass
class RunMetrics:
    """Per-epoch trace plus the final selection of one training run."""

    repetition_index: int
    epochs: int
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    grad_abs_mean: list[list[float]] | None = None
    convergence_epoch: int = 0
    test_acc: float = 0.0

    def summary(self) -> dict:
        return {
            "type": "summary",
            "repetition": self.repetition_index,
            "epoch1_train_acc": self.train_acc[0],
            "epoch1_val_acc": self.val_acc[0],
            "convergence_epoch": self.convergence_epoch,
            "test_acc": self.test_acc,
        }

    def epoch_records(self) -> list[dict]:
        records = []
        for e in range(len(self.train_acc)):
            rec = {
                "type": "epoch",
                "epoch": e + 1,
                "train_acc": self.train_acc[e],
                "val_acc": self.val_acc[e],
                "val_loss": self.val_loss[e],
                "lr": self.lr[e],
            }
            if self.grad_abs_mean is not None:
                rec["grad_abs_mean"] = self.grad_abs_mean[e]
            records.append(rec)
        return records


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries where it happened.

    `repetition` names the diverged member of a population, and is None
    for a population of one.
    """

    def __init__(self, epoch: int, batch: int, loss: float, repetition: int | None = None):
        where = f"epoch {epoch}, batch {batch}"
        if repetition is not None:
            where += f", repetition {repetition}"
        super().__init__(f"non-finite loss {loss} at {where}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        self.repetition = repetition


def cosine_lr(epoch: int, total_epochs: int, lr0: float) -> float:
    """Cosine schedule: lr0 at epoch 0, lr0/2 halfway, exactly 0 at the end."""
    return lr0 * (1.0 + math.cos(math.pi * epoch / total_epochs)) / 2.0


def build_layer_weights(cfg: TrainConfig) -> list[np.ndarray]:
    """Initialize (and optionally rewire) every weight matrix of a config.

    Layer l draws from derive_stream(global_seed, l, repetition_index);
    rewiring continues on the same stream, so a baseline run and its
    rewired treatment start from identical pre-rewiring weights.
    """
    kind, k = parse_rewire_mode(cfg.rewire)
    sizes = cfg.arch.layer_sizes
    weights = []
    for l in range(cfg.arch.n_weight_layers):
        stream = derive_stream(cfg.global_seed, l, cfg.repetition_index)
        spec = InitSpec(cfg.init_method, sizes[l], sizes[l + 1], gain=cfg.init_gain)
        if kind == "none":
            w = init(spec, stream)
        elif kind == "pa-bidirectional":
            w = pa_rewire(init(spec, stream), RewireConfig(rng=stream, passes="bidirectional"))
        elif kind == "pa-input":
            w = pa_rewire(init(spec, stream), RewireConfig(rng=stream, passes="input-only"))
        elif kind == "var-min":
            w = variance_search(spec, k, "min", stream)
        elif kind == "var-max":
            w = variance_search(spec, k, "max", stream)
        else:
            raise AssertionError(kind)
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
    """
    batch = labels.shape[0]
    delta = probs.copy()
    delta[..., np.arange(batch), labels] -= 1.0
    delta /= batch
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = np.swapaxes(acts[l], -1, -2) @ delta
        grads_b[l] = delta.sum(axis=-2)
        if l > 0:
            delta = delta @ np.swapaxes(weights[l], -1, -2)
            # delta[pre <= 0] = 0.0 as a bitwise AND with all-ones or
            # all-zeros words: the same bits, without a branch per element
            keep = (pre[l - 1] <= 0.0).astype(np.uint64)
            keep -= 1
            bits = delta.view(np.uint64)
            np.bitwise_and(bits, keep, out=bits)
    return grads_w, grads_b


def evaluate(weights, biases, features, labels, chunk: int = _EVAL_CHUNK):
    """Accuracy (percent) and mean loss of a model over a dataset."""
    n = features.shape[0]
    correct = 0
    loss_sum = 0.0
    for start in range(0, n, chunk):
        x = features[start : start + chunk]
        y = labels[start : start + chunk]
        logits = _forward(weights, biases, x)
        loss, _ = _softmax_ce(logits, y)
        loss_sum += float(loss) * x.shape[0]
        correct += int(np.count_nonzero(logits.argmax(axis=1) == y))
    return 100.0 * correct / n, loss_sum / n


# What every member of a population shares: the network, the schedule and
# the batch order (a function of the global seed alone).
_SHARED_FIELDS = ("arch", "epochs", "batch_size", "lr0", "momentum", "global_seed", "log_gradients")


def train(cfg: TrainConfig, train_ds: Dataset, val_ds: Dataset, test_ds: Dataset) -> RunMetrics:
    """Run one full training repetition and return its metric trace.

    A population of one: see train_population. Deterministic: identical
    (cfg, data) gives an identical RunMetrics. Raises
    TrainingDivergedError if the batch loss ever goes non-finite.
    """
    return train_population([cfg], train_ds, val_ds, test_ds)[0]


def train_population(cfgs, train_ds: Dataset, val_ds: Dataset, test_ds: Dataset) -> list[RunMetrics]:
    """Train several repetitions in lock-step; one RunMetrics per config, in order.

    The configs may differ only in repetition_index, init_method,
    init_gain and rewire. Every member sees the same batches, so each
    batch is gathered once and every layer is one matmul over the stacked
    (R, n_in, n_out) weights. That matmul issues the same GEMM per member
    as training the member alone, and every other step is elementwise or
    runs on the member's own contiguous slice, so each RunMetrics is
    bit-identical to training that config by itself.

    Raises TrainingDivergedError at the first batch where any member's
    loss is non-finite, naming the lowest such repetition when R > 1.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("a population needs at least one config")
    head = cfgs[0]
    for cfg in cfgs[1:]:
        if any(getattr(cfg, f) != getattr(head, f) for f in _SHARED_FIELDS):
            raise ValueError(f"population members must share {', '.join(_SHARED_FIELDS)}")
    if val_ds.n < 1 or test_ds.n < 1:
        raise ValueError("validation and test sets must be nonempty")
    sizes = head.arch.layer_sizes
    if train_ds.features.shape[1] != sizes[0]:
        raise ValueError(
            f"architecture expects {sizes[0]} input features, "
            f"dataset has {train_ds.features.shape[1]}"
        )
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

    runs = [RunMetrics(repetition_index=cfg.repetition_index, epochs=cfg.epochs) for cfg in cfgs]
    if head.log_gradients:
        for m in runs:
            m.grad_abs_mean = []

    x_train, y_train = train_ds.features, train_ds.labels
    n = train_ds.n
    momentum = head.momentum

    for epoch in range(head.epochs):
        lr = cosine_lr(epoch, head.epochs, head.lr0)
        perm = batch_gen.permutation(n)
        grad_sums = np.zeros((n_pop, n_layers))
        n_batches = 0
        for batch_i, start in enumerate(range(0, n, head.batch_size)):
            idx = perm[start : start + head.batch_size]
            xb, yb = x_train[idx], y_train[idx]
            # a diverging run overflows before the loss check catches it;
            # the check is the detector, so keep the overflow quiet
            with np.errstate(over="ignore", invalid="ignore"):
                pre, acts = _forward(weights, biases, xb, collect=True)
                losses, probs = _softmax_ce(pre[-1], yb)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                r = min(bad, key=lambda i: cfgs[i].repetition_index)
                rep = cfgs[r].repetition_index if n_pop > 1 else None
                raise TrainingDivergedError(epoch + 1, batch_i + 1, float(losses[r]), rep)
            grads_w, grads_b = _backward(weights, pre, acts, probs, yb)
            if head.log_gradients:
                for l, g in enumerate(grads_w):
                    for r in range(n_pop):
                        grad_sums[r, l] += float(np.abs(g[r]).mean())
            n_batches += 1
            # v = momentum * v + g; w -= lr * v, with the gradient's
            # buffer reused for lr * v
            for param, vel, grad in zip(weights + biases, vel_w + vel_b, grads_w + grads_b):
                grad = grad.reshape(vel.shape)
                np.multiply(vel, momentum, out=vel)
                np.add(vel, grad, out=vel)
                np.multiply(vel, lr, out=grad)
                np.subtract(param, grad, out=param)

        for r, m in enumerate(runs):
            w_r = [w[r] for w in weights]
            b_r = [b[r] for b in biases]
            train_acc, _ = evaluate(w_r, b_r, x_train, y_train)
            val_acc, val_loss = evaluate(w_r, b_r, val_ds.features, val_ds.labels)
            m.train_acc.append(train_acc)
            m.val_acc.append(val_acc)
            m.val_loss.append(val_loss)
            m.lr.append(lr)
            if head.log_gradients:
                m.grad_abs_mean.append([float(s / n_batches) for s in grad_sums[r]])
            if val_acc > best_val[r]:
                best_val[r] = val_acc
                for src, dst in zip(weights + biases, best_w + best_b):
                    dst[r] = src[r]
                m.convergence_epoch = epoch + 1

    for r, m in enumerate(runs):
        m.test_acc, _ = evaluate(
            [w[r] for w in best_w], [b[r] for b in best_b], test_ds.features, test_ds.labels
        )
    return runs


def gradient_flow(metrics: RunMetrics) -> list[tuple[int, int, float]]:
    """Flatten the logged gradient trace to (epoch, layer, mean |grad|) rows.

    One row per epoch and weight matrix, epochs and layers both starting
    at 1 and 0 respectively. Raises if the run logged no gradients.
    """
    if metrics.grad_abs_mean is None:
        raise ValueError("gradient logging was disabled for this run")
    rows = []
    for e, per_layer in enumerate(metrics.grad_abs_mean):
        for l, v in enumerate(per_layer):
            rows.append((e + 1, l, v))
    return rows
