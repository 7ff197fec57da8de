"""
Gradient flow through the layers
================================

During training the harness logs the mean absolute weight gradient of
every layer, averaged over each epoch's batches. Comparing the trace of a
baseline model against its rewired twin shows where the backward signal
grows or shrinks. (With real MNIST the rewired models show a smaller
output-layer gradient and larger early-layer gradients in the first
epochs; the tiny synthetic task here just demonstrates the machinery.)
"""

import numpy as np

from strength_init.dataset import Dataset, split
from strength_init.rng import derive_stream
from strength_init.training import MlpArch, TrainConfig, train

gen = np.random.default_rng(5)
centers = gen.normal(scale=2.0, size=(6, 20))
labels = gen.integers(0, 6, size=800)
feats = centers[labels] + gen.normal(scale=0.6, size=(800, 20))
feats = (feats - feats.min()) / (feats.max() - feats.min())
full = Dataset(feats, labels.astype(np.int64))
train_ds, val_ds = split(full, 150, derive_stream(1, 0, 0))
test_ds = Dataset(full.features[:150], full.labels[:150])

for rewire in ("none", "pa"):
    cfg = TrainConfig(
        arch=MlpArch((20, 24, 24, 6)),
        epochs=5,
        batch_size=32,
        lr0=0.05,
        global_seed=3,
        rewire=rewire,
    )
    metrics = train(cfg, train_ds, val_ds, test_ds)
    print(f"\nrewire={rewire}: mean |grad| per (epoch, layer)")
    n_layers = cfg.arch.n_weight_layers
    print("epoch  " + "  ".join(f"layer {l}" for l in range(n_layers)))
    for e, vals in enumerate(metrics.grad_abs_mean):
        print(f"{e + 1:5d}  " + "  ".join(f"{v:7.5f}" for v in vals))
