"""
Training with and without rewiring
==================================

End-to-end experiment on a small synthetic image task (drop real MNIST
IDX files into ./data/mnist and raise the sizes to reproduce the full
protocol): train a population of MLPs from the same seeds twice, once on
the raw initializer output and once after rewiring, then compare the two
populations with Welch t and Kruskal-Wallis verdicts.

Everything is driven by one manifest, so the whole run is reproducible
bit for bit from the JSON document this script writes.
"""

import tempfile
from pathlib import Path

import numpy as np

from strength_init.dataset import write_idx_images, write_idx_labels
from strength_init.manifest import ExperimentManifest, run_manifest

work = Path(tempfile.mkdtemp(prefix="strength_init_demo_"))

# a small class-template dataset in MNIST's on-disk layout
side, n_train, n_test = 6, 1200, 200
gen = np.random.default_rng(0)
centers = gen.integers(20, 235, size=(10, side * side))
data_dir = work / "data" / "mnist"
data_dir.mkdir(parents=True)


def render(n):
    labels = gen.integers(0, 10, size=n).astype(np.uint8)
    images = np.clip(centers[labels] + gen.integers(-30, 31, size=(n, side * side)), 0, 255)
    return images.astype(np.uint8).reshape(n, side, side), labels


imgs, labs = render(n_train)
write_idx_images(data_dir / "train-images-idx3-ubyte", imgs)
write_idx_labels(data_dir / "train-labels-idx1-ubyte", labs)
imgs, labs = render(n_test)
write_idx_images(data_dir / "t10k-images-idx3-ubyte", imgs)
write_idx_labels(data_dir / "t10k-labels-idx1-ubyte", labs)

manifest = ExperimentManifest(
    dataset="mnist",
    arch=(side * side, 32, 32, 10),
    out_dir=str(work / "runs"),
    data_dir=str(work / "data"),
    init_method="kaiming-uniform",
    baseline_rewire="none",
    treatment_rewire="pa",
    global_seed=7,
    repetitions=8,
    epochs=6,
    batch_size=64,
    lr0=0.05,
)
(work / "manifest.json").write_text(manifest.to_json())
print(f"running manifest ({manifest.repetitions} reps x 2 arms, {manifest.epochs} epochs) ...")
run_manifest(manifest)

print("\ncomparison report:\n")
print((work / "runs" / "comparison.md").read_text())
print(f"all outputs under {work}")
