"""Seeded inputs and the timed rounds of the benchmark's workloads.

A round is a workload's fixed job; run.py repeats it until the time budget
is spent. Only the program's own steps are timed: each runs inside
``with watch:``, and the digests and checks between them do not. The
package is called through module attributes looked up at call time
(``si.rewiring.pa_rewire``), so the tracer sees every call.

The inputs depend on the seed only through random streams: every seed
gives the same shapes, methods and amounts of work, so timings of
different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import shutil
import struct
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import strength_init as si
from checks import collapse_problems, rewire_problems, train_problems


class Stopwatch:
    """Sums the time spent inside ``with`` blocks."""

    def __init__(self):
        self.total = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.total += time.perf_counter() - self._start


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a)).hexdigest()


def _failure(what: str, exc: Exception) -> str:
    traceback.print_exception(exc)
    return f"{what} raised {exc!r}"


@dataclass
class Round:
    timed_s: float
    attempted: int
    failed: int
    problems: list[str]
    counts: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class LayerSpec:
    rows: int
    cols: int
    method: str
    passes: str
    global_seed: int
    layer_index: int
    filter_shape: tuple[int, int, int] | None = None  # (w, h, z) of a conv filter bank

    def label(self) -> str:
        if self.filter_shape is None:
            shape = f"{self.rows}x{self.cols}"
        else:
            shape = "x".join(str(d) for d in (*self.filter_shape, self.cols))
        return f"{shape} {self.method} {self.passes}"


@dataclass
class LayerOutput:
    init_digest: str
    rewire_digest: str
    var_before: float  # input-side strength variance
    var_after: float
    problems: list[str]


def run_layer(spec: LayerSpec, workdir: Path, watch: Stopwatch, check: bool) -> LayerOutput:
    """One layer through init, WMAT round trip, rewiring, WMAT round trip, with
    strength statistics on both sides before and after rewiring."""
    init_path, rewired_path = workdir / "init.wmat", workdir / "rewired.wmat"
    with watch:
        stream = si.rng.derive_stream(spec.global_seed, spec.layer_index, 0)
        w = si.initializers.init(si.initializers.InitSpec(spec.method, spec.rows, spec.cols), stream)
    init_digest = sha256(w)
    with watch:
        si.matrix_io.save_matrix(w, init_path)
        w_in = si.matrix_io.load_matrix(init_path)
    problems = [] if np.array_equal(w, w_in) else ["init WMAT round trip changed the matrix"]
    del w  # hold only what a user of the pipeline would, so peak memory is the program's
    cfg = si.rewiring.RewireConfig(rng=stream, passes=spec.passes)
    with watch:
        before = [si.strength.strength_stats(w_in, side) for side in ("input", "output")]
        if spec.filter_shape is None:
            r = si.rewiring.pa_rewire(w_in, cfg)
        else:
            bank = si.matrix_io.conv_from_2d(w_in, spec.filter_shape)
            r = si.matrix_io.conv_to_2d(si.rewiring.pa_rewire_conv(bank, cfg))
    rewire_digest = sha256(r)
    with watch:
        si.matrix_io.save_matrix(r, rewired_path)
        r_in = si.matrix_io.load_matrix(rewired_path)
        after = [si.strength.strength_stats(r_in, side) for side in ("input", "output")]
    if not np.array_equal(r, r_in):
        problems.append("rewired WMAT round trip changed the matrix")
    del r
    if check:
        problems += rewire_problems(w_in, r_in, spec.passes)
        if spec.rows == spec.cols:
            problems += collapse_problems(spec.rows, after[0].variance / before[0].variance)
    return LayerOutput(init_digest, rewire_digest, before[0].variance, after[0].variance, problems)


# collapse_ratio averages the rewired layers with at least this many input
# neurons. Every workload has some, and with fewer rows the ratio of one
# layer swings too much from seed to seed to compare runs.
COLLAPSE_MIN_ROWS = 256


class LayerWorkload:
    """The same list of layers through the pipeline every round.

    Round 0 checks every output; later rounds must reproduce round 0's
    digests bit for bit, which is cheaper than sorting 4096^2 entries again.
    """

    def __init__(self, make_specs):
        self._make_specs = make_specs

    def make_inputs(self, seed: int, workdir: Path) -> None:
        self.specs: list[LayerSpec] = self._make_specs(seed)
        self.reference: list[LayerOutput | None] = []
        self.workdir = workdir

    @property
    def work_per_round(self) -> int:
        """Weights pushed through the pipeline in one round."""
        return sum(s.rows * s.cols for s in self.specs)

    def run_round(self, index: int) -> Round:
        watch = Stopwatch()
        failed, problems = 0, []
        for i, spec in enumerate(self.specs):
            try:
                out = run_layer(spec, self.workdir, watch, check=index == 0)
                issues = list(out.problems)
            except Exception as exc:  # the package failed this layer: count it, go on
                out, issues = None, [_failure("pipeline", exc)]
            if index == 0:
                self.reference.append(out if not issues else None)
            elif self.reference[i] is None:
                issues.append("failed in round 0")
            elif out is not None and (out.init_digest, out.rewire_digest) != (
                self.reference[i].init_digest,
                self.reference[i].rewire_digest,
            ):
                issues.append("output differs from round 0 on the same input")
            if issues:
                failed += 1
                problems += [f"round {index} layer {i} ({spec.label()}): {p}" for p in issues]
        return Round(watch.total, len(self.specs), failed, problems)

    def quality(self) -> dict[str, float]:
        ratios = [
            ref.var_after / ref.var_before
            for spec, ref in zip(self.specs, self.reference)
            if ref is not None and spec.rows >= COLLAPSE_MIN_ROWS
        ]
        return {"collapse_ratio": float(np.mean(ratios)) if ratios else float("nan")}

    def info(self) -> dict:
        return {
            "layers": [
                {
                    "layer": spec.label(),
                    "init_sha256": ref.init_digest if ref else None,
                    "rewire_sha256": ref.rewire_digest if ref else None,
                }
                for spec, ref in zip(self.specs, self.reference)
            ]
        }


def _global_seed(seed: int, workload: int) -> int:
    return int(np.random.default_rng([seed, workload]).integers(2**62))


def sweep_specs(seed: int) -> list[LayerSpec]:
    """Four 1024^2 and one 4096^2 kaiming-uniform layer, rewired both ways:
    the top sizes of the max-strength sweep."""
    gs = _global_seed(seed, 0)
    sizes = (1024, 1024, 1024, 1024, 4096)
    return [LayerSpec(n, n, "kaiming-uniform", "bidirectional", gs, i) for i, n in enumerate(sizes)]


SMALL_SHAPES = (
    (784, 64, None),
    (64, 64, None),
    (64, 10, None),
    (256, 10, None),
    (256, 256, None),
    (9, 32, (3, 3, 1)),
    (288, 64, (3, 3, 32)),
    (75, 64, (5, 5, 3)),
)
SMALL_METHODS = ("kaiming-uniform", "glorot-normal", "truncated-normal", "orthogonal")
SMALL_COPIES = 4


def small_layer_specs(seed: int) -> list[LayerSpec]:
    """256 cache-resident layers: MLP shapes and conv filter banks, every
    shape with four initializers and both pass modes, in a seeded order."""
    gs = _global_seed(seed, 1)
    combos = [
        (rows, cols, conv, method, passes)
        for rows, cols, conv in SMALL_SHAPES
        for method in SMALL_METHODS
        for passes in ("bidirectional", "input-only")
        for _ in range(SMALL_COPIES)
    ]
    order = np.random.default_rng([seed, 2]).permutation(len(combos))
    return [
        LayerSpec(rows, cols, method, passes, gs, i, conv)
        for i, (rows, cols, conv, method, passes) in enumerate(combos[j] for j in order)
    ]


IMAGE_SIDE = 28
N_CLASSES = 10
LABEL_NOISE = 0.2  # without it the templates are separable and every run scores 100%


def _idx_bytes(images: np.ndarray, labels: np.ndarray) -> tuple[bytes, bytes]:
    n = images.shape[0]
    return (
        struct.pack(">iiii", 0x803, n, IMAGE_SIDE, IMAGE_SIDE) + images.tobytes(),
        struct.pack(">ii", 0x801, n) + labels.tobytes(),
    )


def write_mnist_like(seed: int, directory: Path, n_train: int, n_test: int) -> None:
    """MNIST-shaped IDX files: one blob template per class, random contrast,
    Gaussian pixel noise, and a share of labels replaced at random."""
    gen = np.random.default_rng([seed, 3])
    yy, xx = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    templates = np.zeros((N_CLASSES, IMAGE_SIDE, IMAGE_SIDE))
    for c in range(N_CLASSES):
        for cy, cx, s in gen.uniform((6, 6, 2), (22, 22, 5), size=(4, 3)):
            templates[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
    templates /= templates.max(axis=(1, 2), keepdims=True)

    def draw(n):
        labels = gen.integers(0, N_CLASSES, n)
        images = np.empty((n, IMAGE_SIDE, IMAGE_SIDE), dtype=np.uint8)
        for start in range(0, n, 2000):
            lab = labels[start : start + 2000]
            contrast = gen.uniform(0.5, 1.0, (lab.size, 1, 1))
            x = templates[lab] * contrast + gen.normal(0.0, 0.3, (lab.size, IMAGE_SIDE, IMAGE_SIDE))
            images[start : start + lab.size] = np.clip(x * 255.0, 0.0, 255.0).astype(np.uint8)
        noisy = gen.random(n) < LABEL_NOISE
        labels[noisy] = gen.integers(0, N_CLASSES, int(noisy.sum()))
        return _idx_bytes(images, labels.astype(np.uint8))

    directory.mkdir(parents=True, exist_ok=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        images, labels = draw(n)
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(images)
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(labels)


class TrainWorkload:
    """One manifest run per round: a baseline and a PA arm on generated data."""

    ARCH = (784, 64, 64, 10)
    ARMS = ("baseline", "treatment")
    REPETITIONS = 4
    EPOCHS = 3
    N_TRAIN = 12_000  # the split moves N_TEST of these to validation
    N_TEST = 2_000
    MIN_TEST_ACC = 2 * 100.0 / N_CLASSES  # twice chance

    def make_inputs(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.global_seed = _global_seed(seed, 4)
        write_mnist_like(seed, workdir / "data" / "mnist", self.N_TRAIN, self.N_TEST)
        self.test_accs: list[float] = []
        self.collapse = float("nan")
        self.train_digests: dict[str, str] = {}
        self.weight_digests: dict[str, list[list[str]]] = {}

    @property
    def work_per_round(self) -> int:
        """Training samples seen in one round."""
        return self.REPETITIONS * len(self.ARMS) * self.EPOCHS * (self.N_TRAIN - self.N_TEST)

    def _manifest(self, index: int):
        return si.manifest.ExperimentManifest(
            dataset="mnist",
            arch=self.ARCH,
            out_dir=str(self.workdir / f"run{index}"),
            baseline_rewire="none",
            treatment_rewire="pa",
            global_seed=self.global_seed,
            repetitions=self.REPETITIONS,
            epochs=self.EPOCHS,
            batch_size=128,
            data_dir=str(self.workdir / "data"),
            jobs=1,
        )

    def run_round(self, index: int) -> Round:
        m = self._manifest(index)
        out_dir = Path(m.out_dir)
        attempted = self.REPETITIONS * len(self.ARMS)
        watch = Stopwatch()
        try:
            with watch:
                si.manifest.run_manifest(m)
        except Exception as exc:  # a diverged or crashed run fails all its repetitions
            shutil.rmtree(out_dir, ignore_errors=True)
            return Round(watch.total, attempted, attempted, [f"round {index}: " + _failure("run_manifest", exc)])
        passed, problems = train_problems(out_dir, self.ARMS, self.MIN_TEST_ACC)
        files = [p for p in out_dir.rglob("*") if p.is_file()]
        counts = {"manifest.files_written": len(files), "manifest.bytes_written": sum(p.stat().st_size for p in files)}
        if index == 0:
            self.test_accs = [acc for arm in self.ARMS for acc in passed[arm]]
            self.train_digests = {
                arm: hashlib.sha256(b"".join(p.read_bytes() for p in sorted((out_dir / arm).glob("rep_*.jsonl")))).hexdigest()
                for arm in self.ARMS
            }
            self._check_weights(m)
        shutil.rmtree(out_dir)
        failed = attempted - sum(len(v) for v in passed.values())
        return Round(watch.total, attempted, failed, [f"round {index}: {p}" for p in problems], counts)

    def _check_weights(self, m) -> None:
        """Rebuild every repetition's initial weights outside the timed part,
        from the run's seeds, for their digests and collapse_ratio: rewired /
        unrewired input-side strength variance of the layers with
        COLLAPSE_MIN_ROWS inputs or more."""
        ratios = []
        self.weight_digests = {arm: [] for arm in self.ARMS}
        for rep in range(m.repetitions):
            base = si.training.build_layer_weights(m.train_config(m.baseline_rewire, rep))
            pa = si.training.build_layer_weights(m.train_config(m.treatment_rewire, rep))
            self.weight_digests["baseline"].append([sha256(w) for w in base])
            self.weight_digests["treatment"].append([sha256(w) for w in pa])
            ratios += [
                np.var(r.sum(axis=1)) / np.var(b.sum(axis=1))
                for b, r in zip(base, pa)
                if b.shape[0] >= COLLAPSE_MIN_ROWS
            ]
        self.collapse = float(np.mean(ratios))

    def quality(self) -> dict[str, float]:
        acc = float(np.mean(self.test_accs)) if self.test_accs else float("nan")
        return {"collapse_ratio": self.collapse, "test_acc_mean": acc}

    def info(self) -> dict:
        return {
            "initial_weights_sha256": self.weight_digests,
            "training_sha256_info_only": self.train_digests,
            "test_acc": self.test_accs,
        }


def make_workload(name: str):
    if name == "sweep":
        return LayerWorkload(sweep_specs)
    if name == "small-layers":
        return LayerWorkload(small_layer_specs)
    if name == "train":
        return TrainWorkload()
    raise ValueError(f"unknown workload {name!r}")
