"""Experiment manifests: one JSON document that reproduces a whole run.

A manifest pins the dataset, architecture, initializer, rewire mode(s),
seeds, schedule, and output directory. Running it executes every
repetition, writes one JSON-lines metric file per repetition (one record
per epoch plus a final summary record), a merged summary per arm, CSV
curve bundles for plotting, and, when both a baseline and a treatment
arm are declared, a statistical comparison report. Re-running the same
manifest into a new out_dir reproduces every output byte for byte, under
the conditions the training module's docstring gives.

Each arm is one training.train_population call, written out as its
rep_*.jsonl files alone; the arm's summary.json and CSVs and the
comparison are computed from those files (read_run_dir), as `strength-init
compare` computes its report. Both arms share one split of uint8 pixels.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from ._platform import _finite, _int, _ints
from .dataset import DATASET_NAMES, load_named_dataset, split
from .rng import SPLIT_DOMAIN, harness_generator
from .stats import COMPARE_METRICS, ComparisonReport, compare, sample_std
from .training import MlpArch, RunMetrics, TrainConfig, _check_splits, train_population

__all__ = ["ExperimentManifest", "run_manifest", "plot_export", "read_run_dir"]

DATA_ENV_VAR = "STRENGTH_INIT_DATA"

# The manifest fields every repetition's TrainConfig takes as they are;
# TrainConfig keeps their defaults.
_SCHEDULE = ("init_method", "global_seed", "epochs", "batch_size", "lr0")
_CURVE_KEYS = ("train_acc", "val_acc", "val_loss")  # RunMetrics fields, curves.csv's columns, in order


@dataclass(frozen=True)
class ExperimentManifest:
    """Serializable description of one experiment."""

    dataset: str
    arch: tuple[int, ...]
    out_dir: str
    init_method: str = TrainConfig.init_method
    baseline_rewire: str = "none"
    treatment_rewire: str | None = None
    global_seed: int = TrainConfig.global_seed
    repetitions: int = 100  # the full protocol's population size; desk runs override
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr0: float = TrainConfig.lr0
    data_dir: str | None = None
    jobs: int = 1  # must be 1: an arm sizes its own member groups; the benchmark passes jobs=1

    def __post_init__(self):
        # stored as plain ints so to_json can write them; numpy integers
        # pass, 1.5 and true do not
        object.__setattr__(self, "arch", _ints(self.arch, "manifest field arch"))
        for name in ("repetitions", "epochs", "batch_size", "global_seed", "jobs"):
            object.__setattr__(self, name, _int(getattr(self, name), f"manifest field {name}"))
        if not isinstance(self.out_dir, str):
            raise ValueError(f"manifest field out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.data_dir, (str, type(None))):
            raise ValueError(f"manifest field data_dir must be a string or null, got {self.data_dir!r}")
        # fail at load time, not after the dataset is read: each declared
        # arm's TrainConfig checks arch, init, rewire and schedule
        if self.dataset not in DATASET_NAMES:
            raise ValueError(f"unknown dataset {self.dataset!r}, expected one of {DATASET_NAMES}")
        # lr0 as the plain float TrainConfig stores, so to_json can write it
        object.__setattr__(self, "lr0", self.train_config(self.baseline_rewire, 0).lr0)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.treatment_rewire is not None:
            self.train_config(self.treatment_rewire, 0)
            if self.repetitions < 2:
                raise ValueError("comparing a treatment arm needs repetitions >= 2")
        if self.jobs != 1:
            raise ValueError(f"jobs must be 1 (an arm splits into one member group per core), got {self.jobs}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentManifest":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("manifest must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown manifest fields: {sorted(unknown)}")
        missing = {"dataset", "arch", "out_dir"} - set(doc)
        if missing:
            raise ValueError(f"manifest missing required fields: {sorted(missing)}")
        return cls(**doc)

    @classmethod
    def load(cls, path) -> "ExperimentManifest":
        return cls.from_json(Path(path).read_text())

    def train_config(self, rewire: str, repetition: int) -> TrainConfig:
        schedule = {name: getattr(self, name) for name in _SCHEDULE}
        return TrainConfig(MlpArch(self.arch), repetition_index=repetition, rewire=rewire, **schedule)


def _resolve_data_dir(explicit=None) -> Path:
    """Data directory precedence: explicit argument, $STRENGTH_INIT_DATA, ./data."""
    return Path(explicit or os.environ.get(DATA_ENV_VAR) or "data")


def _prepare_data(manifest: ExperimentManifest):
    """(train, validation, test) with uint8 pixel features.

    No part is scaled here: training scales each batch and evaluation
    chunk as it uses it, so no float64 copy of the pixels is held.
    """
    data_dir = _resolve_data_dir(manifest.data_dir)
    train_full, test = load_named_dataset(data_dir, manifest.dataset)
    split_gen = harness_generator(manifest.global_seed, SPLIT_DOMAIN)
    return (*split(train_full, test.n, split_gen), test)


def _rep_records(m: RunMetrics) -> list[dict]:
    """The records of one repetition's rep_*.jsonl file, one per line:
    an "epoch" record per epoch, then its "summary" record."""
    epochs = [
        {
            "type": "epoch",
            "epoch": e + 1,
            **{key: getattr(m, key)[e] for key in _CURVE_KEYS},
            "lr": m.lr[e],
            "grad_abs_mean": m.grad_abs_mean[e],
        }
        for e in range(len(m.train_acc))
    ]
    summary = {
        "type": "summary",
        "repetition": m.repetition_index,
        "epoch1_train_acc": m.train_acc[0],
        "epoch1_val_acc": m.val_acc[0],
        "convergence_epoch": m.convergence_epoch,
        "test_acc": m.test_acc,
    }
    return epochs + [summary]


def _run_population(manifest: ExperimentManifest, rewire: str, arm_dir: Path, data) -> None:
    """Train one arm as one population and write its rep_*.jsonl files."""
    arm_dir.mkdir(parents=True, exist_ok=True)
    cfgs = [manifest.train_config(rewire, r) for r in range(manifest.repetitions)]
    for metrics in train_population(cfgs, *data):
        with open(arm_dir / f"rep_{metrics.repetition_index:03d}.jsonl", "w") as f:
            f.writelines(json.dumps(rec) + "\n" for rec in _rep_records(metrics))


def _summaries(runs_dir) -> list[dict]:
    return [doc["summary"] for doc in read_run_dir(runs_dir)]


def _write_arm_summary(arm_dir: Path, rewire: str) -> list[dict]:
    summaries = _summaries(arm_dir)
    agg = {}
    for key, _, _ in COMPARE_METRICS:
        vals = np.asarray([s[key] for s in summaries], dtype=np.float64)
        agg[key] = {
            "mean": float(vals.mean()),
            "std": sample_std(vals),
            "median": float(np.median(vals)),
        }
    doc = {"rewire": rewire, "repetitions": len(summaries), "aggregate": agg, "runs": summaries}
    (arm_dir / "summary.json").write_text(json.dumps(doc, indent=2) + "\n")
    return summaries


def _compare_run_dirs(baseline_dir, treatment_dir) -> ComparisonReport:
    """What run_manifest writes as comparison.* and `strength-init compare` prints."""
    return compare(_summaries(baseline_dir), _summaries(treatment_dir))


def run_manifest(manifest: ExperimentManifest) -> int:
    """Execute a manifest end to end; returns 0 on success.

    Baseline always runs; the treatment arm and the comparison report are
    produced only when treatment_rewire is declared. An out_dir that holds
    repetition files, data that fail to load, and a split the network
    cannot take are refused before any write.
    """
    out_dir = Path(manifest.out_dir)
    stale = sorted(out_dir.glob("*/rep_*.jsonl"))
    if stale:
        raise ValueError(f"{out_dir} already holds run files such as {stale[0]}; use a new out_dir")
    data = _prepare_data(manifest)
    _check_splits(MlpArch(manifest.arch), *data)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(manifest.to_json())

    arms = [("baseline", manifest.baseline_rewire)]
    if manifest.treatment_rewire is not None:
        arms.append(("treatment", manifest.treatment_rewire))
    summaries = []
    for arm, rewire in arms:
        _run_population(manifest, rewire, out_dir / arm, data)
        summaries.append(_write_arm_summary(out_dir / arm, rewire))
        plot_export(out_dir / arm)
    if manifest.treatment_rewire is not None:
        report = compare(*summaries)
        (out_dir / "comparison.md").write_text(report.to_markdown())
        (out_dir / "comparison.json").write_text(report.to_json())
    return 0


def read_run_dir(runs_dir) -> list[dict]:
    """Load every rep_*.jsonl in a directory into {path, records, summary}
    docs, path being the file, in repetition order (rep_999 before rep_1000).

    A line that is not a JSON object, and a file without a summary record
    holding every COMPARE_METRICS key as a finite number (not a bool, NaN
    or Infinity), are refused with ValueError naming the file.
    """
    files = sorted(Path(runs_dir).glob("rep_*.jsonl"), key=lambda p: (len(p.name), p.name))
    if not files:
        raise FileNotFoundError(f"no rep_*.jsonl metric files in {runs_dir}")
    docs = []
    for fp in files:
        records = []
        summary = None
        with open(fp) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{fp}: {exc}") from exc
                if not isinstance(rec, dict):
                    raise ValueError(f"{fp}: a line is not a JSON object: {line.strip()[:80]}")
                if rec.get("type") == "summary":
                    summary = rec
                else:
                    records.append(rec)
        if summary is None:
            raise ValueError(f"{fp} has no summary record")
        missing = [key for key, _, _ in COMPARE_METRICS if key not in summary]
        if missing:
            raise ValueError(f"{fp}: summary record lacks {missing}")
        bad = {key: summary[key] for key, _, _ in COMPARE_METRICS if not _finite(summary[key])}
        if bad:
            raise ValueError(f"{fp}: summary metrics must be finite numbers, got {bad}")
        docs.append({"path": fp, "records": records, "summary": summary})
    return docs


def plot_export(runs_dir) -> list[Path]:
    """Aggregate a run directory into plot-ready CSV bundles.

    Writes curves.csv (per-epoch mean and std of train/val accuracy and
    validation loss) and gradients.csv (per-epoch per-layer mean and std
    of the absolute weight gradient). Returns the written paths.

    Each file's epoch records become one (epochs, curve keys) array and
    one (epochs, layers) array of numbers. A file whose arrays cannot be
    built (no epoch records, a missing key, a value that is not a finite
    number, ragged gradients) or are shaped otherwise than the first
    file's is refused with ValueError naming it.
    """
    runs_dir = Path(runs_dir)
    curves, grads = [], []
    for doc in read_run_dir(runs_dir):
        try:
            c = [[rec[key] for key in _CURVE_KEYS] for rec in doc["records"]]
            g = [list(rec["grad_abs_mean"]) for rec in doc["records"]]
            if not c:
                raise ValueError("no epoch records")
            if not all(_finite(v) for row in c + g for v in row):
                raise ValueError("a curve value or gradient entry is not a finite number")
            c, g = np.array(c, dtype=np.float64), np.array(g, dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{doc['path']}: cannot aggregate its epoch records ({exc!r})") from exc
        if curves and (c.shape, g.shape) != (curves[0].shape, grads[0].shape):
            raise ValueError(f"{doc['path']}: epoch arrays of shapes {c.shape} and {g.shape}, "
                             f"the first file's {curves[0].shape} and {grads[0].shape}")
        curves.append(c)
        grads.append(g)
    curves, grads = np.stack(curves), np.stack(grads)

    # each mean and std reduces one 1-D column (a[:, e, k]), whose bits do not depend on
    # its stride; a reduction over axis 0 would group the sums of 8 or more runs otherwise
    lines = ["epoch," + ",".join(f"{key}_mean,{key}_std" for key in _CURVE_KEYS)]
    glines = ["epoch,layer,grad_abs_mean,grad_abs_std"]
    for e in range(curves.shape[1]):
        cells = [f"{a.mean():.17g},{sample_std(a):.17g}" for a in curves[:, e].T]
        lines.append(f"{e + 1}," + ",".join(cells))
        glines += [f"{e + 1},{l},{a.mean():.17g},{sample_std(a):.17g}"
                   for l, a in enumerate(grads[:, e].T)]
    paths = [runs_dir / "curves.csv", runs_dir / "gradients.csv"]
    for path, rows in zip(paths, (lines, glines)):
        path.write_text("\n".join(rows) + "\n")
    return paths
