"""Experiment manifests: one JSON document that reproduces a whole run.

A manifest pins the dataset, architecture, initializer, rewire mode(s),
seeds, schedule, and output directory. Running it executes every
repetition, writes one JSON-lines metric file per repetition (one record
per epoch plus a final summary record), a merged summary per arm, CSV
curve bundles for plotting, and, when both a baseline and a treatment
arm are declared, a statistical comparison report. Re-running the same
manifest into a new out_dir reproduces every output byte for byte, under
the conditions the training module's docstring gives.

Each arm trains as n = min(R, cores) member groups, cores being the CPUs
the process may run on: group g holds repetitions g, g + n, g + 2n, ...
Each group is one lock-step population (training.train_population) on
its own thread, the calling thread running the first, and OpenBLAS is
held at one thread for the whole arm, so the cores run independent GEMMs
side by side. As every GEMM runs at one thread, the outputs depend
neither on n nor on OPENBLAS_NUM_THREADS. Where the OpenBLAS thread
functions cannot be found, an arm trains as one group and BLAS keeps its
threads.
The data stays uint8 pixels: both arms share one split, and the engine
scales each batch and evaluation chunk as it uses it.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .dataset import DATASET_NAMES, load_named_dataset, split
from .initializers import _int, _ints, _real
from .rng import SPLIT_DOMAIN, harness_generator
from .stats import COMPARE_METRICS, compare, sample_std
from .training import MlpArch, RunMetrics, TrainConfig, TrainingDivergedError, train_population

__all__ = ["ExperimentManifest", "run_manifest", "plot_export", "read_run_dir", "resolve_data_dir"]

DATA_ENV_VAR = "STRENGTH_INIT_DATA"

# The manifest fields every repetition's TrainConfig takes as they are;
# TrainConfig keeps their defaults.
_SCHEDULE = ("init_method", "global_seed", "epochs", "batch_size", "lr0")


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
        self.train_config(self.baseline_rewire, 0)
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


def resolve_data_dir(explicit=None) -> Path:
    """Data directory precedence: explicit argument, $STRENGTH_INIT_DATA, ./data."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(DATA_ENV_VAR)
    if env:
        return Path(env)
    return Path("data")


def _prepare_data(manifest: ExperimentManifest):
    """(train, validation, test) with uint8 pixel features.

    No part is scaled here: training scales each batch and evaluation
    chunk as it uses it, so no float64 copy of the pixels is held.
    """
    data_dir = resolve_data_dir(manifest.data_dir)
    train_full, test = load_named_dataset(data_dir, manifest.dataset)
    split_gen = harness_generator(manifest.global_seed, SPLIT_DOMAIN)
    return (*split(train_full, test.n, split_gen), test)


def _openblas_thread_functions():
    """(get, set) for the thread count of the OpenBLAS that numpy ships in
    numpy.libs, or None when no such library or symbol is found."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or another build's symbols
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, restoring its old count on exit; yields
    whether it could be pinned (False leaves BLAS untouched)."""
    funcs = _openblas_thread_functions()
    if funcs is None:
        yield False
        return
    get, set_ = funcs
    old = get()
    set_(1)
    try:
        yield True
    finally:
        set_(old)


def _train_groups(groups, data) -> list[RunMetrics]:
    """Train each group of configs as one population, every group at once.

    The calling thread trains the first group and a daemon thread each
    other one. Every group finishes before an error is raised: the first
    error that is not a divergence, in group order, else the divergence
    at the lowest (epoch, batch, repetition), which is what one population
    of all the configs raises. An interrupt on the calling thread (Ctrl-C)
    propagates at once, leaving the daemon threads to end with the process.
    """
    results = [None] * len(groups)
    errors = [None] * len(groups)

    def run(g):
        try:
            results[g] = train_population(groups[g], *data)
        except Exception as exc:  # raised on the calling thread once every group is done
            errors[g] = exc

    threads = [threading.Thread(target=run, args=(g,), daemon=True) for g in range(1, len(groups))]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    failed = [e for e in errors if e is not None]
    if failed:
        faults = [e for e in failed if not isinstance(e, TrainingDivergedError)]
        raise faults[0] if faults else min(failed, key=lambda e: (e.epoch, e.batch, e.repetition))
    return sorted((m for runs in results for m in runs), key=lambda m: m.repetition_index)


def _run_population(manifest: ExperimentManifest, rewire: str, arm_dir: Path, data) -> list[dict]:
    """Train one arm as one member group per core and write its files."""
    arm_dir.mkdir(parents=True, exist_ok=True)
    cfgs = [manifest.train_config(rewire, r) for r in range(manifest.repetitions)]
    with _one_blas_thread() as pinned:
        n_groups = min(len(cfgs), len(os.sched_getaffinity(0))) if pinned else 1
        runs = _train_groups([cfgs[g::n_groups] for g in range(n_groups)], data)
    summaries = []
    for metrics in runs:
        summary = metrics.summary()
        with open(arm_dir / f"rep_{metrics.repetition_index:03d}.jsonl", "w") as f:
            for rec in metrics.epoch_records():
                f.write(json.dumps(rec) + "\n")
            f.write(json.dumps(summary) + "\n")
        summaries.append(summary)
    _write_arm_summary(arm_dir / "summary.json", rewire, summaries)
    plot_export(arm_dir)
    return summaries


def _write_arm_summary(path: Path, rewire: str, summaries: list[dict]) -> None:
    agg = {}
    for key, _, _ in COMPARE_METRICS:
        vals = np.asarray([s[key] for s in summaries], dtype=np.float64)
        agg[key] = {
            "mean": float(vals.mean()),
            "std": sample_std(vals),
            "median": float(np.median(vals)),
        }
    doc = {"rewire": rewire, "repetitions": len(summaries), "aggregate": agg, "runs": summaries}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def run_manifest(manifest: ExperimentManifest) -> int:
    """Execute a manifest end to end; returns 0 on success.

    Baseline always runs; the treatment arm and the comparison report are
    produced only when treatment_rewire is declared. An out_dir that
    already holds repetition files is refused with ValueError before
    anything is written: its old files would be merged into the new run.
    """
    out_dir = Path(manifest.out_dir)
    stale = sorted(out_dir.glob("*/rep_*.jsonl"))
    if stale:
        raise ValueError(f"{out_dir} already holds run files such as {stale[0]}; use a new out_dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(manifest.to_json())
    data = _prepare_data(manifest)

    base_summaries = _run_population(manifest, manifest.baseline_rewire, out_dir / "baseline", data)
    if manifest.treatment_rewire is not None:
        treat_summaries = _run_population(
            manifest, manifest.treatment_rewire, out_dir / "treatment", data
        )
        report = compare(base_summaries, treat_summaries)
        (out_dir / "comparison.md").write_text(report.to_markdown())
        (out_dir / "comparison.json").write_text(report.to_json())
    return 0


def read_run_dir(runs_dir) -> list[dict]:
    """Load every rep_*.jsonl in a directory into {records, summary} docs,
    in repetition order (rep_999 before rep_1000).

    A line that is not a JSON object, and a file without a summary record
    holding every COMPARE_METRICS key as a finite number (not a bool, NaN
    or Infinity), are refused with ValueError naming the file.
    """
    runs_dir = Path(runs_dir)
    files = sorted(runs_dir.glob("rep_*.jsonl"), key=lambda p: (len(p.name), p.name))
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
        bad = {key: summary[key] for key, _, _ in COMPARE_METRICS
               if not (_real(summary[key]) and math.isfinite(summary[key]))}
        if bad:
            raise ValueError(f"{fp}: summary metrics must be finite numbers, got {bad}")
        docs.append({"records": records, "summary": summary})
    return docs


def plot_export(runs_dir) -> list[Path]:
    """Aggregate a run directory into plot-ready CSV bundles.

    Writes curves.csv (per-epoch mean and std of train/val accuracy and
    validation loss) and gradients.csv (per-epoch per-layer mean and std
    of the absolute weight gradient). Returns the written paths.
    """
    runs_dir = Path(runs_dir)
    docs = read_run_dir(runs_dir)
    n_epochs = len(docs[0]["records"])

    def column(key):
        return np.asarray([[doc["records"][e][key] for e in range(n_epochs)] for doc in docs])

    train_acc = column("train_acc")
    val_acc = column("val_acc")
    val_loss = column("val_loss")
    lines = ["epoch,train_acc_mean,train_acc_std,val_acc_mean,val_acc_std,val_loss_mean,val_loss_std"]
    for e in range(n_epochs):
        cells = [f"{a[:, e].mean():.17g},{sample_std(a[:, e]):.17g}" for a in (train_acc, val_acc, val_loss)]
        lines.append(f"{e + 1}," + ",".join(cells))
    curves = runs_dir / "curves.csv"
    curves.write_text("\n".join(lines) + "\n")

    n_layers = len(docs[0]["records"][0]["grad_abs_mean"])
    glines = ["epoch,layer,grad_abs_mean,grad_abs_std"]
    for e in range(n_epochs):
        for l in range(n_layers):
            col = np.asarray([doc["records"][e]["grad_abs_mean"][l] for doc in docs])
            glines.append(f"{e + 1},{l},{col.mean():.17g},{sample_std(col):.17g}")
    gradients = runs_dir / "gradients.csv"
    gradients.write_text("\n".join(glines) + "\n")
    return [curves, gradients]
