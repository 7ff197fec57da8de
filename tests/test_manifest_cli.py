import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from helpers import broken_gzip, make_synthetic_mnist, write_idx

import strength_init
import strength_init.manifest as manifest_module
from strength_init import training
from strength_init.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from strength_init.dataset import Dataset, load_named_dataset, pixels_to_float, split
from strength_init.manifest import (
    _SCHEDULE,
    ExperimentManifest,
    _prepare_data,
    _rep_records,
    _resolve_data_dir,
    plot_export,
    read_run_dir,
    run_manifest,
)
from strength_init.matrix_io import load_matrix
from strength_init.rng import SPLIT_DOMAIN, harness_generator
from strength_init.stats import compare
from strength_init.training import MlpArch, RunMetrics, TrainConfig

SRC = Path(strength_init.__file__).resolve().parent.parent


def run_cli(argv, **kwargs):
    """Run the CLI in a subprocess on argv; stdout and stderr are captured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "strength_init.cli", *argv], env=env,
                          capture_output=True, timeout=120, **kwargs)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return make_synthetic_mnist(tmp_path_factory.mktemp("data"))


def tiny_manifest(data_dir, out_dir, **kw):
    base = dict(
        dataset="mnist",
        arch=(16, 8, 10),
        out_dir=str(out_dir),
        data_dir=str(data_dir),
        global_seed=11,
        repetitions=2,
        epochs=2,
        batch_size=32,
        lr0=0.05,
    )
    base.update(kw)
    return ExperimentManifest(**base)


def summary_record(r, acc=90.0):
    """A run file's summary record for repetition r, holding every compared metric."""
    return {"type": "summary", "repetition": r, "epoch1_train_acc": acc + r,
            "epoch1_val_acc": acc - r, "convergence_epoch": 2 + r, "test_acc": acc + 0.5 * r}


def epoch_record(e, n_layers=2):
    return {"type": "epoch", "epoch": e, "train_acc": 50.0 + e, "val_acc": 40.0 + e,
            "val_loss": 1.0 / e, "lr": 0.1, "grad_abs_mean": [0.5] * n_layers}


_NO_VAL_LOSS = {k: v for k, v in epoch_record(1).items() if k != "val_loss"}

# The epoch records of rep_000 and rep_001 in a run directory that
# plot_export must refuse, and the file it must name.
UNAGGREGATABLE = {
    "second-file-fewer-epochs": ([epoch_record(1), epoch_record(2)], [epoch_record(1)], 1),
    "second-file-more-epochs": ([epoch_record(1)], [epoch_record(1), epoch_record(2)], 1),
    "summary-only": ([], [], 0),
    "record-lacks-val-loss": ([epoch_record(1)], [_NO_VAL_LOSS], 1),
    "second-file-fewer-layers": ([epoch_record(1)], [epoch_record(1, n_layers=1)], 1),
    "non-numeric-curve-value": ([epoch_record(1)], [dict(epoch_record(1), val_loss="x")], 1),
    "nan-curve-value": ([epoch_record(1)], [dict(epoch_record(1), val_loss=float("nan"))], 1),
    "curve-value-past-float": ([epoch_record(1)], [dict(epoch_record(1), val_acc=10**400)], 1),
    "null-gradient-entry": ([epoch_record(1)], [dict(epoch_record(1), grad_abs_mean=[0.5, None])], 1),
    "gradient-not-a-list": ([epoch_record(1)], [dict(epoch_record(1), grad_abs_mean=0.5)], 1),
}


def write_run_dir(d, acc=90.0, n=3):
    """n run files holding only their summary records; returns the path as a string."""
    d.mkdir()
    for r in range(n):
        (d / f"rep_{r:03d}.jsonl").write_text(json.dumps(summary_record(r, acc)) + "\n")
    return str(d)


class TestManifest:
    def test_json_round_trip(self, data_dir, tmp_path):
        m = tiny_manifest(data_dir, tmp_path / "out")
        again = ExperimentManifest.from_json(m.to_json())
        assert again == m

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown manifest fields"):
            ExperimentManifest.from_json('{"dataset": "mnist", "arch": [4, 2], "out_dir": "o", "foo": 1}')

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            ExperimentManifest.from_json('{"dataset": "mnist"}')

    @pytest.mark.parametrize(
        "field, value",
        [
            ("baseline_rewire", "var-min"),
            ("treatment_rewire", "magic"),
            ("init_method", "he-uniform"),
            ("arch", [784]),
            ("arch", "1684"),
            ("arch", [16, 8.7, 10]),
            ("momentum", 1.5),
            ("lr0", 0),
            ("epochs", 0),
            ("epochs", 2.5),
            ("batch_size", 32.5),
            ("repetitions", 1.5),
            ("alpha", 0.0),
            ("alpha", 5),
            ("dataset", "cifar"),
            ("baseline_rewire", "pa-bidirectional"),
            ("lr0", float("nan")),
            ("lr0", float("inf")),
            ("init_gain", "2"),
            ("out_dir", 5),
            ("out_dir", None),
            ("data_dir", 5),
            ("baseline_rewire", "var-min:+5"),
            ("log_gradients", True),
            ("epochs", True),
            ("repetitions", True),
            ("lr0", True),
            ("init_gain", False),
            ("arch", [784, True]),
            ("momentum", False),
            ("global_seed", True),
            ("jobs", True),
            # momentum, the training init gain and alpha are constants now
            ("momentum", 0.9),
            ("init_gain", 1.0),
            ("alpha", 0.05),
            ("arch", 784),
            pytest.param("lr0", 10**400, id="lr0-past-the-largest-float"),
        ],
    )
    def test_bad_field_rejected_at_load(self, tmp_path, field, value):
        # the data directory does not exist: the error must come first
        doc = {"dataset": "mnist", "arch": [4, 2], "out_dir": str(tmp_path / "out"),
               "data_dir": str(tmp_path / "no-data"), field: value}
        with pytest.raises(ValueError):
            ExperimentManifest.from_json(json.dumps(doc))
        assert not (tmp_path / "out").exists()

    def test_treatment_with_one_repetition_rejected_at_load(self, tmp_path):
        doc = {"dataset": "mnist", "arch": [4, 2], "out_dir": str(tmp_path / "out"),
               "data_dir": str(tmp_path / "no-data"), "treatment_rewire": "pa",
               "repetitions": 1}
        with pytest.raises(ValueError, match="repetitions >= 2"):
            ExperimentManifest.from_json(json.dumps(doc))
        doc["treatment_rewire"] = None
        assert ExperimentManifest.from_json(json.dumps(doc)).repetitions == 1

    def test_smoke_run_outputs(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert run_manifest(tiny_manifest(data_dir, out)) == 0
        base = out / "baseline"
        assert (base / "rep_000.jsonl").exists()
        assert (base / "rep_001.jsonl").exists()
        assert (base / "summary.json").exists()
        assert (base / "curves.csv").exists()
        assert (out / "manifest.json").exists()
        docs = read_run_dir(base)
        assert len(docs) == 2
        assert len(docs[0]["records"]) == 2
        summary = json.loads((base / "summary.json").read_text())
        assert summary["repetitions"] == 2
        assert "aggregate" in summary

    def test_numpy_float_lr0_runs_and_is_written(self, data_dir, tmp_path):
        out = tmp_path / "out"
        m = tiny_manifest(data_dir, out, lr0=np.float32(0.05))
        assert type(m.lr0) is float
        assert run_manifest(m) == 0
        assert json.loads((out / "manifest.json").read_text())["lr0"] == float(np.float32(0.05))

    def test_treatment_and_comparison(self, data_dir, tmp_path):
        out = tmp_path / "out"
        m = tiny_manifest(data_dir, out, treatment_rewire="pa", repetitions=6)
        assert run_manifest(m) == 0
        assert (out / "treatment" / "rep_005.jsonl").exists()
        assert (out / "comparison.md").exists()
        report = json.loads((out / "comparison.json").read_text())
        assert report["n_baseline"] == 6

    def test_rerun_bitwise_identical(self, data_dir, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        m1 = tiny_manifest(data_dir, out1, treatment_rewire="pa")
        m2 = tiny_manifest(data_dir, out2, treatment_rewire="pa")
        run_manifest(m1)
        run_manifest(m2)
        for rel in [
            "baseline/rep_000.jsonl",
            "baseline/rep_001.jsonl",
            "baseline/summary.json",
            "baseline/curves.csv",
            "baseline/gradients.csv",
            "treatment/rep_001.jsonl",
            "comparison.md",
            "comparison.json",
        ]:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_arm_outputs_are_computed_from_the_run_files(self, data_dir, tmp_path, monkeypatch):
        plain = tmp_path / "plain"
        run_manifest(tiny_manifest(data_dir, plain, treatment_rewire="pa"))
        compared = []

        def reading(runs_dir):
            docs = read_run_dir(runs_dir)
            for doc in docs:  # a mark that only the files' read-back carries
                doc["summary"]["repetition"] += 100
            return docs

        def comparing(base, treat):
            compared.append([[s["repetition"] for s in arm] for arm in (base, treat)])
            return compare(base, treat)

        monkeypatch.setattr(manifest_module, "read_run_dir", reading)
        monkeypatch.setattr(manifest_module, "compare", comparing)
        out = tmp_path / "out"
        run_manifest(tiny_manifest(data_dir, out, treatment_rewire="pa"))
        assert compared == [[[100, 101], [100, 101]]]
        for arm in ("baseline", "treatment"):
            summary = json.loads((out / arm / "summary.json").read_text())
            assert [run.pop("repetition") for run in summary["runs"]] == [100, 101]
            want = json.loads((plain / arm / "summary.json").read_text())
            for run in want["runs"]:
                del run["repetition"]
            assert summary == want
        # everything else has the bytes of the unmarked run
        for rel in ["baseline/rep_000.jsonl", "treatment/rep_001.jsonl", "baseline/curves.csv",
                    "treatment/gradients.csv", "comparison.md", "comparison.json"]:
            assert (out / rel).read_bytes() == (plain / rel).read_bytes(), rel

    def test_each_arm_is_read_twice(self, data_dir, tmp_path, monkeypatch):
        # once for summary.json, whose records the comparison also takes,
        # and once for the CSVs
        reads = []

        def reading(runs_dir):
            reads.append(Path(runs_dir).name)
            return read_run_dir(runs_dir)

        monkeypatch.setattr(manifest_module, "read_run_dir", reading)
        assert run_manifest(tiny_manifest(data_dir, tmp_path / "out", treatment_rewire="pa")) == 0
        assert reads == ["baseline", "baseline", "treatment", "treatment"]

    def test_test_images_of_another_size_refused_before_the_first_batch(self, tmp_path, monkeypatch,
                                                                         capsys):
        # 5x5 t10k images against 4x4 training images used to be refused
        # only after every epoch of the baseline arm, in its test evaluation
        data = make_synthetic_mnist(tmp_path / "data")
        write_idx(data / "mnist" / "t10k-images-idx3-ubyte", np.zeros((40, 5, 5), np.uint8))
        groups = []
        monkeypatch.setattr(training, "_lockstep", lambda *args: groups.append(args))
        mpath = tmp_path / "m.json"
        mpath.write_text(tiny_manifest(data, tmp_path / "out").to_json())
        assert main(["run", "--manifest", str(mpath)]) == EXIT_DATA
        assert not groups
        assert "test features must be (n, 16)" in capsys.readouterr().err

    @pytest.mark.parametrize("n_groups", [1, 2], ids=["1-group", "2-groups"])
    def test_data_and_evaluations_go_through_the_public_names(self, data_dir, tmp_path, monkeypatch,
                                                               n_groups):
        plain = tmp_path / "plain"
        run_manifest(tiny_manifest(data_dir, plain, treatment_rewire="pa"))
        # an arm trains one member group per core it may run on
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_groups)))
        calls = {"load": 0, "evaluate": 0}
        lock = threading.Lock()  # the groups' threads evaluate at once

        def spy(name, fn):
            def counted(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(strength_init.manifest, "load_named_dataset",
                            spy("load", strength_init.manifest.load_named_dataset))
        monkeypatch.setattr(strength_init.training, "evaluate",
                            spy("evaluate", strength_init.training.evaluate))
        spied = tmp_path / "spied"
        m = tiny_manifest(data_dir, spied, treatment_rewire="pa")
        assert run_manifest(m) == 0
        # per arm and group: train and validation after every epoch, test once
        assert calls == {"load": 1, "evaluate": 2 * n_groups * (2 * m.epochs + 1)}
        rel_paths = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
        assert rel_paths == sorted(p.relative_to(spied) for p in spied.rglob("*") if p.is_file())
        for rel in rel_paths:
            if rel.name != "manifest.json":
                assert (plain / rel).read_bytes() == (spied / rel).read_bytes(), rel

    def test_jobs_other_than_one_rejected_at_load(self, tmp_path):
        # an arm trains as one population; there is no worker pool to size
        doc = {"dataset": "mnist", "arch": [4, 2], "out_dir": str(tmp_path / "out"),
               "data_dir": str(tmp_path / "no-data"), "jobs": 2}
        with pytest.raises(ValueError, match="jobs must be 1"):
            ExperimentManifest.from_json(json.dumps(doc))
        assert not (tmp_path / "out").exists()
        doc["jobs"] = 1
        assert ExperimentManifest.from_json(json.dumps(doc)).jobs == 1

    def test_numpy_integer_counts_accepted(self, tmp_path):
        m = tiny_manifest(tmp_path / "no-data", tmp_path / "out", repetitions=np.int64(3),
                          epochs=np.int32(2), batch_size=np.int64(32),
                          global_seed=np.int64(3), jobs=np.int64(1))
        assert m.repetitions == 3
        again = ExperimentManifest.from_json(m.to_json())
        assert again == m

    def test_schedule_defaults_are_train_config_defaults(self, tmp_path):
        a = (16, 8, 10)
        m = ExperimentManifest(dataset="mnist", arch=a, out_dir=str(tmp_path))
        assert m.train_config("none", 0) == TrainConfig(MlpArch(a))

    def test_every_schedule_field_reaches_train_config(self, tmp_path):
        changed = {"init_method": "orthogonal", "global_seed": 7, "epochs": 3, "batch_size": 16,
                   "lr0": 0.5}
        assert set(changed) == set(_SCHEDULE)
        m = ExperimentManifest(dataset="mnist", arch=(16, 8, 10), out_dir=str(tmp_path), **changed)
        cfg = m.train_config("pa", 4)
        for name, value in changed.items():
            assert getattr(cfg, name) == value != getattr(TrainConfig, name), name
        assert (cfg.rewire, cfg.repetition_index) == ("pa", 4)

    def test_prepare_data_scales_after_split(self, tmp_path):
        n_train, n_test, side = 6000, 1000, 16
        root = make_synthetic_mnist(tmp_path / "data", n_train=n_train, n_test=n_test, side=side)
        m = tiny_manifest(root, tmp_path / "out", arch=(side * side, 8, 10))
        tracemalloc.start()
        try:
            parts = _prepare_data(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the parts are the uint8 split of the pixels, byte for byte
        train_pixels, test_pixels = load_named_dataset(root, "mnist")
        split_gen = harness_generator(m.global_seed, SPLIT_DOMAIN)
        pixel_parts = (*split(train_pixels, test_pixels.n, split_gen), test_pixels)
        for got, want in zip(parts, pixel_parts, strict=True):
            assert got.features.dtype == want.features.dtype == np.uint8
            assert got.labels.dtype == want.labels.dtype == np.int64
            assert got.features.tobytes() == want.features.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()
        # scaling a part gives the bits of splitting the scaled set
        train_full, test = (
            Dataset(pixels_to_float(d.features), d.labels) for d in (train_pixels, test_pixels)
        )
        split_gen = harness_generator(m.global_seed, SPLIT_DOMAIN)
        for got, want in zip(parts, (*split(train_full, test.n, split_gen), test), strict=True):
            scaled = pixels_to_float(got.features)
            assert scaled.dtype == want.features.dtype == np.float64
            assert scaled.tobytes() == want.features.tobytes()
            assert np.array_equal(got.labels, want.labels)
        # no float64 copy: at most two uint8 copies of the pixels (a file's
        # payload and its array, or the full training set and its split)
        # and two of the int64 labels are held at once
        raw_pixel_bytes = (n_train + n_test) * side * side
        label_bytes = (n_train + n_test) * 8
        assert sum(p.features.nbytes for p in parts) == raw_pixel_bytes
        assert peak <= 2 * raw_pixel_bytes + 2 * label_bytes

    def test_rerun_into_used_out_dir_refused(self, data_dir, tmp_path, capsys):
        # the old rep files would be averaged into the new run's curves and
        # comparison, or break plot_export when the epoch count differs
        out = tmp_path / "out"
        assert run_manifest(tiny_manifest(data_dir, out, repetitions=3)) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        mpath = tmp_path / "m.json"
        mpath.write_text(tiny_manifest(data_dir, out, repetitions=2, epochs=1).to_json())
        assert main(["run", "--manifest", str(mpath)]) == EXIT_DATA
        assert "already holds run files" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_plot_export_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            plot_export(tmp_path)

    @pytest.mark.parametrize("epochs", UNAGGREGATABLE.values(), ids=UNAGGREGATABLE.keys())
    def test_plot_export_refuses_what_it_cannot_aggregate(self, tmp_path, epochs):
        *per_file, bad = epochs
        for r, records in enumerate(per_file):
            lines = [json.dumps(rec) for rec in [*records, summary_record(r)]]
            (tmp_path / f"rep_{r:03d}.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / f"rep_{bad:03d}.jsonl"))):
            plot_export(tmp_path)
        assert not (tmp_path / "curves.csv").exists()

    @pytest.mark.parametrize(
        "n_runs, curves_digest, gradients_digest",
        [
            (9, "fdf9484ec9bb88a08b746136dea55e5b611b1cabb57c88a9306d471af87add26",
             "4f56d1a7fd5e748e2f49e82bfa026574dceda487bf0e87757035dbcae71ef510"),
            (100, "d2ca84cd9096edc2cd64a0a1e8b19e3293e62426237823d68a4c768fb8e6578b",
             "3721bfcb95dc68e2e06eb3faf8a2bc1921fc05c17dbec0b86efafa07950576bf"),
        ],
    )
    def test_plot_export_bytes_beyond_the_golden_population(self, tmp_path, n_runs, curves_digest,
                                                            gradients_digest):
        # the golden run has 3 repetitions; numpy's pairwise sums change
        # their grouping from 8 values on, so pin larger populations too
        gen = np.random.default_rng(n_runs)
        for r in range(n_runs):
            records = [
                {"type": "epoch", "epoch": e + 1, "train_acc": float(gen.uniform(0, 100)),
                 "val_acc": float(gen.uniform(0, 100)), "val_loss": float(gen.uniform(0, 3)),
                 "lr": 0.1, "grad_abs_mean": gen.uniform(0, 1, size=3).tolist()}
                for e in range(4)
            ]
            lines = [json.dumps(rec) for rec in [*records, summary_record(r)]]
            (tmp_path / f"rep_{r:03d}.jsonl").write_text("\n".join(lines) + "\n")
        curves, gradients = plot_export(tmp_path)
        assert hashlib.sha256(curves.read_bytes()).hexdigest() == curves_digest
        assert hashlib.sha256(gradients.read_bytes()).hexdigest() == gradients_digest

    def test_read_run_dir_in_repetition_order(self, tmp_path):
        # sorted by name, rep_1000 came between rep_100 and rep_101
        for r in range(1001):
            (tmp_path / f"rep_{r:03d}.jsonl").write_text(json.dumps(summary_record(r)) + "\n")
        docs = read_run_dir(tmp_path)
        assert [doc["summary"]["repetition"] for doc in docs] == list(range(1001))

    def test_plot_export_single_run_zero_std(self, data_dir, tmp_path):
        out = tmp_path / "out"
        run_manifest(tiny_manifest(data_dir, out, repetitions=1))
        lines = (out / "baseline" / "curves.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 epochs
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) == 0.0  # train_acc std

    def test_rep_records_are_the_epochs_then_the_summary(self):
        m = RunMetrics(
            repetition_index=7, train_acc=[50.0, 60.0], val_acc=[40.0, 55.0], val_loss=[1.5, 1.25],
            lr=[0.1, 0.05], grad_abs_mean=[[0.5, 0.25], [0.75, 0.125]], convergence_epoch=2,
            test_acc=52.5,
        )
        records = _rep_records(m)
        assert [json.dumps(rec) for rec in records] == [
            '{"type": "epoch", "epoch": 1, "train_acc": 50.0, "val_acc": 40.0, "val_loss": 1.5, '
            '"lr": 0.1, "grad_abs_mean": [0.5, 0.25]}',
            '{"type": "epoch", "epoch": 2, "train_acc": 60.0, "val_acc": 55.0, "val_loss": 1.25, '
            '"lr": 0.05, "grad_abs_mean": [0.75, 0.125]}',
            '{"type": "summary", "repetition": 7, "epoch1_train_acc": 50.0, "epoch1_val_acc": 40.0, '
            '"convergence_epoch": 2, "test_acc": 52.5}',
        ]

    def test_resolve_data_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("STRENGTH_INIT_DATA", str(tmp_path / "envdata"))
        assert _resolve_data_dir(None) == tmp_path / "envdata"
        assert _resolve_data_dir(tmp_path / "explicit") == tmp_path / "explicit"
        monkeypatch.delenv("STRENGTH_INIT_DATA")
        assert str(_resolve_data_dir(None)) == "data"


class TestCli:
    def test_init_rewire_analyze_pipeline(self, tmp_path, capsys):
        w_path = tmp_path / "l0.wmat"
        r_path = tmp_path / "l0_pa.wmat"
        assert main([
            "init", "--method", "kaiming-uniform", "--rows", "32", "--cols", "16",
            "--seed", "7", "--layer", "0", "--rep", "0", "--out", str(w_path),
        ]) == EXIT_OK
        assert main([
            "rewire", "--in", str(w_path), "--out", str(r_path),
            "--passes", "bidirectional", "--seed", "7",
        ]) == EXIT_OK
        w, r = load_matrix(w_path), load_matrix(r_path)
        npt.assert_array_equal(np.sort(w, axis=None), np.sort(r, axis=None))
        capsys.readouterr()
        assert main(["analyze", "--in", str(r_path), "--side", "input", "--json"]) == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["n"] == 32

    def test_cli_deterministic(self, tmp_path):
        a, b = tmp_path / "a.wmat", tmp_path / "b.wmat"
        args = ["init", "--method", "orthogonal", "--rows", "12", "--cols", "12", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_init_to_stdout_pipe_emits_exactly_the_wmat_bytes(self, tmp_path):
        args = ["init", "--method", "kaiming-normal", "--rows", "6", "--cols", "5", "--seed", "4"]
        assert main(args + ["--out", str(tmp_path / "w.wmat")]) == EXIT_OK
        proc = run_cli([*args, "--out", "/dev/stdout"])
        assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
        header = b"WMAT1 rows=6 cols=5 dtype=f64 order=row-major endian=little\n"
        assert proc.stdout == (tmp_path / "w.wmat").read_bytes()
        assert proc.stdout.startswith(header) and len(proc.stdout) == len(header) + 6 * 5 * 8

    def test_init_rewire_analyze_through_pipes(self, tmp_path):
        # each stage reads the one before it from /dev/stdin, a pipe
        init = ["init", "--method", "kaiming-uniform", "--rows", "32", "--cols", "16", "--seed", "7"]
        rewire = ["rewire", "--passes", "bidirectional", "--seed", "7"]
        analyze = ["analyze", "--side", "input", "--json"]
        w, r = str(tmp_path / "w.wmat"), str(tmp_path / "r.wmat")
        assert main(init + ["--out", w]) == EXIT_OK
        assert main(rewire + ["--in", w, "--out", r]) == EXIT_OK
        from_file = run_cli(analyze + ["--in", r])
        assert from_file.returncode == EXIT_OK, from_file.stderr[-2000:]

        def piped(argv, stream):
            proc = run_cli(argv, input=stream)
            assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
            return proc.stdout

        w_stream = piped(init + ["--out", "/dev/stdout"], b"")
        r_stream = piped(rewire + ["--in", "/dev/stdin", "--out", "/dev/stdout"], w_stream)
        assert r_stream == Path(r).read_bytes()
        assert piped(analyze + ["--in", "/dev/stdin"], r_stream) == from_file.stdout

    @pytest.mark.parametrize(
        "rows, extra, found",
        [(32, -8, 4088), (10**12, -8, 4088), (32, 1, 4097)],
        ids=["cut-short", "huge-header", "one-byte-long"],
    )
    def test_stream_of_the_wrong_length_is_data_error(self, tmp_path, rows, extra, found):
        # a stream is read one byte past the declared payload at most, and
        # the declared shape is never allocated before the stream delivers it
        assert main(["init", "--method", "kaiming-uniform", "--rows", "32", "--cols", "16",
                     "--out", str(tmp_path / "w.wmat")]) == EXIT_OK
        wmat = (tmp_path / "w.wmat").read_bytes()
        stream = wmat[:extra] if extra < 0 else wmat + b"x" * extra
        proc = run_cli(["analyze", "--in", "/dev/stdin"],
                       input=stream.replace(b"rows=32 ", b"rows=%d " % rows))
        assert proc.returncode == EXIT_DATA
        (line,) = proc.stderr.decode().splitlines()
        assert line == (f"strength-init: /dev/stdin: expected {rows * 16 * 8} payload bytes for "
                        f"shape ({rows}, 16), found {found}")

    def test_rewire_in_place_matches_a_new_file(self, tmp_path):
        x, y = tmp_path / "x.wmat", tmp_path / "y.wmat"
        init = ["init", "--method", "glorot-uniform", "--rows", "24", "--cols", "9", "--seed", "2"]
        assert main(init + ["--out", str(x)]) == EXIT_OK
        rewire = ["rewire", "--in", str(x), "--passes", "bidirectional", "--seed", "2"]
        assert main(rewire + ["--out", str(y)]) == EXIT_OK
        assert main(rewire + ["--out", str(x)]) == EXIT_OK
        assert x.read_bytes() == y.read_bytes()

    def test_init_takes_no_gain(self, tmp_path):
        # every initializer draws at its nominal scale, orthogonal included
        out = tmp_path / "w.wmat"
        for method in ("orthogonal", "kaiming-uniform"):
            args = ["init", "--method", method, "--rows", "4", "--cols", "4", "--out", str(out)]
            assert main(args + ["--gain", "2"]) == EXIT_USAGE
            assert not out.exists()

    def test_sweep_csv(self, capsys):
        assert main(["sweep", "--sizes", "16,32", "--trials", "2", "--seed", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("size,")

    def test_cost_probe(self, capsys):
        assert main(["cost", "--sizes", "32,64", "--reps", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,seconds"
        assert [line.split(",")[0] for line in lines[1:3]] == ["32", "64"]
        assert re.fullmatch(r"# log-log slope: -?[0-9]+\.[0-9]{3}", lines[-1]), lines[-1]
        assert len(lines) == 4
        assert main(["cost", "--sizes", "32", "--reps", "0"]) == EXIT_DATA

    def test_usage_errors(self):
        assert main(["analyze"]) == EXIT_USAGE
        assert main(["rewire", "--in", "x", "--out", "y", "--passes", "zigzag"]) == EXIT_USAGE
        # no --conv (a bank's 2-D form rewires the same) and no --jobs (no pool)
        assert main(["rewire", "--in", "x", "--out", "y", "--conv", "3,3,2,4"]) == EXIT_USAGE
        # training runs through `run --manifest` alone
        assert main(["train"]) == EXIT_USAGE
        # compare draws no random numbers, so it takes no seed
        assert main(["compare", "--baseline", "b", "--treatment", "t", "--seed", "1"]) == EXIT_USAGE
        # cost derives its streams from --seed alone, and --rep is not --reps
        assert main(["cost", "--layer", "1"]) == EXIT_USAGE
        assert main(["cost", "--rep", "1"]) == EXIT_USAGE
        # sweep draws from the stream of layer 0, repetition 0, and cost
        # always times bidirectional rewiring
        assert main(["sweep", "--layer", "1"]) == EXIT_USAGE
        assert main(["sweep", "--rep", "1"]) == EXIT_USAGE
        assert main(["cost", "--passes", "input-only"]) == EXIT_USAGE
        # verdicts use the one significance level stats.ALPHA; reports are md or json
        assert main(["compare", "--baseline", "b", "--treatment", "t", "--alpha", "0.05"]) == EXIT_USAGE
        assert main(["compare", "--baseline", "b", "--treatment", "t", "--format", "csv"]) == EXIT_USAGE

    def test_seeded_subcommands_accept_stream_args(self):
        from strength_init.cli import build_parser

        parser = build_parser()
        stubs = {
            "init": ["--method", "kaiming-uniform", "--rows", "2", "--cols", "2", "--out", "o"],
            "rewire": ["--in", "i", "--out", "o"],
        }
        for cmd, extra in stubs.items():
            args = parser.parse_args([cmd, *extra, "--seed", "9", "--layer", "1", "--rep", "2"])
            assert (args.seed, args.layer, args.rep) == (9, 1, 2), cmd
        for cmd in ("sweep", "cost"):
            assert parser.parse_args([cmd, "--seed", "9"]).seed == 9, cmd

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["analyze", "--in", str(tmp_path / "nope.wmat")]) == EXIT_DATA

    def test_malformed_wmat_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.wmat"
        bad.write_bytes(b"not a wmat\n")
        assert main(["analyze", "--in", str(bad)]) == EXIT_DATA

    def test_train_and_compare_cli(self, data_dir, tmp_path, capsys):
        out = tmp_path / "runs"
        mpath = tmp_path / "m.json"
        mpath.write_text(tiny_manifest(data_dir, out, treatment_rewire="pa",
                                       repetitions=5).to_json())
        assert main(["run", "--manifest", str(mpath)]) == EXIT_OK
        capsys.readouterr()
        for fmt, name in (("md", "comparison.md"), ("json", "comparison.json")):
            assert main([
                "compare", "--baseline", str(out / "baseline"),
                "--treatment", str(out / "treatment"), "--format", fmt,
            ]) == EXIT_OK
            assert capsys.readouterr().out.encode() == (out / name).read_bytes(), fmt

    def test_train_missing_data_dir(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text(tiny_manifest(tmp_path / "nothing", tmp_path / "o").to_json())
        assert main(["run", "--manifest", str(mpath)]) == EXIT_DATA
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "case", ["truncated", "fmnist-over-flat-mnist", "label-12", "test-images-5x5"]
    )
    def test_run_on_bad_data_writes_nothing(self, tmp_path, capsys, case):
        data = make_synthetic_mnist(tmp_path / "data")
        mnist = data / "mnist"
        dataset, fragment = "mnist", "payload holds"
        if case == "truncated":
            labels = mnist / "t10k-labels-idx1-ubyte"
            labels.write_bytes(labels.read_bytes()[:-1])
        elif case == "fmnist-over-flat-mnist":
            # MNIST files directly under data_dir are not FMNIST's
            for f in mnist.iterdir():
                f.rename(data / f.name)
            dataset, fragment = "fmnist", f"not found under {data / 'fmnist'}"
        elif case == "label-12":
            # the files load, but the 16-8-10 network cannot take the split
            labels = mnist / "t10k-labels-idx1-ubyte"
            raw = bytearray(labels.read_bytes())
            raw[8] = 12  # the first label, after the 8-byte IDX header
            labels.write_bytes(bytes(raw))
            fragment = "test labels must lie in [0, 10), found 0..12"
        else:
            write_idx(mnist / "t10k-images-idx3-ubyte", np.zeros((40, 5, 5), dtype=np.uint8))
            fragment = "test features must be (n, 16) for the network, got (40, 25)"
        out = tmp_path / "runs" / "x"
        mpath = tmp_path / "m.json"
        mpath.write_text(tiny_manifest(data, out, dataset=dataset).to_json())
        assert main(["run", "--manifest", str(mpath)]) == EXIT_DATA
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_run_manifest_cli(self, data_dir, tmp_path):
        out = tmp_path / "out"
        mpath = tmp_path / "m.json"
        mpath.write_text(tiny_manifest(data_dir, out).to_json())
        assert main(["run", "--manifest", str(mpath)]) == EXIT_OK
        assert (out / "baseline" / "summary.json").exists()

    def test_run_manifest_bad_json(self, tmp_path):
        mpath = tmp_path / "m.json"
        mpath.write_text("{broken")
        assert main(["run", "--manifest", str(mpath)]) == EXIT_DATA

    @pytest.mark.parametrize(
        "field, value",
        [("arch", 784), ("arch", "1684"), ("arch", [16, 8.7, 10]), ("repetitions", "ten"),
         ("repetitions", 1.5)],
    )
    def test_run_manifest_wrong_type_is_data_error(self, tmp_path, capsys, field, value):
        mpath = tmp_path / "m.json"
        doc = {"dataset": "mnist", "arch": [4, 2], "out_dir": str(tmp_path / "out"),
               "data_dir": str(tmp_path / "no-data"), field: value}
        mpath.write_text(json.dumps(doc))
        assert main(["run", "--manifest", str(mpath)]) == EXIT_DATA
        assert "manifest" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_alpha_is_usage_error(self, tmp_path, capsys):
        dirs = [write_run_dir(tmp_path / "base", 90.0), write_run_dir(tmp_path / "treat", 95.0)]
        args = ["compare", "--baseline", dirs[0], "--treatment", dirs[1]]
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out.startswith("|")
        assert main(args + ["--alpha", "0.05"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["analyze", "sweep", "compare", "cost"])
    def test_text_commands_take_no_out(self, tmp_path, capsys, command):
        # text goes to stdout alone; a shell redirect puts it in a file
        dirs = [write_run_dir(tmp_path / "base", 90.0), write_run_dir(tmp_path / "treat", 95.0)]
        argv = {
            "analyze": ["analyze", "--in", str(tmp_path / "w.wmat")],
            "sweep": ["sweep", "--sizes", "16", "--trials", "2"],
            "compare": ["compare", "--baseline", dirs[0], "--treatment", dirs[1]],
            "cost": ["cost", "--sizes", "32", "--reps", "1"],
        }[command]
        assert main(["init", "--method", "kaiming-uniform", "--rows", "4", "--cols", "4",
                     "--out", str(tmp_path / "w.wmat")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert not (tmp_path / "x").exists()
        assert capsys.readouterr().out == ""
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["analyze", "--in", "{r}", "--json"],
             "4d14c2da8b42f1d84c275147a2ecee21a6f80bacc5e965a2854247f9806a7893"),
            (["analyze", "--in", "{r}", "--side", "output"],
             "d5905f4a9e6389905fbb24f9873b29e918169139cb629ad5cb818666379fac0d"),
            (["sweep", "--sizes", "16,32", "--trials", "2", "--seed", "5"],
             "01246a46e47110359f75435ad3c938ac6a8c219b605b955fbbcd077b4d40f64c"),
        ],
        ids=["analyze-json", "analyze", "sweep"],
    )
    def test_text_output_bytes(self, tmp_path, capsys, argv, digest):
        # the digests of what these arguments wrote through the retired --out
        w, r = str(tmp_path / "w.wmat"), str(tmp_path / "r.wmat")
        assert main(["init", "--method", "kaiming-uniform", "--rows", "32", "--cols", "16",
                     "--seed", "7", "--out", w]) == EXIT_OK
        assert main(["rewire", "--in", w, "--out", r, "--seed", "7"]) == EXIT_OK
        capsys.readouterr()
        assert main([a.format(r=r) for a in argv]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# Each case sets up a file failure in tmp_path and returns the CLI's argv
# and a fragment its one stderr line must hold.
def _analyze_a_directory(tmp_path):
    return ["analyze", "--in", str(tmp_path)], str(tmp_path)


def _init_out_a_directory(tmp_path):
    argv = ["init", "--method", "kaiming-uniform", "--rows", "4", "--cols", "4"]
    return argv + ["--out", str(tmp_path)], str(tmp_path)


def _run_out_dir_a_file(tmp_path):
    out = tmp_path / "out"
    out.write_text("")
    mpath = tmp_path / "m.json"
    mpath.write_text(tiny_manifest(make_synthetic_mnist(tmp_path / "data"), out).to_json())
    return ["run", "--manifest", str(mpath)], str(out)


def _run_on_broken_gz(how):
    def case(tmp_path):
        data = make_synthetic_mnist(tmp_path / "data")
        plain = data / "mnist" / "train-images-idx3-ubyte"
        Path(f"{plain}.gz").write_bytes(broken_gzip(plain.read_bytes(), how))
        plain.unlink()
        mpath = tmp_path / "m.json"
        mpath.write_text(tiny_manifest(data, tmp_path / "out").to_json())
        return ["run", "--manifest", str(mpath)], f"{plain}.gz: "
    return case


def _run_on_label_out_of_range(tmp_path):
    # class 12 under an arch ending in 10 would index past the logits
    data = make_synthetic_mnist(tmp_path / "data")
    labels = data / "mnist" / "t10k-labels-idx1-ubyte"
    raw = bytearray(labels.read_bytes())
    raw[-1] = 12
    labels.write_bytes(bytes(raw))
    mpath = tmp_path / "m.json"
    mpath.write_text(tiny_manifest(data, tmp_path / "out").to_json())
    return ["run", "--manifest", str(mpath)], "test labels must lie in [0, 10)"


def _compare_malformed(rep_001):
    def case(tmp_path):
        base = write_run_dir(tmp_path / "base")
        bad = tmp_path / "base" / "rep_001.jsonl"
        bad.write_text(rep_001)
        treat = write_run_dir(tmp_path / "treat", 95.0)
        return ["compare", "--baseline", base, "--treatment", treat], f"{bad}: "
    return case


def _compare_one_run(arm):
    def case(tmp_path):
        dirs = {"baseline": write_run_dir(tmp_path / "base"),
                "treatment": write_run_dir(tmp_path / "treat", 95.0)}
        dirs[arm] = write_run_dir(tmp_path / "one", n=1)
        argv = ["compare", "--baseline", dirs["baseline"], "--treatment", dirs["treatment"]]
        return argv, f"the {arm} arm needs at least 2 runs, got 1"
    return case


_NO_TEST_ACC = {k: v for k, v in summary_record(1).items() if k != "test_acc"}

FILE_FAILURES = {
    "analyze-in-directory": _analyze_a_directory,
    "init-out-directory": _init_out_a_directory,
    "run-out-dir-is-a-file": _run_out_dir_a_file,
    "gz-not-gzip": _run_on_broken_gz("not-gzip"),
    "gz-truncated": _run_on_broken_gz("truncated"),
    "gz-flipped-deflate-byte": _run_on_broken_gz("flipped"),
    "run-file-line-not-json": _compare_malformed("{broken\n"),
    "run-file-line-not-an-object": _compare_malformed(
        "[1, 2]\n" + json.dumps(summary_record(1)) + "\n"
    ),
    "run-file-summary-lacks-a-metric": _compare_malformed(json.dumps(_NO_TEST_ACC) + "\n"),
    "run-file-metric-is-a-string": _compare_malformed(
        json.dumps({**summary_record(1), "epoch1_train_acc": "x"}) + "\n"
    ),
    "run-file-metric-is-a-bool": _compare_malformed(
        json.dumps({**summary_record(1), "convergence_epoch": True}) + "\n"
    ),
    "run-file-metric-is-nan": _compare_malformed(
        json.dumps({**summary_record(1), "test_acc": float("nan")}) + "\n"
    ),
    "run-file-metric-past-the-largest-float": _compare_malformed(
        json.dumps({**summary_record(1), "test_acc": 10**400}) + "\n"
    ),
    "run-label-out-of-range": _run_on_label_out_of_range,
    "compare-one-run-baseline": _compare_one_run("baseline"),
    "compare-one-run-treatment": _compare_one_run("treatment"),
}


@pytest.mark.parametrize("case", FILE_FAILURES.values(), ids=FILE_FAILURES.keys())
def test_file_failure_exits_2_with_one_line(tmp_path, case):
    argv, fragment = case(tmp_path)
    proc = run_cli(argv, text=True)
    assert proc.returncode == EXIT_DATA, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("strength-init: ") and fragment in line, line
