"""The benchmark's own tests: its output checks fire, its inputs are a
function of the seed, and the tracer sees calls made inside the package.

Run from the repository root: python3 -m pytest -q bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import strength_init as si  # noqa: E402
from checks import rewire_problems, train_problems  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import LayerSpec, LayerWorkload, small_layer_specs, sweep_specs, write_mnist_like  # noqa: E402

MODES = ("bidirectional", "input-only")


def _layer(passes, n=64):
    stream = si.rng.derive_stream(3, 0, 0)
    w = si.initializers.init(si.initializers.InitSpec("kaiming-uniform", n, n), stream)
    return w, si.rewiring.pa_rewire(w, si.rewiring.RewireConfig(rng=stream, passes=passes))


@pytest.mark.parametrize("passes", MODES)
def test_rewired_layer_passes(passes):
    w, r = _layer(passes)
    assert rewire_problems(w, r, passes) == []


@pytest.mark.parametrize("passes", MODES)
def test_duplicated_entry_fails(passes):
    w, r = _layer(passes)
    r[0, 0] = r[0, 1]
    assert rewire_problems(w, r, passes)


def test_entries_moved_between_columns_fail_input_only():
    w, r = _layer("input-only")
    r[:, [0, 1]] = r[:, [1, 0]]
    assert rewire_problems(w, r, "bidirectional") == []  # the multiset alone is intact
    assert rewire_problems(w, r, "input-only")


@pytest.mark.parametrize("passes", MODES)
def test_nan_fails(passes):
    w, r = _layer(passes)
    r[5, 5] = np.nan
    assert any("non-finite" in p for p in rewire_problems(w, r, passes))


def _broken_rewire(defect):
    original = si.rewiring.pa_rewire

    def pa_rewire(m, cfg):
        r = original(m, cfg)
        if defect == "nan":
            r[0, 0] = np.nan
        else:
            r[0, 0] = r[0, 1]
        return r

    return pa_rewire


@pytest.mark.parametrize("defect", ["nan", "wrong-permutation"])
def test_workload_counts_broken_rewires_as_failures(defect, monkeypatch, tmp_path):
    monkeypatch.setattr(si.rewiring, "pa_rewire", _broken_rewire(defect))
    workload = LayerWorkload(lambda seed: [LayerSpec(64, 64, "kaiming-uniform", p, seed, i) for i, p in enumerate(MODES)])
    workload.make_inputs(5, tmp_path)
    for index in range(2):
        result = workload.run_round(index)
        assert (result.attempted, result.failed) == (2, 2)


def _write_run(out_dir, accs, loss=0.5):
    out_dir.mkdir()
    (out_dir / "comparison.json").write_text("{}")
    for arm, acc in zip(("baseline", "treatment"), accs):
        (out_dir / arm).mkdir()
        records = [{"type": "epoch", "epoch": 1, "val_loss": loss}, {"type": "summary", "test_acc": acc}]
        (out_dir / arm / "rep_000.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))


def test_train_checks_fail_chance_accuracy_and_nan(tmp_path):
    _write_run(tmp_path / "ok", (80.0, 81.0))
    _write_run(tmp_path / "chance", (80.0, 10.0))
    _write_run(tmp_path / "nan", (80.0, 81.0), loss=float("nan"))
    arms = ("baseline", "treatment")
    assert train_problems(tmp_path / "ok", arms, 20.0) == ({"baseline": [80.0], "treatment": [81.0]}, [])
    passed, problems = train_problems(tmp_path / "chance", arms, 20.0)
    assert passed["treatment"] == [] and problems
    passed, problems = train_problems(tmp_path / "nan", arms, 20.0)
    assert passed == {"baseline": [], "treatment": []} and len(problems) == 2
    (tmp_path / "ok" / "comparison.json").unlink()
    assert train_problems(tmp_path / "ok", arms, 20.0)[0] == {"baseline": [], "treatment": []}


def test_inputs_depend_on_the_seed_only(tmp_path):
    for make in (sweep_specs, small_layer_specs):
        assert make(1) == make(1) != make(2)
    files = {}
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        write_mnist_like(seed, tmp_path / name, 300, 100)
        files[name] = [p.read_bytes() for p in sorted((tmp_path / name).iterdir())]
    assert files["a"] == files["b"] != files["c"]


def test_tracer_sees_nested_calls_and_restores_the_package():
    original = si.training.pa_rewire
    cfg = si.training.TrainConfig(si.training.MlpArch((16, 8, 4)), rewire="pa")
    tracer = Tracer(si)
    with tracer:
        si.training.build_layer_weights(cfg)
    assert si.training.pa_rewire is original and si.rewiring.pa_rewire is original
    names = [span[0] for span in tracer.spans]
    assert names.count("rewiring.pa_rewire") == 2 and names.count("initializers.init") == 2
    top = names.index("training.build_layer_weights")
    assert all(span[3] == top for span in tracer.spans[top + 1 :])
    totals = tracer.totals()
    assert totals["rewiring.pa_rewire.columns"] == (8 - 1) + (16 - 1) + (4 - 1) + (8 - 1)
    tracer.alloc_peaks()
    assert tracer.totals()["rewiring.pa_rewire.alloc_peak_mb"] > 0
