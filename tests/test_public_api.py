"""Every public name has one import path, its module: the top level of
``strength_init`` exports only ``__version__``, and a fresh import of it
binds every module but ``cli``.

The demos and the README's python blocks are parsed, not run; so are the
README's ``strength-init`` command lines, against the CLI's own parser, and
its JSON blocks, as experiment manifests. Every manifest field is named in
the README. The configuration surface (every config field and CLI option)
is pinned in one list, and so is every module's public surface.
"""

import argparse
import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import strength_init
from strength_init.cli import build_parser
from strength_init.manifest import ExperimentManifest
from strength_init.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(strength_init.__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]


def _python_source(path: Path) -> str:
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"^```python\n(.*?)^```", text, re.S | re.M))
    return text


def _imports():
    """(source, module, name) for every `from strength_init[.mod] import name`."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(_python_source(path), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "strength_init" or node.module.startswith("strength_init."):
                    found.extend((path.name, node.module, a.name) for a in node.names)
    return found


IMPORTS = _imports()


def test_sources_import_the_package():
    assert {src for src, _, _ in IMPORTS} == {p.name for p in SOURCES}


@pytest.mark.parametrize("source, module, name", IMPORTS)
def test_imported_name_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"


MODULES = sorted(m.name for m in pkgutil.iter_modules(strength_init.__path__))


def test_top_level_exports_only_the_version():
    assert strength_init.__all__ == ["__version__"]


def test_top_level_imports_name_modules():
    # the README, the demos, the tests and the benchmark import every other
    # name from its module; `from strength_init import <module>` is allowed
    paths = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    top = [
        (path.name, alias.name)
        for path in paths
        for node in ast.walk(ast.parse(_python_source(path), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "strength_init"
        for alias in node.names
    ]
    assert top, "no `from strength_init import ...` found to check"
    assert [(src, name) for src, name in top if name not in MODULES] == []


def test_fresh_import_binds_every_module_but_cli():
    # inside this session other imports have bound every module already, so
    # only a new interpreter shows what `import strength_init` alone binds
    probe = "import strength_init as si; print(sorted(m for m in %r if hasattr(si, m)))" % MODULES
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == str([m for m in MODULES if m != "cli"])


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    bash = "\n".join(re.findall(r"^```bash\n(.*?)^```", text, re.S | re.M))
    lines = bash.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("strength-init ")]


README_COMMANDS = _readme_commands()


def test_readme_has_cli_examples():
    assert {argv[1] for argv in README_COMMANDS} >= {"init", "rewire", "run"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[1])
def test_readme_command_parses(argv):
    build_parser().parse_args(argv[1:])


README_MANIFESTS = re.findall(r"^```json\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


def test_readme_has_a_manifest():
    assert README_MANIFESTS


@pytest.mark.parametrize("text", README_MANIFESTS)
def test_readme_manifest_loads(text):
    ExperimentManifest.from_json(text)


def test_readme_names_every_manifest_field():
    named = set(re.findall(r"`([a-z_0-9]+)`", (ROOT / "README.md").read_text()))
    fields = {f.name for f in dataclasses.fields(ExperimentManifest)}
    assert fields <= named, sorted(fields - named)


def test_configuration_surface():
    # every settable value in one list: adding or dropping an option edits it
    assert [f.name for f in dataclasses.fields(TrainConfig)] == [
        "arch", "epochs", "batch_size", "lr0", "global_seed", "repetition_index", "init_method",
        "rewire",
    ]
    assert [f.name for f in dataclasses.fields(ExperimentManifest)] == [
        "dataset", "arch", "out_dir", "init_method", "baseline_rewire", "treatment_rewire",
        "global_seed", "repetitions", "epochs", "batch_size", "lr0", "data_dir", "jobs",
    ]
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [s for a in sub._actions if a.dest != "help" for s in a.option_strings]
        for name, sub in commands.choices.items()
    }
    stream = ["--seed", "--layer", "--rep"]
    assert options == {
        "init": ["--method", "--rows", "--cols", "--gain", "--out", *stream],
        "rewire": ["--in", "--out", "--passes", *stream],
        "analyze": ["--in", "--side", "--json"],
        "sweep": ["--method", "--sizes", "--trials", "--seed"],
        "compare": ["--baseline", "--treatment", "--format"],
        "cost": ["--sizes", "--reps", "--seed"],
        "run": ["--manifest"],
    }
    fmt = next(a for a in commands.choices["compare"]._actions if a.dest == "format")
    assert fmt.choices == ("md", "json")


def test_module_surface():
    # every module's public names in one list: adding or dropping one edits
    # it (the top-level list is pinned to the version above)
    surface = {
        m.name: getattr(importlib.import_module(f"strength_init.{m.name}"), "__all__", None)
        for m in pkgutil.iter_modules(strength_init.__path__)
    }
    assert surface == {
        "cli": None,
        "dataset": [
            "Dataset", "split", "dataset_paths", "load_named_dataset", "pixels_to_float",
        ],
        "initializers": ["METHODS", "InitSpec", "init"],
        "manifest": ["ExperimentManifest", "run_manifest", "plot_export", "read_run_dir"],
        "matrix_io": ["save_matrix", "load_matrix", "conv_to_2d", "conv_from_2d"],
        "rewiring": [
            "PASS_MODES", "RewireConfig", "attachment_scores", "pa_rewire", "pa_rewire_conv",
            "variance_search", "rewire_cost_probe", "fit_loglog_slope", "SweepRow",
            "max_strength_scaling", "sweep_rows_to_csv",
        ],
        "rng": ["derive_stream"],
        "stats": [
            "welch_t_test", "kruskal_wallis", "pearson", "median_abs_deviation", "sample_std",
            "MetricComparison", "ComparisonReport", "compare", "COMPARE_METRICS", "ALPHA",
        ],
        "strength": ["SIDES", "strengths", "StrengthStats", "strength_stats"],
        "training": [
            "MlpArch", "TrainConfig", "RunMetrics", "TrainingDivergedError", "build_layer_weights",
            "train", "train_population", "evaluate",
        ],
    }
