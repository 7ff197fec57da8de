"""The top-level export list is exactly what the README tour and the demos
import from ``strength_init``; every other name comes from its module.

The demos and the README's python blocks are parsed, not run; so are the
README's ``strength-init`` command lines, against the CLI's own parser, and
its JSON blocks, as experiment manifests. Every manifest field is named in
the README.
"""

import ast
import dataclasses
import importlib
import re
import shlex
from pathlib import Path

import pytest

import strength_init
from strength_init.cli import build_parser
from strength_init.manifest import ExperimentManifest

ROOT = Path(__file__).resolve().parent.parent
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


def test_top_level_exports_are_what_the_tour_and_demos_import():
    top = {name for _, module, name in IMPORTS if module == "strength_init"}
    assert set(strength_init.__all__) - {"__version__"} == top
    assert "__version__" in strength_init.__all__


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
