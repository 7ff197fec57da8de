"""The top-level export list is exactly what the README tour and the demos
import from ``strength_init``; every other name comes from its module.

The demos and the README's python blocks are parsed, not run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import strength_init

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
