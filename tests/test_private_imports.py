"""No module of the package imports another module's private names.

Private helpers (a leading underscore) stay inside the module that defines
them; other modules and the tests go through the public functions.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmapath"
MODULES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each private name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "rmapath":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, name))
    return found


def test_package_modules_are_found():
    assert {PACKAGE / "models.py", PACKAGE / "cli.py", PACKAGE / "simulate.py"} <= set(MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_name_imported_across_modules(path):
    assert private_imports(path.read_text()) == []


def test_detects_a_private_import():
    source = ("from __future__ import annotations\n"
              "from os.path import _get_sep\n"
              "from .models import RmaParams, _los_mean\n"
              "from rmapath.simulate import __version__, _frequency_rng\n"
              "from . import _helpers\n")
    assert private_imports(source) == [(3, "_los_mean"), (4, "_frequency_rng"),
                                       (5, "_helpers")]
