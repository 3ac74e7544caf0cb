"""Every name the package exports has a caller outside the tests.

A name imported into ``rmapath/__init__.py`` must be referenced by the
package itself (other than by its own definition), by ``scripts/`` or
``perfbench/``, or by the README (backticked or as ``rp.<name>``). A
public name that only the tests call is code nobody uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmapath"


def exported_names(source: str) -> list[str]:
    """The names ``from ... import`` brings into a module."""
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def referenced_names(source: str) -> set[str]:
    """Each name a module loads and each attribute it reads; definitions do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(referenced_names(path.read_text()) for path in sources))
    readme = (ROOT / "README.md").read_text()
    used.update(re.findall(r"`(\w+)", readme), re.findall(r"\brp\.(\w+)", readme))
    exported = exported_names((PACKAGE / "__init__.py").read_text())
    assert len(exported) > 40
    assert [name for name in exported if name not in used] == []


def test_definitions_and_imports_are_not_references():
    source = ("from .models import fspl\n"
              "LIMIT = 3\n"
              "def helper(x):\n"
              "    return np.log10(x) + LIMIT\n")
    assert exported_names(source) == ["fspl"]
    assert referenced_names(source) == {"np", "log10", "x", "LIMIT"}
