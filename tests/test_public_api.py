"""Every name the package exports has a caller; every exported function has one in the package.

``test_every_export_has_a_caller_outside_the_tests``: a name imported into
``rmapath/__init__.py`` must be referenced by the package itself (other than
by its own definition), by ``scripts/`` or ``perfbench/``, or by the README
(backticked or as ``rp.<name>``). A public name that only the tests call is
code nobody uses.

``test_every_exported_function_has_a_caller_in_the_package``: the stricter
rule for functions. An exported function counts as called only when a
package module other than its own and ``__init__`` refers to it, or a
``scripts/*.py`` file does; the README, ``perfbench/`` and the tests do not
count. Classes, exceptions and constants are exempt.

``test_every_config_field_is_set_by_a_caller_in_the_package``: every field
of ``SimulationConfig``, ``RmaParams`` and ``LinkBudget`` is set, by keyword
or by position, in some call in the package or ``scripts/``. A field that
no caller sets is a setting nobody uses; the README, ``perfbench/`` and the
tests do not count.
"""

import ast
import dataclasses
import re
from itertools import takewhile
from pathlib import Path

from rmapath import LinkBudget, RmaParams, SimulationConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmapath"


def exported_names(source: str) -> list[str]:
    """The names ``from ... import`` brings into a module."""
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def module_exports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each name an ``__init__`` imports with ``from .<module> import``."""
    return [(node.module, alias.name) for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def defined_functions(source: str) -> set[str]:
    """The functions a module defines at its top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


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


def uncalled_functions(package: Path, scripts: Path) -> list[str]:
    """The exported functions that no other package module and no script refers to."""
    modules = {path.stem: path.read_text() for path in package.glob("*.py")}
    references = {module: referenced_names(source) for module, source in modules.items()}
    scripted = set().union(*(referenced_names(path.read_text()) for path in scripts.glob("*.py")))
    return [name for module, name in module_exports(modules["__init__"])
            if name in defined_functions(modules[module]) and name not in scripted
            and not any(name in names for other, names in references.items()
                        if other not in {module, "__init__"})]


# Exported functions with no caller yet, each with the reason it stays for now.
EXCUSED = {
    "parse_campaign_csv": "ROADMAP item 1 deletes it; perfbench/selftest.py's "
                          "test_campaign_mix, which tier-1 runs, still calls it",
}


def test_every_exported_function_has_a_caller_in_the_package():
    assert uncalled_functions(PACKAGE, ROOT / "scripts") == list(EXCUSED)


def test_an_exported_function_without_a_caller_is_reported(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "__init__.py").write_text(
        "from .core import LIMIT, Model, called, scripted, uncalled\n"
        "from .report import summary\n")
    (package / "core.py").write_text(
        "LIMIT = 3\n"
        "class Model:\n"
        "    pass\n"
        "def called(x):\n"
        "    return x\n"
        "def scripted(x):\n"
        "    return x\n"
        "def uncalled(x):\n"
        "    return x\n"
        "def twice(x):\n"
        "    return uncalled(uncalled(x))\n")
    (package / "report.py").write_text(
        "from . import core\n"
        "def summary(x):\n"
        "    return core.called(x)\n")
    (scripts / "run.py").write_text("import pkg\nprint(pkg.scripted(1))\n")
    assert uncalled_functions(package, scripts) == ["uncalled", "summary"]


def test_definitions_and_imports_are_not_references():
    source = ("from .models import fspl\n"
              "LIMIT = 3\n"
              "def helper(x):\n"
              "    return np.log10(x) + LIMIT\n")
    assert exported_names(source) == ["fspl"]
    assert referenced_names(source) == {"np", "log10", "x", "LIMIT"}


def unset_fields(sources, classes) -> list[str]:
    """``Class.field`` for each dataclass field that no call in ``sources`` sets by
    keyword or by position; arguments after a ``*args`` are at no known position."""
    set_by_call = {cls.__name__: set() for cls in classes}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in set_by_call:
                positional = takewhile(lambda arg: not isinstance(arg, ast.Starred), node.args)
                set_by_call[name].update(index for index, _ in enumerate(positional))
                set_by_call[name].update(k.arg for k in node.keywords if k.arg)
    return [f"{cls.__name__}.{field.name}" for cls in classes
            for index, field in enumerate(dataclasses.fields(cls))
            if not {index, field.name} & set_by_call[cls.__name__]]


# Fields no caller sets yet, each with the reason it stays for now.
EXCUSED_FIELDS = {
    "SimulationConfig.params": "ROADMAP items 13 and 15 sweep h_BS through the config",
}


def test_every_config_field_is_set_by_a_caller_in_the_package():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    sources = [path.read_text() for path in paths]
    assert unset_fields(sources, (SimulationConfig, RmaParams, LinkBudget)) == list(EXCUSED_FIELDS)


def test_a_field_no_call_sets_is_reported():
    @dataclasses.dataclass
    class Config:
        a: int = 0
        b: int = 0
        c: int = 0
        d: int = 0

    sources = ["Config(1, d=4)\n", "import pkg\npkg.Config(*args, 9)\n"]
    assert unset_fields(sources, (Config,)) == ["Config.b", "Config.c"]
