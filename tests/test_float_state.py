"""The package has one float state for its results: ``models.float_errors``.

Every function that returns a number runs under that one ``np.errstate``
and reports an overflow through ``models.finite_result``. The campaign
reader's view, which forms each row's slant distance, runs under it too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rmapath"
ALLOWED = [("models.py", "float_errors")]


def errstate_builders(source: str) -> list[str]:
    """The top-level function, class or assigned name that builds each ``errstate``."""
    found = []
    for statement in ast.parse(source).body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            owner = statement.name
        elif isinstance(statement, ast.Assign):
            owner = ", ".join(map(ast.unparse, statement.targets))
        else:
            owner = "<module>"
        found += [owner for node in ast.walk(statement)
                  if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("errstate")]
    return found


def test_errstate_is_built_only_by_float_errors_and_the_row_rules():
    builders = [(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
                for owner in errstate_builders(path.read_text())]
    assert builders == ALLOWED


def test_detects_an_errstate():
    source = ("import numpy as np\n"
              "from numpy import errstate\n"
              "ignore = np.errstate(all='ignore')\n"
              "def fit(a):\n"
              "    with np.errstate(over='ignore'):\n"
              "        return a * a\n"
              "@errstate(invalid='ignore')\n"
              "def slope(a):\n"
              "    return a\n"
              "class Reader:\n"
              "    def read(self):\n"
              "        with numpy.errstate(all='raise'):\n"
              "            pass\n")
    assert errstate_builders(source) == ["ignore", "fit", "slope", "Reader"]
