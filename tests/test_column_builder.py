"""The CSV readers share one column builder: ``_csv._take``.

Each format names the columns its reader keeps, and the builder alone sizes
them (``np.empty``) from the file's row bound. A reader that grows a builder
of its own again fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rmapath"


def empty_callers(source: str) -> list[str]:
    """The top-level function or class, or ``<module>``, that calls each ``empty``."""
    found = []
    for statement in ast.parse(source).body:
        owner = (statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                 else "<module>")
        found += [owner for node in ast.walk(statement) if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "empty"]
    return found


def test_np_empty_is_called_only_by_the_column_builder():
    callers = [(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
               for owner in empty_callers(path.read_text())]
    assert callers == [("_csv.py", "_take")]


def test_detects_an_empty():
    source = ("import numpy as np\n"
              "from numpy import empty\n"
              "ROWS = np.empty(3)\n"
              "def take(views, rows):\n"
              "    return [empty(rows, bool) for view in views]\n"
              "class Reader:\n"
              "    def read(self):\n"
              "        return numpy.empty((5, 8))\n"
              "def like(a):\n"
              "    return np.empty_like(a), a.is_empty()\n")
    assert empty_callers(source) == ["<module>", "take", "Reader"]
