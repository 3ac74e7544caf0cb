"""Columns are allocated in one place: ``_csv.column_block``.

The CSV readers share one column builder, ``_csv._take``: each format names
the columns its reader keeps, and the builder sizes them from the file's row
bound. It and the dataset generator take their columns as the rows of one
``column_block``, the only ``np.empty`` of the package. A reader or generator
that allocates columns of its own again fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rmapath"


def callers(source: str, name: str = "empty") -> list[str]:
    """The top-level function or class, or ``<module>``, that calls each ``name``."""
    found = []
    for statement in ast.parse(source).body:
        owner = (statement.name if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                 else "<module>")
        found += [owner for node in ast.walk(statement) if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == name]
    return found


def package_callers(name: str) -> list[tuple[str, str]]:
    return [(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
            for owner in callers(path.read_text(), name)]


def test_np_empty_is_called_only_by_the_column_builder():
    assert package_callers("empty") == [("_csv.py", "column_block")]


def test_the_builder_and_the_generator_take_one_column_block():
    assert package_callers("column_block") == [("_csv.py", "_take"),
                                               ("simulate.py", "generate_3gpp_dataset")]


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
    assert callers(source) == ["<module>", "take", "Reader"]
