"""Golden digests of the CLI's outputs.

Each row of ``CASES`` is an ``rmapath.cli.main`` argv, run in-process in one
temporary directory with fixed relative file names, so that no path enters
an output. ``golden_outputs.json`` records, per row, its exit status and the
sha256 of its stdout, its stderr and each ``--out`` file it writes, with the
Python and numpy versions the table was made on. A changed byte in any
output fails here and names the output.

Rewrite the table with ``python scripts/update_golden_outputs.py``, and
only in a change that means to change an output.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from rmapath import DATASET_CSV_HEADER, bundled_campaign_path
from rmapath.cli import main

TABLE = Path(__file__).with_name("golden_outputs.json")

SIMULATED = {f"{env}-{mode}.csv": (env, mode) for env in ("los", "nlos")
             for mode in ("linear", "log")}

# simulate writes 9 x 1000 rows, past one 8192-row block; fit reads what
# simulate wrote, so the simulate rows come first.
CASES = [
    *(["simulate", "--env", env, "--sampling", mode, "--seed", "7", "--samples", "1000",
       "--out", name] for name, (env, mode) in SIMULATED.items()),
    *(["fit", "--input", name]
      for name in [*SIMULATED, "fixture.csv", "fixture-quoted.csv", "fixture-crlf.csv"]),
    ["fit", "--input", "fixture.csv", "--out", "fit.json"],
    ["breakpoint-curve", "--spacing", "log", "--steps", "20000", "--out", "curve-log.csv"],
    ["breakpoint-curve", "--spacing", "linear", "--steps", "20000"],
    # 2 GHz puts 4 km past the LOS breakpoint; 73.5 GHz is past TR 38.900's footnote range.
    *(["predict", "--model", model, "--env", env, "--freq-ghz", fc, "--dist-m", dist]
      for model in ("ci", "3gpp-rma") for env in ("los", "nlos")
      for fc in ("2", "28", "73.5") for dist in ("100", "1000", "4000")),
    *(["coverage", "--max-pl", budget, "--ple", ple, "--freq-ghz", fc]
      for budget in ("150", "190") for ple in ("2.16", "2.75") for fc in ("2", "28", "73.5")),
    # one-line errors; nul.csv's one row has a sampling_mode that ends in a NUL
    ["fit", "--input", "nul.csv"],
    ["fit", "--input", "fixture.csv", "--tx-power-dbm", "1e308", "--tx-gain-dbi", "1e308"],
    ["predict", "--model", "3gpp-rma", "--env", "los", "--freq-ghz", "2", "--dist-m", "20000"],
    ["coverage", "--max-pl", "190", "--ple", "-2", "--freq-ghz", "28"],
    ["simulate", "--env", "los", "--samples", "0", "--out", "empty.csv"],
    ["breakpoint-curve", "--fmin", "10", "--fmax", "1"],
]


def write_inputs(directory: Path) -> None:
    """Write the files the rows read besides those the simulate rows write:
    the bundled fixture, its QUOTE_ALL and CRLF copies, and a dataset whose
    one row's sampling_mode ends in a NUL."""
    text = bundled_campaign_path().read_text(encoding="utf-8")
    (directory / "fixture.csv").write_text(text, encoding="utf-8", newline="")
    (directory / "fixture-crlf.csv").write_text(text.replace("\n", "\r\n"), encoding="utf-8",
                                                newline="")
    with open(directory / "fixture-quoted.csv", "w", encoding="utf-8", newline="") as f:
        csv.writer(f, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
            csv.reader(io.StringIO(text)))
    (directory / "nul.csv").write_text(
        ",".join(DATASET_CSV_HEADER) + "\n1.0,100.0,105.0,LOS,80.0,7,linear\0\n",
        encoding="utf-8", newline="")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> dict:
    """The exit status of ``main(argv)`` run in the current directory, and
    the digests of its stdout, its stderr and each ``--out`` file it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")  # a library warning shows as in a plain interpreter
        status = main(argv)
    names = [argv[i + 1] for i, flag in enumerate(argv) if flag == "--out"]
    return {"status": status, "stdout": _sha256(out.getvalue().encode()),
            "stderr": _sha256(err.getvalue().encode()),
            "files": {name: _sha256(Path(name).read_bytes())
                      for name in names if Path(name).exists()}}


def outputs(directory: Path) -> dict[str, dict]:
    """Each row's digests, keyed by its argv joined with spaces, run in ``directory``."""
    write_inputs(directory)
    with contextlib.chdir(directory):
        return {" ".join(argv): run(argv) for argv in CASES}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def changes(table: dict, got: dict[str, dict]) -> list[str]:
    """One line per row output whose digest differs from the table's."""
    lines = [f"{key}: not in the table" for key in got.keys() - table["rows"].keys()]
    lines += [f"{key}: not run" for key in table["rows"].keys() - got.keys()]
    for key, expected in table["rows"].items():
        actual = got.get(key, expected)
        lines += [f"{key}: {output}" for output in ("status", "stdout", "stderr")
                  if actual[output] != expected[output]]
        lines += [f"{key}: file {name}"
                  for name in sorted(actual["files"].keys() | expected["files"].keys())
                  if actual["files"].get(name) != expected["files"].get(name)]
    return lines


def assert_unchanged(table: dict, got: dict[str, dict]) -> None:
    lines, ran = changes(table, got), versions()
    assert not lines, (
        f"changed outputs (table made on Python {table['python']}, numpy {table['numpy']}; "
        f"run on Python {ran['python']}, numpy {ran['numpy']}):\n" + "\n".join(lines))


def test_outputs_match_the_table(tmp_path):
    assert_unchanged(json.loads(TABLE.read_text(encoding="utf-8")), outputs(tmp_path))


# The BLAS thread count is read at numpy's import, so each count runs the table
# in an interpreter of its own: this module, loaded from its file.
RUN_TABLE = """
import importlib.util, json, pathlib, sys
spec = importlib.util.spec_from_file_location("golden", sys.argv[1])
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)
print(json.dumps(golden.outputs(pathlib.Path(sys.argv[2]))))
"""


def test_fit_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    table["rows"] = {key: row for key, row in table["rows"].items() if key.startswith("fit ")}
    runs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        runs.append(subprocess.Popen(
            [sys.executable, "-c", RUN_TABLE, __file__, str(tmp_path / threads)], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "OPENBLAS_NUM_THREADS": threads}))
    for child in runs:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        got = json.loads(out)
        assert_unchanged(table, {key: got[key] for key in table["rows"]})
