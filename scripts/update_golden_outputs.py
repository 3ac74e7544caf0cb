#!/usr/bin/env python3
"""Rewrite tests/golden_outputs.json, the CLI output digests that
tests/test_golden_outputs.py checks.

Run it only for a change that means to change an output, and name each
changed output in the change's notes; every other change leaves the table
as it is.

Usage: python scripts/update_golden_outputs.py
"""

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"


def main() -> int:
    spec = importlib.util.spec_from_file_location("test_golden_outputs",
                                                  TESTS / "test_golden_outputs.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    for key in [k for k in os.environ if k.startswith("RMA_")]:
        del os.environ[key]  # an RMA_* variable would override a row's flags
    with tempfile.TemporaryDirectory() as directory:
        rows = golden.outputs(Path(directory))
    # One line a row, so that a changed output changes one line of the table.
    lines = [f"{json.dumps(key)}: {json.dumps(row)}" for key, row in rows.items()]
    header = json.dumps(golden.versions())[:-1]
    golden.TABLE.write_text(f'{header}, "rows": {{\n' + ",\n".join(lines) + "\n}}\n",
                            encoding="utf-8")
    print(f"wrote {len(rows)} rows to {golden.TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
