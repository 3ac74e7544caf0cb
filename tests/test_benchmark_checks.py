"""The benchmark's output checks, run with the suite.

``perfbench/selftest.py``'s ``SeededInputs`` and ``CorruptedOutputs`` pin what
the benchmark's correctness references read: the seeded campaign and its drop
counts, ``parse_campaign_csv``, the dataset and fit a tiny ``simulate`` and
``fit`` write, the query and curve checks. Collected here, a change that breaks
them fails the suite. Its subprocess smoke runs and its tracer tests run only
with ``python3 perfbench/selftest.py``. Scratch files go to ``.perfbench_work/``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from selftest import CorruptedOutputs, SeededInputs  # noqa: E402,F401
