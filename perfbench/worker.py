"""Runs one workload in a fresh interpreter and writes its result as JSON.

run.py starts this script with a hermetic environment (``PYTHONPATH`` set
to the checkout's ``src``, no ``RMA_*`` variables) and one argument: the
path of a JSON spec it wrote. The result goes to ``spec["result"]``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import numpy as np


def overhead(traced: list[float], plain: list[float]) -> float:
    """Median traced operation time over median untraced time, minus one."""
    if not traced or not plain:
        return 0.0
    return float(np.median(traced) / np.median(plain)) - 1.0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import rmapath

    module = Path(rmapath.__file__).resolve()
    if Path(spec["src"]).resolve() not in module.parents:
        print(f"worker: imported rmapath from {module}, not from {spec['src']}", file=sys.stderr)
        return 1

    import inputs
    import tracing
    import workloads

    run_inputs = {}
    if "queries" in spec:
        with np.load(spec["queries"]) as data:
            run_inputs["queries"] = {key: data[key] for key in data.files}
    if "campaign" in spec:
        run_inputs.update(csv=Path(spec["campaign"]["csv"]),
                          expected=spec["campaign"]["expected"])
    ctx = workloads.Context(work=Path(spec["work"]), seed=spec["seed"],
                            seconds=spec["seconds"], scale=inputs.SCALES[spec["scale"]],
                            tracer=tracing.Tracer() if spec["trace"] else None)
    outcome = workloads.WORKLOADS[spec["workload"]](ctx, run_inputs)

    result = {
        "module": str(module),
        "numpy": np.__version__,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "problems": ctx.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_mean_ms": outcome["op_total_s"] / outcome["ops"] * 1e3 if outcome["ops"] else 0.0,
        "ops": outcome["ops"],
        "items_per_s": outcome["items_per_s"],
        "detail": {**outcome["detail"], "plain_op_s": outcome["plain_op_s"]},
        "counters": outcome["counters"],
    }
    if ctx.tracer is not None:
        result["trace"] = {
            "layers": ctx.tracer.layers(),
            "traced_ops": len(outcome["traced_op_s"]) * outcome.get("ops_per_call", 1),
            "overhead_ratio": overhead(outcome["traced_op_s"], outcome["plain_op_s"]),
            "absent_layers": ctx.tracer.absent_layers,
        }
        ctx.tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
