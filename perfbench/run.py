#!/usr/bin/env python3
"""rmapath benchmark: one workload, one run, one JSON result line.

Usage, from the root of an rmapath checkout:

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 20 --trace 0

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds provenance, the workload's own
metrics under their descriptive names, and (traced) each layer's share of
the traced time.
Workloads, metrics and the layer map are described in perfbench/README.md.

The run imports rmapath from ``src/`` of the current directory, in fresh
interpreters with ``RMA_*`` and ``PYTHON*`` variables removed. It writes
only under ``.perfbench_work/`` (removed at the end) and ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

# Workload names and metric names and units come from BENCHMARK.json, at
# the root of the checkout next to this directory.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Fresh interpreters per run for setup_s: SETUP_REPEATS before the workload
# and as many after it, so the median spans the run rather than one moment
# of the host's speed. One more before them only warms the bytecode cache
# and the file cache, as an installed package would be.
SETUP_REPEATS = 10
SETUP_CODE = """\
import time
t0 = time.monotonic()
import numpy
t1 = time.monotonic()
import rmapath.cli
t2 = time.monotonic()
build_parser = getattr(rmapath.cli, "build_parser", None)
if build_parser is not None:
    build_parser()
t3 = time.monotonic()
print(t3, t1 - t0, t2 - t1, t3 - t2)
"""
WORKER_GRACE_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(inputs.SCALES), default="paper",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def hermetic_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("RMA_", "PYTHON"))}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
    return env


def setup_samples(env, root: Path, repeats: int) -> list[tuple[float, ...]]:
    """Fresh interpreters, each timed from spawn until build_parser() returned.

    Each sample is (setup, import numpy, import rmapath, build_parser) in s.
    """
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed: {proc.stderr.strip()[-500:]}")
        ready, *parts = (float(x) for x in proc.stdout.split())
        samples.append((ready - start, *parts))
    return samples


def setup_medians(samples) -> dict[str, float]:
    return {name: statistics.median(col) for name, col in
            zip(("setup_s", "import_numpy_s", "import_rmapath_s", "build_parser_s"),
                zip(*samples))}


def make_inputs(args, src: Path, work: Path) -> dict:
    """Write the workload's generated inputs; returns their spec entries."""
    scale = inputs.SCALES[args.scale]
    if args.workload == "link-queries":
        path = work / "queries.npz"
        np.savez(path, **inputs.query_stream(args.seed, scale.query_stream))
        return {"queries": str(path)}
    if args.workload == "campaign-fit":
        sys.path.insert(0, str(src))
        from rmapath.campaign import CAMPAIGN_CSV_HEADER

        text, expected = inputs.campaign_csv(args.seed, scale.campaign_rows, CAMPAIGN_CSV_HEADER)
        path = work / "campaign.csv"
        path.write_text(text)
        return {"campaign": {"csv": str(path), "expected": expected}}
    return {}


def provenance(root: Path, src: Path, worker: dict) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((src / "rmapath").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "module": worker["module"],
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def layer_metrics(setup: dict, worker: dict) -> dict[str, float]:
    """Per-layer metrics: self time per call, calls per operation, counters."""
    trace = worker["trace"]
    layers = trace["layers"]
    ops = max(trace["traced_ops"], 1)
    fixed = {
        "setup.import_numpy_s": setup["import_numpy_s"],
        "setup.import_rmapath_s": setup["import_rmapath_s"],
        "cli.build_parser.self_s": setup["build_parser_s"],
        "fitting.fits": layers.get("fitting.fit_ci_arrays", {}).get("op_calls", 0) / ops,
        "trace.overhead_ratio": trace["overhead_ratio"],
        "trace.absent_layers": len(trace["absent_layers"]),
        **worker["counters"],
    }
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        row = layers.get(layer)
        if name in fixed:
            values[name] = fixed[name]
        elif row is None:
            values[name] = 0.0
        elif kind == "calls":
            values[name] = row["op_calls"] / ops
        elif kind in ("self_s", "self_us"):
            values[name] = row["self_s"] / row["calls"] * (1e6 if kind == "self_us" else 1.0)
        else:
            values[name] = 0.0
    return values


def attribution(layers: dict) -> dict:
    """Each layer's share of traced operation time, and its largest child's share."""
    op_s = layers.get("op", {}).get("total_s", 0.0)
    shares = {}
    for name, row in sorted(layers.items()):
        if name == "op" or not op_s:
            continue
        entry = {"self_share_of_ops": row["self_s"] / op_s, "calls": row["calls"]}
        if row["children_s"]:
            child, child_s = max(row["children_s"].items(), key=lambda item: item[1])
            entry["top_child"] = child
            entry["top_child_share"] = child_s / row["total_s"]
        shares[name] = entry
    return shares


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "rmapath" / "cli.py").is_file():
        print("perfbench: run from the root of an rmapath checkout (no src/rmapath/cli.py)",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    env = hermetic_env(src)
    try:
        spec = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "scale": args.scale, "src": str(src),
            "work": str(work), "result": str(work / "result.json"),
            "spans": str(out_dir / f"{args.workload}-spans.csv.gz"),
            **make_inputs(args, src, work),
        }
        (work / "spec.json").write_text(json.dumps(spec))
        setup_samples(env, root, 1)  # warm-up
        before = setup_samples(env, root, SETUP_REPEATS)
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                               str(work / "spec.json")], env=env, cwd=root, stdout=sys.stderr,
                              timeout=args.seconds + WORKER_GRACE_S, check=False)
        if proc.returncode != 0:
            print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        worker = json.loads((work / "result.json").read_text())
        setup = setup_medians(before + setup_samples(env, root, SETUP_REPEATS))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted, failed = worker["attempted"], worker["failed"]
    if args.trace:
        metrics = layer_metrics(setup, worker)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
            "success_rate": (attempted - failed) / attempted if attempted else 0.0,
            "op_mean_ms": worker["op_mean_ms"],
            "items_per_s": worker["items_per_s"],
        }
        units = END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "provenance": provenance(root, src, worker),
        "detail": {**worker["detail"], "error_rate": failed / attempted if attempted else 1.0,
                   "ops": worker["ops"], "setup": setup},
        "problems": worker["problems"],
    }
    if args.trace:
        record["attribution"] = attribution(worker["trace"]["layers"])
        record["absent_layers"] = worker["trace"]["absent_layers"]
        record["layers"] = worker["trace"]["layers"]
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in worker["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    record.pop("layers", None)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
