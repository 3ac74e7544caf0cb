"""The four workloads: closed-loop operations, their output checks and metrics.

One caller drives each workload: the next operation starts when the
previous one and its checks are done. Operations run until the run's
seconds have passed (at least one, or two in a traced run so that one is
traced). In a traced run about half of the operations, chosen at random,
run with the tracer installed and the rest without, so both see the same
machine and the difference of their medians is the tracing overhead.

The program is called only through ``rmapath.cli.main(argv)`` and public
names of the ``rmapath`` package; functions are looked up on the package
at call time so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import reference
import rmapath
import rmapath.cli

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
MAX_REPORTED_PROBLEMS = 10
# link-queries alternates this many seconds of queries with one breakpoint
# curve (about 3-4 s at 100 000 points today), so that both sample the
# host's speed over the whole run. Queries are timed one by one and traced
# in blocks.
QUERY_SLICE_S = 2.0
QUERY_BLOCK = 250


@dataclass
class Context:
    work: Path
    seed: int
    seconds: float
    scale: inputs.Scale
    tracer: object = None  # tracing.Tracer in a traced run
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def fail(self, problems: list[str], count: int = 1) -> None:
        self.failed += count
        room = MAX_REPORTED_PROBLEMS - len(self.problems)
        self.problems.extend(problems[:max(room, 0)])


def cli(ctx: Context, span: str, argv: list[str]) -> tuple[int, str, str]:
    """``rmapath.cli.main(argv)`` in-process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with ctx.span(span):
            code = rmapath.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def exit_problems(name: str, result) -> list[str]:
    code, _out, err = result
    return [] if code == 0 else [f"{name} exited {code}: {err.strip()[-300:]}"]


def closed_loop(ctx: Context, seconds: float, call, check, size: int = 1,
                numbered: bool = True):
    """Run call(k) then check(out) back to back; yield (traced, s, out).

    Each call makes ``size`` operations; one that raises fails all of them.
    Calls that are not ``numbered`` are traced outside the numbered
    operations, so per-operation call counts leave them out.
    """
    # Operations are traced at random (op 1 always), not every other one:
    # the program's own timing can alternate between consecutive operations.
    coin = random.Random(ctx.seed)
    start = perf_counter()
    k = 0
    while k < (2 if ctx.trace else 1) or perf_counter() - start < seconds:
        traced = ctx.trace and k > 0 and (k == 1 or coin.random() < 0.5)
        scope = ctx.tracer.tracing(k if numbered else -1) if traced \
            else contextlib.nullcontext()
        try:
            with scope:
                t0 = perf_counter()
                out = call(k)
                elapsed = perf_counter() - t0
            problems = check(out)
        except Exception as exc:  # a crash in the program fails this call only
            ctx.attempted += size
            ctx.fail([f"op {k}: {type(exc).__name__}: {exc}"], size)
        else:
            ctx.attempted += size
            if problems:
                ctx.fail([f"op {k}: {p}" for p in problems])
            yield traced, elapsed, out
        k += 1


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(values, q))
    return None


def _mean(values) -> float:
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else 0.0


def paper_pipeline(ctx: Context, _inputs: dict) -> dict:
    """CLI ``simulate`` then ``fit`` at paper scale, LOS and NLOS in turn."""
    spf = ctx.scale.samples_per_frequency
    rows = spf * reference.DATASET_FREQUENCIES
    csv_path, json_path = ctx.work / "dataset.csv", ctx.work / "fit.json"

    def call(k):
        env = ("LOS", "NLOS")[k % 2]
        seed = inputs.op_seed(ctx.seed, k)
        for path in (csv_path, json_path):
            path.unlink(missing_ok=True)
        t0 = perf_counter()
        sim = cli(ctx, "cli.simulate", ["simulate", "--env", env.lower(), "--seed", str(seed),
                                        "--samples", str(spf), "--sampling", "linear",
                                        "--out", str(csv_path)])
        t1 = perf_counter()
        fit = cli(ctx, "cli.fit", ["fit", "--input", str(csv_path), "--out", str(json_path)])
        return {"env": env, "seed": seed, "sim": sim, "fit": fit,
                "simulate_s": t1 - t0, "fit_s": perf_counter() - t1}

    def check(out):
        problems = exit_problems("simulate", out["sim"]) + exit_problems("fit", out["fit"])
        if problems:
            return problems
        text = json_path.read_text()
        out["bytes"] = csv_path.stat().st_size
        out["rows_read"] = json.loads(text).get("count")
        return reference.check_dataset_fit(csv_path, text, out["env"], out["seed"], "linear",
                                           spf)

    ops = list(closed_loop(ctx, ctx.seconds, call, check))
    plain = [out for traced, _s, out in ops if not traced]
    op_s = [out["simulate_s"] + out["fit_s"] for out in plain]
    simulate_s = sum(out["simulate_s"] for out in plain)
    fit_s = sum(out["fit_s"] for out in plain)
    return {
        "ops": len(op_s),
        "op_total_s": sum(op_s),
        "traced_op_s": [s for traced, s, _out in ops if traced],
        "plain_op_s": [s for traced, s, _out in ops if not traced],
        # The fit phase alone, so that it is gated apart from op_mean_ms.
        "items_per_s": rows * len(plain) / fit_s if plain else 0.0,
        "detail": {
            "time_to_fit_s": statistics.median(op_s) if op_s else None,
            "simulate_rows_per_s": rows * len(plain) / simulate_s if plain else None,
            "fit_rows_per_s": rows * len(plain) / fit_s if plain else None,
        },
        "counters": {
            "simulate.write_csv.bytes": _mean(out.get("bytes") for _t, _s, out in ops),
            "simulate.read_dataset_csv.rows": _mean(out.get("rows_read") for _t, _s, out in ops),
        },
    }


SWEEP_CONFIGS = (("LOS", "linear"), ("NLOS", "linear"), ("LOS", "log"), ("NLOS", "log"))


def recalibration_sweep(ctx: Context, _inputs: dict) -> dict:
    """In-memory generate + fit over seeds, environments and sampling modes."""
    spf = ctx.scale.samples_per_frequency

    def call(k):
        env, mode = SWEEP_CONFIGS[k % len(SWEEP_CONFIGS)]
        config = rmapath.SimulationConfig(environment=rmapath.Environment(env),
                                          samples_per_frequency=spf,
                                          seed=inputs.op_seed(ctx.seed, k),
                                          distance_sampling=mode)
        t0 = perf_counter()
        dataset = rmapath.generate_3gpp_dataset(config)
        generate_s = perf_counter() - t0
        fit = rmapath.fit_ci_arrays(dataset.fc_ghz, dataset.d3d_m, dataset.pl_db,
                                    dataset.environment)
        return env, mode, dataset, fit, generate_s

    def check(out):
        env, mode, dataset, fit, _generate_s = out
        arrays = {"fc_ghz": dataset.fc_ghz, "d3d_m": dataset.d3d_m, "pl_db": dataset.pl_db}
        return reference.check_sweep_fit(fit, arrays, env, mode, spf)

    ops = [(traced, s, out[-1]) for traced, s, out in closed_loop(ctx, ctx.seconds, call, check)]
    op_s = [s for traced, s, _g in ops if not traced]
    generate_s = sum(g for traced, _s, g in ops if not traced)
    rows = spf * reference.DATASET_FREQUENCIES * len(op_s)
    detail = {"time_to_fit_s": statistics.median(op_s) if op_s else None,
              "generate_rows_per_s": rows / generate_s if op_s else None}
    high = tail(op_s)
    if high:
        detail[f"time_to_fit_s.p{high[0]:g}"] = high[1]
    return {
        "ops": len(op_s),
        "op_total_s": sum(op_s),
        "traced_op_s": [s for traced, s, _g in ops if traced],
        "plain_op_s": op_s,
        # Generation alone, so that it is gated apart from op_mean_ms.
        "items_per_s": rows / generate_s if op_s else 0.0,
        "detail": detail,
        "counters": {},
    }


def link_queries(ctx: Context, query_inputs: dict) -> dict:
    """Single-link questions in a closed loop, alternating with breakpoint curves."""
    start = perf_counter()
    stream = {key: query_inputs["queries"][key].tolist()
              for key in ("nlos", "freq", "heights", "d2d")}
    size = len(stream["d2d"])
    params = [rmapath.RmaParams(h_bs=h_bs, h_ut=h_ut) for h_bs, h_ut in inputs.QUERY_HEIGHTS_M]
    environments = (rmapath.Environment("LOS"), rmapath.Environment("NLOS"))
    # Fixed-size buffers, so the process's memory does not grow with the
    # number of queries a faster program manages: one result row per stream
    # entry, and a ring of the latest untraced latencies.
    results = np.full((size, 4), np.nan)
    ring = np.empty(size)
    state = {"next": 0, "mismatch": set(), "hard": set()}

    def query(_k):
        times = []
        for _ in range(QUERY_BLOCK):
            i = state["next"] % size
            state["next"] += 1
            nlos, p, d2d = stream["nlos"][i], params[stream["heights"][i]], stream["d2d"][i]
            fc = inputs.QUERY_FREQS_GHZ[stream["freq"][i]]
            ple = inputs.QUERY_PLE["NLOS" if nlos else "LOS"]
            t0 = perf_counter()
            findings = rmapath.validate_applicability(p, d2d, fc, environments[nlos])
            d3d = rmapath.distance_3d(d2d, p.h_bs, p.h_ut)
            pl = (rmapath.rma_nlos if nlos else rmapath.rma_los)(p, d3d, fc)
            ci = rmapath.ci_pathloss(fc, d3d, ple)
            reach = rmapath.max_range(fc, ple, pl)
            times.append(perf_counter() - t0)
            if any(getattr(f, "severity", None) == "hard" for f in findings):
                state["hard"].add(i)
            value = (d3d, pl, ci, reach)
            if not np.isnan(results[i, 0]) and tuple(results[i].tolist()) != value:
                state["mismatch"].add(i)
            results[i] = value
        return times

    h_bs, h_ut = inputs.curve_heights(ctx.seed)
    steps = ctx.scale.curve_steps
    curve_path = ctx.work / "curve.csv"
    argv = ["breakpoint-curve", "--fmin", "0.5", "--fmax", "100", "--steps", str(steps),
            "--spacing", "log", "--hbs", repr(h_bs), "--hut", repr(h_ut), "--out", str(curve_path)]

    def curve(_k):
        curve_path.unlink(missing_ok=True)
        return cli(ctx, "cli.breakpoint_curve", argv)

    def check_curve(out):
        return exit_problems("breakpoint-curve", out) or reference.check_curve(
            curve_path, steps, 0.5, 100.0, h_bs, h_ut)

    # Both loops end at the run's end at the latest; the rounds below take
    # from each in turn and stop after the round that passes it. A traced
    # run makes two rounds at least, so that one curve is traced.
    queries = closed_loop(ctx, ctx.seconds, query, lambda _out: [], size=QUERY_BLOCK)
    curves = closed_loop(ctx, ctx.seconds, curve, check_curve, numbered=False)
    count, query_s, traced_blocks, plain_blocks, curve_s = 0, 0.0, [], [], []
    rounds = 0
    while rounds < (2 if ctx.trace else 1) or perf_counter() - start < ctx.seconds:
        rounds += 1
        slice_end = perf_counter() + QUERY_SLICE_S
        for traced, seconds, times in queries:
            (traced_blocks if traced else plain_blocks).append(seconds / QUERY_BLOCK)
            if not traced:
                for t in times:
                    ring[count % size] = t
                    count += 1
                query_s += sum(times)
            if perf_counter() >= slice_end:
                break
        for traced, seconds, _out in curves:
            if not traced:
                curve_s.append(seconds)
            break
    latencies = ring[:min(count, size)]
    failed = check_queries(stream, params, results, state)
    ctx.fail(list(failed.values()), len(failed))
    curve_points_per_s = steps * len(curve_s) / sum(curve_s) if curve_s else 0.0

    detail = {
        "queries_per_s": count / query_s if count else None,
        "query_p50_us": float(np.median(latencies)) * 1e6 if count else None,
        "curve_points_per_s": curve_points_per_s,
        "queries": count,
        "curves": len(curve_s),
    }
    high = tail(latencies)
    if high:
        detail[f"query_p{high[0]:g}_us"] = high[1] * 1e6
    return {
        "ops": count,
        "op_total_s": query_s,
        # Blocks of queries are the traced/untraced unit; compare per query.
        "traced_op_s": traced_blocks,
        "plain_op_s": plain_blocks,
        # The curves alone: op_mean_ms gates the queries, this the curve.
        "items_per_s": curve_points_per_s,
        "ops_per_call": QUERY_BLOCK,
        "detail": detail,
        "counters": {},
    }


def check_queries(stream, params, results, state) -> dict[int, str]:
    """Scalar answers against the array evaluation of their group.

    Returns one problem per failed query, keyed by its stream index.
    """
    results = np.asarray(results, dtype=float)
    problems = {i: f"query {i}: hard applicability finding" for i in state["hard"]}
    problems.update({i: f"query {i}: differs between repeats" for i in state["mismatch"]})
    done = np.flatnonzero(~np.isnan(results[:, 0])).tolist()
    groups: dict[tuple, list[int]] = {}
    for i in done:
        groups.setdefault((stream["nlos"][i], stream["freq"][i], stream["heights"][i]),
                          []).append(i)
    for (nlos, freq, heights), members in groups.items():
        p, fc = params[heights], inputs.QUERY_FREQS_GHZ[freq]
        ple = inputs.QUERY_PLE["NLOS" if nlos else "LOS"]
        got = results[members]
        d3d = rmapath.distance_3d(np.array([stream["d2d"][i] for i in members]), p.h_bs, p.h_ut)
        pl = (rmapath.rma_nlos if nlos else rmapath.rma_los)(p, d3d, fc)
        ci = rmapath.ci_pathloss(fc, d3d, ple)
        ref_ci = [reference.ci_pathloss(fc, d, ple) for d in got[:, 0]]
        ref_pl = [reference.ci_pathloss(fc, r, ple) for r in got[:, 3]]
        bad = ((np.abs(got[:, 0] - d3d) > reference.MODEL_ATOL_DB)
               | (np.abs(got[:, 1] - pl) > reference.MODEL_ATOL_DB)
               | (np.abs(got[:, 2] - ci) > reference.MODEL_ATOL_DB)
               | (np.abs(got[:, 2] - ref_ci) > reference.MODEL_ATOL_DB)
               | (np.abs(got[:, 1] - ref_pl) > reference.MODEL_ATOL_DB))
        problems.update({members[j]: f"query {members[j]}: scalar {tuple(got[j])} disagrees "
                         "with the array evaluation or the CI inverse"
                         for j in np.flatnonzero(bad)})
    return problems


def campaign_fit(ctx: Context, campaign_inputs: dict) -> dict:
    """CLI ``fit`` of a synthetic campaign CSV with both environments."""
    expected = campaign_inputs["expected"]
    csv_path, json_path = campaign_inputs["csv"], ctx.work / "campaign_fit.json"
    argv = ["fit", "--input", str(csv_path), "--out", str(json_path),
            "--tx-power-dbm", repr(inputs.TX_POWER_DBM), "--tx-gain-dbi", repr(inputs.TX_GAIN_DBI),
            "--rx-gain-dbi", repr(inputs.RX_GAIN_DBI), "--max-pl-db", repr(inputs.MAX_PL_DB)]

    def call(_k):
        json_path.unlink(missing_ok=True)
        return cli(ctx, "cli.fit", argv)

    def check(out):
        return exit_problems("fit", out) or reference.check_campaign_fit(
            json_path.read_text(), out[2], expected)

    ops = list(closed_loop(ctx, ctx.seconds, call, check))
    op_s = [s for traced, s, _out in ops if not traced]
    rows = expected["rows"]
    counts = reference.SUMMARY_RE.search(ops[-1][2][2]) if ops else None
    converted, read, outage, diffraction = (int(g) for g in counts.groups()) if counts \
        else (0, 0, 0, 0)
    return {
        "ops": len(op_s),
        "op_total_s": sum(op_s),
        "traced_op_s": [s for traced, s, _out in ops if traced],
        "plain_op_s": op_s,
        "items_per_s": rows * len(op_s) / sum(op_s) if op_s else 0.0,
        "detail": {
            "time_to_fit_s": statistics.median(op_s) if op_s else None,
            "fit_rows_per_s": rows * len(op_s) / sum(op_s) if op_s else None,
        },
        "counters": {
            "campaign.rows_read": read,
            "campaign.rows_converted": converted,
            "campaign.converted_ratio": converted / read if read else 0.0,
            "campaign.dropped.outage": outage,
            "campaign.dropped.diffraction": diffraction,
        },
    }


WORKLOADS = {
    "paper-pipeline": paper_pipeline,
    "recalibration-sweep": recalibration_sweep,
    "link-queries": link_queries,
    "campaign-fit": campaign_fit,
}
