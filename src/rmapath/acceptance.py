"""End-to-end acceptance checks for the toolkit.

Each check pins its tolerance inline and reports one pass/fail line worth
of detail. ``rmapath validate`` runs them all and exits nonzero on any
failure; the pytest suite runs the same functions.
"""

from __future__ import annotations

import filecmp
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .campaign import (
    DEFAULT_BUDGET,
    bundled_campaign_path,
    pathloss_from_power,
    read_campaign_csv,
)
from .fitting import fit_ci, fit_ci_arrays, reproduce_3gpp_ci
from .models import (
    RURAL_73GHZ_LOS_PLE,
    RURAL_73GHZ_NLOS_PLE,
    TR38900_CI_LOS_PLE,
    TR38900_CI_LOS_SIGMA_DB,
    TR38900_CI_NLOS_PLE,
    TR38900_CI_NLOS_SIGMA_DB,
    Environment,
    RmaParams,
    breakpoint_distance,
    ci_pathloss,
    rma_los,
    rma_nlos,
)
SEED = 73
# Timed checks keep the best of a few repeats: load from other processes
# only ever adds time, so the fastest repeat is the least disturbed one.
RECALIBRATION_REPEATS = 3
BREAKPOINT_REPEATS = 5


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str


def _best_of(repeats: int, fn):
    """(shortest wall time, results) of ``repeats`` calls of ``fn``."""
    times, results = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - t0)
    return min(times), results


def _recalibration(environment: Environment, target_n: float,
                   target_sigma: float) -> CriterionResult:
    elapsed, fits = _best_of(RECALIBRATION_REPEATS,
                             lambda: reproduce_3gpp_ci(environment, seed=SEED))
    fit = fits[0]
    repeatable = all(f == fit for f in fits)
    ok = (abs(fit.n - target_n) <= 0.10
          and abs(fit.sigma_db - target_sigma) <= 0.6
          and elapsed < 5.0 and repeatable)
    detail = (f"n={fit.n:.4f} (target {target_n}+-0.10), "
              f"sigma={fit.sigma_db:.4f} dB (target {target_sigma}+-0.6), "
              f"{fit.count} samples in {elapsed:.2f} s (best of {RECALIBRATION_REPEATS}, "
              f"limit 5 s), repeats identical: {repeatable}")
    return CriterionResult(f"recalibration-{environment.value.lower()}", ok, detail)


def check_recalibration_los() -> CriterionResult:
    return _recalibration(Environment.LOS, TR38900_CI_LOS_PLE, TR38900_CI_LOS_SIGMA_DB)


def check_recalibration_nlos() -> CriterionResult:
    return _recalibration(Environment.NLOS, TR38900_CI_NLOS_PLE, TR38900_CI_NLOS_SIGMA_DB)


def check_breakpoint_degeneracy() -> CriterionResult:
    elapsed, results = _best_of(BREAKPOINT_REPEATS, lambda: (
        breakpoint_distance(35.0, 1.5, 9.1), breakpoint_distance(35.0, 1.5, 9.0)))
    above, below = results[0]
    ok = above >= 10_000.0 and below < 10_000.0 and elapsed < 1e-3
    detail = (f"d_bp(9.1 GHz)={above:.1f} m >= 10 km, "
              f"d_bp(9.0 GHz)={below:.1f} m < 10 km, "
              f"{elapsed*1e6:.0f} us (best of {BREAKPOINT_REPEATS}, limit 1 ms)")
    return CriterionResult("breakpoint-degeneracy", ok, detail)


def check_nlos_lower_bound() -> CriterionResult:
    params = RmaParams()
    near = rma_nlos(params, 10.0, 73.5)
    near_los = rma_los(params, 10.0, 73.5)
    far = rma_nlos(params, 1000.0, 73.5)
    far_los = rma_los(params, 1000.0, 73.5)
    ok = (abs(near - 89.56) <= 0.05 and near == near_los      # bound active
          and abs(far - 156.86) <= 0.05 and far > far_los)    # bound inactive
    detail = (f"10 m: {near:.4f} dB (target 89.56+-0.05, LOS branch), "
              f"1 km: {far:.4f} dB (target 156.86+-0.05, NLOS branch)")
    return CriterionResult("nlos-lower-bound", ok, detail)


def check_ci_fit_round_trip() -> CriterionResult:
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_n = worst_sigma = 0.0
    for _ in range(100):
        ple = rng.uniform(1.0, 5.0)
        count = int(rng.integers(10, 40))
        d = 10.0 ** rng.uniform(0.0, np.log10(20_000.0), count)
        fc = rng.uniform(0.5, 100.0, count)
        fit = fit_ci_arrays(fc, d, ci_pathloss(fc, d, ple), Environment.LOS)
        worst_n = max(worst_n, abs(fit.n - ple))
        worst_sigma = max(worst_sigma, fit.sigma_db)
    elapsed = time.perf_counter() - t0
    ok = worst_n < 1e-9 and worst_sigma < 1e-9 and elapsed < 1.0
    detail = (f"100 noiseless cases: max |n error|={worst_n:.2e}, "
              f"max sigma={worst_sigma:.2e} dB, {elapsed:.3f} s (limit 1 s)")
    return CriterionResult("ci-fit-round-trip", ok, detail)


def check_campaign_fixture_recovery() -> CriterionResult:
    samples, _summary = read_campaign_csv(bundled_campaign_path(), DEFAULT_BUDGET)
    los = fit_ci(samples[Environment.LOS])
    nlos = fit_ci(samples[Environment.NLOS])
    ok = (abs(los.n - RURAL_73GHZ_LOS_PLE) <= 0.25
          and abs(nlos.n - RURAL_73GHZ_NLOS_PLE) <= 0.35)
    detail = (f"LOS n={los.n:.4f} (target 2.16+-0.25, {los.count} pts), "
              f"NLOS n={nlos.n:.4f} (target 2.75+-0.35, {nlos.count} pts)")
    return CriterionResult("campaign-fixture-recovery", ok, detail)


def check_dual_slope_continuity() -> CriterionResult:
    params = RmaParams()
    worst = 0.0
    for fc in (1.0, 2.0, 6.0):
        dbp = breakpoint_distance(params.h_bs, params.h_ut, fc)
        jump = abs(rma_los(params, dbp * (1.0 + 1e-12), fc) - rma_los(params, dbp, fc))
        worst = max(worst, jump)
    ok = worst < 1e-9
    return CriterionResult("dual-slope-continuity", ok,
                           f"max |PL2 - PL1| at d_bp = {worst:.2e} dB (limit 1e-9)")


def check_link_budget_ceiling() -> CriterionResult:
    ceiling = pathloss_from_power(DEFAULT_BUDGET, -121.3)
    far_los = ci_pathloss(73.5, 10_800.0, 2.16)
    ok = (abs(ceiling - 190.0) < 1e-9
          and abs(far_los - 156.85) <= 0.05
          and far_los < 190.0)
    detail = (f"ceiling at p_rx=-121.3 dBm: {ceiling:.12f} dB (target 190), "
              f"CI LOS at 10.8 km: {far_los:.4f} dB (target 156.85+-0.05) < 190")
    return CriterionResult("link-budget-ceiling", ok, detail)


def check_simulate_determinism() -> CriterionResult:
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / "run1.csv"
        second = Path(tmp) / "run2.csv"
        for path in (first, second):
            status = cli_main(["simulate", "--env", "los", "--seed", str(SEED),
                               "--samples", "2000", "--out", str(path)])
            if status != 0:
                return CriterionResult("simulate-determinism", False,
                                       f"simulate exited with status {status}")
        identical = filecmp.cmp(first, second, shallow=False)
        size = first.stat().st_size
    return CriterionResult("simulate-determinism", identical,
                           f"two seeded runs byte-identical: {identical} ({size} bytes)")


ALL_CHECKS = (
    check_recalibration_los,
    check_recalibration_nlos,
    check_breakpoint_degeneracy,
    check_nlos_lower_bound,
    check_ci_fit_round_trip,
    check_campaign_fixture_recovery,
    check_dual_slope_continuity,
    check_link_budget_ceiling,
    check_simulate_determinism,
)
