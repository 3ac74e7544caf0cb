"""Independent reference values and output checks.

Nothing here calls rmapath: the CI fit, the CI model and the breakpoint
formula are written out again from the paper's definitions, and output
files are parsed with numpy. Every check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

CI_ANCHOR_DB = 32.4  # CI free space anchor at 1 m and 1 GHz
FIT_RTOL = 1e-12
MODEL_ATOL_DB = 1e-9
# Published CI recast of TR 38.900 RMa (linear distance sampling):
# (n, sigma dB) and the tolerances the paper's reproduction must meet.
PUBLISHED_CI = {"LOS": (2.31, 5.9), "NLOS": (3.04, 8.3)}
PUBLISHED_TOL = (0.10, 0.6)
DATASET_ROWS_PER_FREQUENCY = 50_000
DATASET_FREQUENCIES = 9
SUMMARY_RE = re.compile(
    r"(\d+) of (\d+) records fitted \((\d+) outage, (\d+) diffraction dropped\)")


def ci_fit(fc_ghz, d_m, pl_db) -> dict:
    """Closed-form MMSE CI fit: n = sum(a*b)/sum(b*b), sigma = RMS residual."""
    a = np.asarray(pl_db, float) - CI_ANCHOR_DB - 20.0 * np.log10(np.asarray(fc_ghz, float))
    b = 10.0 * np.log10(np.asarray(d_m, float))
    n = float(a @ b) / float(b @ b)
    r = a - n * b
    return {"n": n, "sigma_db": float(np.sqrt(np.mean(r * r))), "count": int(b.size)}


def ci_pathloss(fc_ghz: float, d_m: float, ple: float) -> float:
    return CI_ANCHOR_DB + 10.0 * ple * math.log10(d_m) + 20.0 * math.log10(fc_ghz)


def breakpoint_m(h_bs_m, h_ut_m, fc_ghz):
    return 2.0 * np.pi * h_bs_m * h_ut_m * np.asarray(fc_ghz, float) * 1e9 / 3.0e8


def _close(value, ref, rtol=FIT_RTOL) -> bool:
    return isinstance(value, (int, float)) and abs(value - ref) <= rtol * max(1.0, abs(ref))


def compare_fit(report, expected: dict, environment: str) -> list[str]:
    """A fit report dict against a reference fit of the same samples."""
    if not isinstance(report, dict):
        return [f"{environment}: fit report is {type(report).__name__}, not an object"]
    problems = []
    if report.get("environment") != environment:
        problems.append(f"{environment}: report environment {report.get('environment')!r}")
    if report.get("count") != expected["count"]:
        problems.append(f"{environment}: count {report.get('count')} != {expected['count']}")
    for key in ("n", "sigma_db"):
        if not _close(report.get(key), expected[key]):
            problems.append(f"{environment}: {key} {report.get(key)!r} != {expected[key]!r}")
    return problems


def published_band(fit: dict, environment: str, samples_per_frequency: int) -> list[str]:
    """Linear-sampling recalibration lands within the published tolerances.

    The tolerances hold for the published sample size; smaller smoke-test
    datasets scatter more and are not held to them.
    """
    if samples_per_frequency < DATASET_ROWS_PER_FREQUENCY:
        return []
    (n_ref, s_ref), (n_tol, s_tol) = PUBLISHED_CI[environment], PUBLISHED_TOL
    n, sigma = fit["n"], fit["sigma_db"]
    if not (abs(n - n_ref) <= n_tol and abs(sigma - s_ref) <= s_tol):
        return [f"{environment}: n={n} sigma={sigma} outside the published "
                f"{n_ref}+-{n_tol} / {s_ref}+-{s_tol} dB"]
    return []


def read_dataset(path) -> dict[str, np.ndarray]:
    """fc, d3d and pl columns of a dataset CSV, located by header name.

    Raises ValueError when the last row is cut short: a truncation inside
    the unused columns would otherwise go unnoticed.
    """
    with open(path, "rb") as f:
        header = f.readline().decode().strip().split(",")
        f.seek(0, 2)
        f.seek(max(0, f.tell() - 4096))
        tail = f.read()
    last = tail.rstrip(b"\n").rsplit(b"\n", 1)[-1].decode().split(",")
    if not tail.endswith(b"\n") or len(last) != len(header) or "" in last:
        raise ValueError("dataset CSV ends in a truncated row")
    cols = [header.index(name) for name in ("fc_ghz", "d3d_m", "pl_db")]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return {"fc_ghz": data[:, 0], "d3d_m": data[:, 1], "pl_db": data[:, 2]}


def check_dataset_fit(csv_path, json_text: str, environment: str, seed: int,
                      sampling: str, samples_per_frequency: int) -> list[str]:
    """A CLI ``fit`` of a CLI ``simulate`` dataset."""
    try:
        data = read_dataset(csv_path)
        report = json.loads(json_text)
    except (OSError, ValueError) as exc:
        return [f"{environment}: unreadable output: {exc}"]
    rows = samples_per_frequency * DATASET_FREQUENCIES
    if data["pl_db"].size != rows:
        return [f"{environment}: dataset has {data['pl_db'].size} rows, expected {rows}"]
    expected = ci_fit(data["fc_ghz"], data["d3d_m"], data["pl_db"])
    problems = compare_fit(report, expected, environment)
    if isinstance(report, dict):
        if report.get("seed") != seed or report.get("sampling_mode") != sampling:
            problems.append(f"{environment}: seed/sampling {report.get('seed')!r}/"
                            f"{report.get('sampling_mode')!r} != {seed}/{sampling}")
        if not problems and sampling == "linear":
            problems += published_band(report, environment, samples_per_frequency)
    return problems


def check_sweep_fit(fit, arrays: dict, environment: str, sampling: str,
                    samples_per_frequency: int) -> list[str]:
    """An in-memory ``fit_ci_arrays`` result of a generated dataset."""
    rows = samples_per_frequency * DATASET_FREQUENCIES
    if arrays["pl_db"].size != rows:
        return [f"{environment}: dataset has {arrays['pl_db'].size} rows, expected {rows}"]
    report = {"environment": getattr(getattr(fit, "environment", None), "value", None),
              "n": getattr(fit, "n", None), "sigma_db": getattr(fit, "sigma_db", None),
              "count": getattr(fit, "count", None)}
    problems = compare_fit(report, ci_fit(arrays["fc_ghz"], arrays["d3d_m"], arrays["pl_db"]),
                           environment)
    if not problems:
        if sampling == "linear":
            problems += published_band(report, environment, samples_per_frequency)
        elif not (1.5 < report["n"] < 4.0 and 0.0 < report["sigma_db"] < 20.0):
            problems.append(f"{environment}: log-sampling fit n={report['n']} "
                            f"sigma={report['sigma_db']} not plausible")
    return problems


def check_campaign_fit(json_text: str, stderr: str, expected: dict) -> list[str]:
    """A CLI ``fit`` of a campaign CSV: both fits and the drop counts."""
    problems = []
    match = SUMMARY_RE.search(stderr)
    if match is None:
        problems.append("no conversion summary on stderr")
    else:
        got = tuple(int(g) for g in match.groups())
        want = (expected["converted"], expected["rows"], expected["outage"],
                expected["diffraction"])
        if got != want:
            problems.append(f"conversion summary {got} != {want}")
    try:
        reports = json.loads(json_text)
    except ValueError as exc:
        return problems + [f"fit output is not JSON: {exc}"]
    if not isinstance(reports, list) or len(reports) != len(expected["fits"]):
        return problems + ["fit output is not one report per environment"]
    by_env = {r.get("environment"): r for r in reports if isinstance(r, dict)}
    for env, fit in expected["fits"].items():
        problems += compare_fit(by_env.get(env), fit, env)
    return problems


def check_curve(path, steps: int, fmin: float, fmax: float, h_bs: float,
                h_ut: float) -> list[str]:
    """A CLI ``breakpoint-curve`` CSV against the closed-form breakpoint."""
    try:
        with open(path) as f:
            header = f.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"unreadable curve: {exc}"]
    if header != "fc_ghz,dbp_m" or data.shape != (steps, 2):
        return [f"curve header {header!r} shape {data.shape}, expected ({steps}, 2)"]
    fc = np.geomspace(fmin, fmax, steps)
    problems = []
    if not np.allclose(data[:, 0], fc, rtol=FIT_RTOL, atol=0.0):
        problems.append("curve frequencies differ from the log grid")
    if not np.allclose(data[:, 1], breakpoint_m(h_bs, h_ut, fc), rtol=FIT_RTOL, atol=0.0):
        problems.append("curve breakpoint distances differ from 2*pi*h_bs*h_ut*fc/c")
    return problems
