"""Closed-form MMSE fitting of the CI path loss model.

The CI model has a single free parameter, the path loss exponent n. With
the anchor and frequency term moved to the left-hand side,

    a_i = pl_i - 32.4 - 20*log10(fc_i),   b_i = 10*log10(d_i),

the exponent minimizing sum((a_i - n*b_i)^2) is n = sum(a*b)/sum(b*b), and
the shadow fading standard deviation is the RMS residual (population
convention: divide by the count). Sums use numpy dot products, whose
pairwise accumulation keeps rounding far below the 1e-9 contract even at
450 000 samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import CI_ANCHOR_DB, Environment, finite_positive
from .simulate import SimulatedDataset, SimulationConfig, generate_3gpp_dataset


class DegenerateFitError(ValueError):
    """The sample set cannot identify a path loss exponent."""


@dataclass(frozen=True)
class CiFitResult:
    """MMSE CI fit: exponent, shadow fading sigma, and residual diagnostics.

    ``mean_residual_db`` is a diagnostic, not an identity: the single-
    parameter fit zeroes the b-weighted residual sum, not the plain mean,
    so the mean is exactly 0 only on data that is itself a CI line.
    """

    n: float
    sigma_db: float
    count: int
    mean_residual_db: float
    environment: Environment


def fit_ci_arrays(fc_ghz: np.ndarray, d_m: np.ndarray, pl_db: np.ndarray,
                  environment: Environment) -> CiFitResult:
    """Fit the CI exponent to columnar data; see ``fit_ci``."""
    d = np.asarray(d_m, dtype=float)
    pl = np.asarray(pl_db, dtype=float)
    if d.size < 2:
        raise DegenerateFitError("need at least 2 samples to fit an exponent")
    fc = finite_positive("fc_ghz", fc_ghz)
    # min and max propagate NaN, so a NaN element fails these comparisons
    for name, x in (("distances", d), ("path losses", pl)):
        if not -np.inf < x.min() <= x.max() < np.inf:
            raise ValueError(f"CI fit requires finite {name}")
    if d.min() < 1.0:
        raise ValueError("CI fit requires all distances >= 1 m")
    a = pl - CI_ANCHOR_DB - 20.0 * np.log10(fc)
    b = 10.0 * np.log10(d)
    bb = float(b @ b)
    if bb == 0.0:
        raise DegenerateFitError(
            "all samples at the 1 m reference distance; exponent unidentifiable")
    # An overflow is reported once, as the OverflowError below, not as a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        n = float(a @ b) / bb
        r = a - n * b
        sigma = float(np.sqrt(np.mean(r * r)))
        mean = float(np.mean(r))
    # A finite sigma bounds every residual, so n and the mean are finite too.
    if not sigma < np.inf:  # NaN fails too
        raise OverflowError("the CI fit overflows a float")
    return CiFitResult(
        n=n,
        sigma_db=sigma,
        count=int(d.size),
        mean_residual_db=mean,
        environment=environment,
    )


def fit_ci(dataset: SimulatedDataset) -> CiFitResult:
    """MMSE fit of the CI model to one environment's samples, at ``d3d_m``.

    The samples may span multiple frequencies: the CI anchor absorbs the
    frequency dependence.

    Raises:
        DegenerateFitError: fewer than 2 samples, or every distance equal
            to the 1 m reference so the slope cannot be identified.
    """
    return fit_ci_arrays(dataset.fc_ghz, dataset.d3d_m, dataset.pl_db,
                         dataset.environment)


def reproduce_3gpp_ci(environment: Environment, seed: int = 0) -> CiFitResult:
    """Recast the TR 38.900 RMa model in CI form by Monte Carlo.

    Runs the default recalibration configuration (nine frequencies from
    1 to 100 GHz, 50 000 instances each, default geometry, full distance
    span, uniform-linear distance sampling) and fits the pooled samples.
    Expected results: n close to 2.31 with sigma close to 5.9 dB in LOS,
    n close to 3.04 with sigma close to 8.3 dB in NLOS.
    """
    config = SimulationConfig(environment=Environment(environment), seed=seed)
    return fit_ci(generate_3gpp_dataset(config))


def fit_report_dict(result: CiFitResult, source: str, seed: int | None = None,
                    sampling_mode: str | None = None) -> dict:
    """Assemble the JSON-ready fit report for one fit."""
    return {
        "environment": result.environment.value if result.environment else None,
        "n": result.n,
        "sigma_db": result.sigma_db,
        "count": result.count,
        "mean_residual_db": result.mean_residual_db,
        "source": source,
        "seed": seed,
        "sampling_mode": sampling_mode,
    }

