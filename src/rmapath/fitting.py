"""Closed-form MMSE fitting of the CI path loss model.

The CI model has a single free parameter, the path loss exponent n. With
the anchor and frequency term moved to the left-hand side,

    a_i = pl_i - 32.4 - 20*log10(fc_i),   b_i = 10*log10(d_i),

the exponent minimizing sum((a_i - n*b_i)^2) is n = sum(a*b)/sum(b*b), and
the shadow fading standard deviation is the RMS residual (population
convention: divide by the count). The sums of products run ``np.einsum``, not
BLAS, whose summation order depends on its thread count: the same input gives
the same bits under any ``OPENBLAS_NUM_THREADS``. On path loss data the terms
share one sign, which bounds the rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import (CI_ANCHOR_DB, CI_REFERENCE_DISTANCE_M, Environment, finite,
                     finite_positive, finite_result, float_errors)
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


@float_errors
def fit_ci_arrays(fc_ghz: np.ndarray, d_m: np.ndarray, pl_db: np.ndarray,
                  environment: Environment) -> CiFitResult:
    """Fit the CI exponent to columnar data; see ``fit_ci``."""
    environment = Environment(environment)
    d = finite_positive("d_m", d_m)
    if d.size < 2:
        raise DegenerateFitError(
            f"need at least 2 {environment.value} samples to fit an exponent")
    fc = finite_positive("fc_ghz", fc_ghz)
    pl = finite("pl_db", pl_db)
    if d.ndim != 1 or pl.shape != d.shape or fc.shape not in {(), d.shape}:
        raise ValueError("fc_ghz (or one number), d_m and pl_db must be 1-D and of one length")
    if d.min() < CI_REFERENCE_DISTANCE_M:
        raise ValueError(f"CI fit requires all distances >= {CI_REFERENCE_DISTANCE_M:g} m")
    # a = pl - 32.4 - 20*log10(fc), b = 10*log10(d) and the residual a - n*b, each
    # operation as written and in that order, in two new arrays: never in an input.
    a = pl - CI_ANCHOR_DB
    b = np.log10(fc)
    b *= 20.0
    a -= b
    b = np.log10(d, out=b if b.shape == d.shape else None)
    b *= 10.0
    bb = float(np.einsum("i,i->", b, b))
    if bb == 0.0:
        raise DegenerateFitError(f"all {environment.value} samples at the "
                                 f"{CI_REFERENCE_DISTANCE_M:g} m reference distance; "
                                 "exponent unidentifiable")
    n = float(np.einsum("i,i->", a, b)) / bb
    b *= n
    r = np.subtract(a, b, out=b)
    # A finite sigma bounds every residual, so n and the mean are finite too.
    return CiFitResult(
        n=n,
        sigma_db=finite_result(np.sqrt(np.mean(np.multiply(r, r, out=a)))),
        count=int(d.size),
        mean_residual_db=float(np.mean(r)),
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

    Runs the default configuration (50 000 instances at each of the nine
    ``DEFAULT_FREQUENCIES_GHZ``, default geometry, uniform-linear distances
    over the full span) and fits the pooled samples.
    Expected results: n close to 2.31 with sigma close to 5.9 dB in LOS,
    n close to 3.04 with sigma close to 8.3 dB in NLOS.
    """
    config = SimulationConfig(environment=environment, seed=seed)
    return fit_ci(generate_3gpp_dataset(config))


def fit_report_dict(result: CiFitResult, source: str, seed: int | None = None,
                    sampling_mode: str | None = None) -> dict:
    """Assemble the JSON-ready fit report for one fit."""
    return {
        "environment": result.environment.value,
        "n": result.n,
        "sigma_db": result.sigma_db,
        "count": result.count,
        "mean_residual_db": result.mean_residual_db,
        "source": source,
        "seed": seed,
        "sampling_mode": sampling_mode,
    }

