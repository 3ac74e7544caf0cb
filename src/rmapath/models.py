"""Deterministic rural-macrocell (RMa) path loss models.

Implements Friis free space path loss, the close-in (CI) reference distance
model with a 1 m anchor, and the 3GPP TR 38.900 RMa LOS/NLOS mean path loss
models with their breakpoint geometry and applicability checks.

Unit conventions, used across the whole package: frequency in GHz, distance
in meters, power in dBm, loss in dB. The 161.04 dB constant in the NLOS
model exists only because the formula expects GHz; mixed units are the
classic failure mode here, so every argument name carries its unit.

All functions accept scalars or numpy arrays (broadcast elementwise) for
their frequency/distance arguments and return a float for scalar input.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

SPEED_OF_LIGHT_M_S = 3.0e8  # propagation constant used by the 3GPP formulas

# The CI model anchors at the free space loss in the first meter, with the
# 1 GHz constant rounded to 32.4 dB (exact value: 32.4418 dB) so that fitted
# coefficients match the published CI model forms digit for digit.
CI_REFERENCE_DISTANCE_M = 1.0
CI_ANCHOR_DB = 32.4
CI_FREQ_RANGE_GHZ = (0.5, 100.0)  # declared validity span of the CI RMa coefficients

# TR 38.900 RMa applicability: hard 2D-distance spans per environment, the
# soft parameter ranges, and the footnote frequency range (f_H = 30 GHz).
RMA_LOS_D2D_RANGE_M = (10.0, 10_000.0)
RMA_NLOS_D2D_RANGE_M = (10.0, 5_000.0)
RMA_FREQ_RANGE_GHZ = (0.8, 30.0)

# Reference CI path loss exponents and shadow fading standard deviations:
# the TR 38.900 RMa models recast in CI form by Monte Carlo recalibration
# (see rmapath.fitting.reproduce_3gpp_ci), and the values reported by a
# published 73.5 GHz rural macrocell measurement campaign.
TR38900_CI_LOS_PLE = 2.31
TR38900_CI_LOS_SIGMA_DB = 5.9
TR38900_CI_NLOS_PLE = 3.04
TR38900_CI_NLOS_SIGMA_DB = 8.3
RURAL_73GHZ_LOS_PLE = 2.16
RURAL_73GHZ_LOS_SIGMA_DB = 1.7
RURAL_73GHZ_NLOS_PLE = 2.75
RURAL_73GHZ_NLOS_SIGMA_DB = 6.7


class Environment(str, Enum):
    """Propagation environment: line-of-sight or non-line-of-sight."""

    LOS = "LOS"
    NLOS = "NLOS"


class ApplicabilityError(ValueError):
    """A distance lies outside the hard span a model is defined on."""


class ModelRangeWarning(UserWarning):
    """An input is outside a model's declared (soft) validity range."""


@dataclass(frozen=True)
class RmaParams:
    """TR 38.900 RMa environment geometry, all in meters.

    Defaults are the standard's default values (h_bs=35, h_ut=1.5, w=20,
    h=5). Values outside the stated applicability ranges are legal to
    construct; ``validate_applicability`` reports them as soft findings.
    """

    h_bs: float = 35.0  # base station height
    h_ut: float = 1.5   # user terminal height
    w: float = 20.0     # average street width
    h: float = 5.0      # average building height

    def __post_init__(self):
        for name in ("h_bs", "h_ut", "w", "h"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


# Table of soft applicability ranges for RmaParams fields.
_PARAM_RANGES_M = {
    "h": (5.0, 50.0),
    "w": (5.0, 50.0),
    "h_bs": (10.0, 150.0),
    "h_ut": (1.0, 10.0),
}


@dataclass(frozen=True)
class Finding:
    """One applicability finding: severity is ``"hard"`` or ``"soft"``."""

    severity: str
    field: str
    message: str


def _require_positive(name: str, value) -> None:
    if np.any(np.asarray(value, dtype=float) <= 0.0):
        raise ValueError(f"{name} must be positive")


def _scalar_or_array(value, scalar_input: bool):
    return float(value) if scalar_input else value


def fspl(fc_ghz, d_m):
    """Friis free space path loss in dB: 20*log10(4*pi*fc*d*1e9 / c).

    This is the exact free space loss; the CI model instead uses the 32.4 dB
    rounded 1 m anchor (the two differ by a constant 0.042 dB at n=2).
    """
    _require_positive("fc_ghz", fc_ghz)
    _require_positive("d_m", d_m)
    scalar = np.ndim(fc_ghz) == 0 and np.ndim(d_m) == 0
    pl = 20.0 * np.log10(4.0 * np.pi * np.asarray(fc_ghz, dtype=float)
                         * np.asarray(d_m, dtype=float) * 1e9 / SPEED_OF_LIGHT_M_S)
    return _scalar_or_array(pl, scalar)


def ci_pathloss(fc_ghz, d_m, ple):
    """Mean close-in reference distance path loss in dB.

    Args:
        fc_ghz: carrier frequency in GHz.
        d_m: T-R separation in meters, must be >= 1 m (the anchor distance).
        ple: path loss exponent n (free space is 2.0).

    Returns:
        32.4 + 10*n*log10(d) + 20*log10(fc). Shadow fading is not included;
        add a zero-mean Gaussian draw in dB, e.g. ``rng.normal(0.0, sigma_db)``.
    """
    _require_positive("fc_ghz", fc_ghz)
    _require_positive("ple", ple)
    d = np.asarray(d_m, dtype=float)
    if np.any(d < CI_REFERENCE_DISTANCE_M):
        raise ValueError(f"CI model is defined for d >= {CI_REFERENCE_DISTANCE_M:g} m")
    lo, hi = CI_FREQ_RANGE_GHZ
    fc = np.asarray(fc_ghz, dtype=float)
    if np.any(fc < lo) or np.any(fc > hi):
        warnings.warn(
            f"frequency outside the {lo:g}-{hi:g} GHz span the CI RMa "
            "coefficients were validated over",
            ModelRangeWarning,
            stacklevel=2,
        )
    scalar = np.ndim(fc_ghz) == 0 and np.ndim(d_m) == 0 and np.ndim(ple) == 0
    pl = CI_ANCHOR_DB + 10.0 * np.asarray(ple, dtype=float) * np.log10(d) + 20.0 * np.log10(fc)
    return _scalar_or_array(pl, scalar)


def breakpoint_distance(h_bs_m, h_ut_m, fc_ghz):
    """Breakpoint distance of the RMa LOS dual-slope model, in meters.

    d_bp = 2*pi*h_bs*h_ut*fc/c. Grows linearly with frequency; with default
    heights it passes the 10 km LOS distance ceiling at 9.1 GHz, beyond
    which the dual-slope model degenerates to its first slope.
    """
    _require_positive("h_bs_m", h_bs_m)
    _require_positive("h_ut_m", h_ut_m)
    _require_positive("fc_ghz", fc_ghz)
    scalar = np.ndim(h_bs_m) == 0 and np.ndim(h_ut_m) == 0 and np.ndim(fc_ghz) == 0
    dbp = (2.0 * np.pi * np.asarray(h_bs_m, dtype=float) * np.asarray(h_ut_m, dtype=float)
           * np.asarray(fc_ghz, dtype=float) * 1e9 / SPEED_OF_LIGHT_M_S)
    return _scalar_or_array(dbp, scalar)


def distance_3d(d2d_m, h_bs_m, h_ut_m):
    """Slant (3D) T-R distance from ground distance and antenna heights."""
    _require_positive("d2d_m", d2d_m)
    _require_positive("h_bs_m", h_bs_m)
    _require_positive("h_ut_m", h_ut_m)
    scalar = np.ndim(d2d_m) == 0 and np.ndim(h_bs_m) == 0 and np.ndim(h_ut_m) == 0
    d2d = np.asarray(d2d_m, dtype=float)
    dh = np.asarray(h_bs_m, dtype=float) - np.asarray(h_ut_m, dtype=float)
    return _scalar_or_array(np.sqrt(d2d * d2d + dh * dh), scalar)


def _los_pl1(params: RmaParams, d3d, fc_ghz):
    """First slope of the RMa LOS model (no range check)."""
    h = params.h
    slope_term = min(0.03 * h**1.72, 10.0)
    offset_term = min(0.044 * h**1.72, 14.77)
    return (20.0 * np.log10(40.0 * np.pi * d3d * fc_ghz / 3.0)
            + slope_term * np.log10(d3d)
            - offset_term
            + 0.002 * np.log10(h) * d3d)


def _los_mean(params: RmaParams, d3d, fc_ghz):
    """RMa LOS mean path loss without the hard distance-span check."""
    dbp = breakpoint_distance(params.h_bs, params.h_ut, fc_ghz)
    pl1 = _los_pl1(params, d3d, fc_ghz)
    # Breakpoint at or beyond the model ceiling: first slope everywhere,
    # even at a 3D distance just past a breakpoint that sits on the ceiling.
    single_slope = dbp >= RMA_LOS_D2D_RANGE_M[1]
    if np.all(single_slope):
        return pl1  # skips the second slope, which costs as much as the first
    pl2 = _los_pl1(params, dbp, fc_ghz) + 40.0 * np.log10(np.asarray(d3d, dtype=float) / dbp)
    return np.where(single_slope | (np.asarray(d3d) <= dbp), pl1, pl2)


def _nlos_mean(params: RmaParams, d3d, fc_ghz):
    """RMa NLOS mean path loss without the hard distance-span check."""
    h, w, h_bs, h_ut = params.h, params.w, params.h_bs, params.h_ut
    # The distance term below enters additively; some transcriptions of the
    # model omit the "+" before (43.42 - 3.1*log10(h_bs)).
    raw = (161.04
           - 7.1 * np.log10(w)
           + 7.5 * np.log10(h)
           - (24.37 - 3.7 * (h / h_bs) ** 2) * np.log10(h_bs)
           + (43.42 - 3.1 * np.log10(h_bs)) * (np.log10(d3d) - 3.0)
           + 20.0 * np.log10(fc_ghz)
           - (3.2 * np.log10(11.75 * h_ut) ** 2 - 4.97))
    # Lower bound: close in, the raw expression dips below the LOS model,
    # which is unphysical, so the LOS value applies.
    return np.maximum(_los_mean(params, d3d, fc_ghz), raw)


def _check_span(d3d, span, label: str) -> None:
    lo, hi = span
    d = np.asarray(d3d, dtype=float)
    if np.any(d < lo) or np.any(d > hi):
        raise ApplicabilityError(
            f"distance outside the [{lo:g} m, {hi:g} m] span of the {label} model"
        )


def rma_los(params: RmaParams, d3d_m, fc_ghz):
    """Mean LOS path loss in dB from the TR 38.900 RMa dual-slope model.

    The first slope applies up to the breakpoint distance, the second
    (40 dB/decade) beyond it; the two meet continuously at the breakpoint.
    When the breakpoint falls beyond the 10 km model ceiling (frequencies
    >= 9.1 GHz at default heights) the first slope applies at every
    admissible distance.

    Args:
        params: environment geometry.
        d3d_m: 3D T-R separation in meters, within [10 m, 10 km]. The
            standard states its span on the 2D ground distance; convert
            with ``distance_3d`` and range check d2d before calling if you
            hold ground distances.
        fc_ghz: carrier frequency in GHz.

    Raises:
        ApplicabilityError: distance outside [10 m, 10 km].
    """
    _require_positive("fc_ghz", fc_ghz)
    _check_span(d3d_m, RMA_LOS_D2D_RANGE_M, "RMa LOS")
    scalar = np.ndim(d3d_m) == 0 and np.ndim(fc_ghz) == 0
    return _scalar_or_array(_los_mean(params, d3d_m, fc_ghz), scalar)


def rma_nlos(params: RmaParams, d3d_m, fc_ghz):
    """Mean NLOS path loss in dB from the TR 38.900 RMa model.

    Returns max(LOS, raw NLOS): the raw expression underestimates loss close
    in, so the LOS model acts as a lower bound.

    Raises:
        ApplicabilityError: distance outside [10 m, 5 km].
    """
    _require_positive("fc_ghz", fc_ghz)
    _check_span(d3d_m, RMA_NLOS_D2D_RANGE_M, "RMa NLOS")
    scalar = np.ndim(d3d_m) == 0 and np.ndim(fc_ghz) == 0
    return _scalar_or_array(_nlos_mean(params, d3d_m, fc_ghz), scalar)


def validate_applicability(params: RmaParams, d2d_m: float, fc_ghz: float,
                           environment: Environment) -> list[Finding]:
    """Check inputs against the TR 38.900 RMa applicability ranges.

    Hard findings mean the model is not defined there (2D distance outside
    the environment's span). Soft findings flag parameters or frequencies
    outside the stated ranges; the model still evaluates, which is exactly
    what comparing it against measurements at mmWave requires.
    """
    findings: list[Finding] = []
    lo, hi = (RMA_LOS_D2D_RANGE_M if environment is Environment.LOS
              else RMA_NLOS_D2D_RANGE_M)
    if not (lo < d2d_m < hi):
        findings.append(Finding(
            "hard", "d2d_m",
            f"2D distance {d2d_m:g} m outside the ({lo:g} m, {hi:g} m) "
            f"RMa {environment.value} span",
        ))
    for name, (plo, phi) in _PARAM_RANGES_M.items():
        value = getattr(params, name)
        # Inclusive bounds: the default values sit on the range edges.
        if not (plo <= value <= phi):
            findings.append(Finding(
                "soft", name,
                f"{name} = {value:g} m outside the [{plo:g} m, {phi:g} m] "
                "applicability range",
            ))
    flo, fhi = RMA_FREQ_RANGE_GHZ
    if not (flo < fc_ghz < fhi):
        findings.append(Finding(
            "soft", "fc_ghz",
            f"frequency {fc_ghz:g} GHz outside the ({flo:g}, {fhi:g}) GHz "
            "range the TR 38.900 RMa model is specified for",
        ))
    clo, chi = CI_FREQ_RANGE_GHZ
    if not (clo <= fc_ghz <= chi):
        findings.append(Finding(
            "soft", "fc_ghz",
            f"frequency {fc_ghz:g} GHz outside the [{clo:g}, {chi:g}] GHz "
            "span the CI RMa coefficients were validated over",
        ))
    return findings
