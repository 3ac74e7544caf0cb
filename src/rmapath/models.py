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
Frequencies, distances, heights and exponents must be finite positive
numbers, not text, or ValueError is raised; an overflow raises OverflowError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

SPEED_OF_LIGHT_M_S = 3.0e8  # propagation constant used by the 3GPP formulas
# The public kernels' float state: _result reports an overflow once, with no numpy warning.
_float_errors = np.errstate(all="ignore")

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
            finite_positive(name, getattr(self, name))


# Table of soft applicability ranges for RmaParams fields.
_PARAM_RANGES_M = {
    "h": (5.0, 50.0),
    "w": (5.0, 50.0),
    "h_bs": (10.0, 150.0),
    "h_ut": (1.0, 10.0),
}

# The two frequency spans ``validate_applicability`` reports, with what each bounds.
_FREQ_SPANS = ((RMA_FREQ_RANGE_GHZ, "range the TR 38.900 RMa model is specified for"),
               (CI_FREQ_RANGE_GHZ, "span the CI RMa coefficients were validated over"))


@dataclass(frozen=True)
class Finding:
    """One applicability finding: severity is ``"hard"`` or ``"soft"``."""

    severity: str
    field: str
    message: str


def _bounds(a) -> tuple:
    """(min, max) of a numpy value, for every range test: ``float(a)`` twice
    for a 0-d input, which skips two reductions that would cost more than
    the scalar maths; NaN propagated for an array; and (inf, -inf) for an
    empty array, so that every "all elements satisfy" test passes vacuously."""
    if not a.ndim:
        a = float(a)
        return a, a
    return (a.min(), a.max()) if a.size else (math.inf, -math.inf)


def finite_positive(name: str, value, *, lower: float = 0.0) -> np.ndarray | np.float64:
    """The argument gate: ``value`` as floats, all finite and > ``lower``; text is rejected.

    A 0-d input comes back as a ``np.float64``, so the kernels do numpy
    scalar maths on it; an array input comes back as a float array.
    """
    a = np.asarray(value)
    kind = a.dtype.kind
    # astype(float) parses text, so an object array holding text stays kind "O".
    if kind == "O" and not any(isinstance(v, (str, bytes)) for v in a.flat):
        try:
            a, kind = a.astype(float), "f"
        except (TypeError, ValueError):  # an object that is not a number
            pass
    if kind in "biuf":
        a = a.astype(float, copy=False)
        lo, hi = _bounds(a)
        if lo > lower and hi < math.inf:  # NaN fails both tests
            return a[()]
    raise ValueError(f"{name} must be finite" + (" and positive" if lower == 0.0 else ""))


def finite(name: str, value) -> np.ndarray | np.float64:
    """The gate of a dB value of any sign: ``finite_positive`` with no lower bound."""
    return finite_positive(name, value, lower=-math.inf)


def _result(x):
    """A float for a scalar result (a numpy scalar, or the 0-d array of an
    ``np.where``), the array otherwise; OverflowError unless all finite."""
    lo, hi = _bounds(x)
    if -math.inf < lo and hi < math.inf:  # NaN fails both
        return x if x.ndim else hi
    raise OverflowError("the result overflows a float")


@_float_errors
def fspl(fc_ghz, d_m):
    """Friis free space path loss in dB: 20*log10(4*pi*fc*d*1e9 / c).

    This is the exact free space loss; the CI model instead uses the 32.4 dB
    rounded 1 m anchor (the two differ by a constant 0.042 dB at n=2).
    """
    fc, d = finite_positive("fc_ghz", fc_ghz), finite_positive("d_m", d_m)
    return _result(20.0 * np.log10(4.0 * np.pi * fc * d * 1e9 / SPEED_OF_LIGHT_M_S))


@_float_errors
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
    fc = finite_positive("fc_ghz", fc_ghz)
    d = finite_positive("d_m", d_m)
    n = finite_positive("ple", ple)
    if _bounds(d)[0] < CI_REFERENCE_DISTANCE_M:
        raise ValueError(f"CI model is defined for d >= {CI_REFERENCE_DISTANCE_M:g} m")
    lo, hi = CI_FREQ_RANGE_GHZ
    fc_lo, fc_hi = _bounds(fc)
    if fc_lo < lo or fc_hi > hi:
        warnings.warn(
            f"frequency outside the {lo:g}-{hi:g} GHz span the CI RMa "
            "coefficients were validated over",
            ModelRangeWarning,
            stacklevel=3,  # past the _float_errors wrapper, at the caller's line
        )
    return _result(CI_ANCHOR_DB + 10.0 * n * np.log10(d) + 20.0 * np.log10(fc))


def _breakpoint(h_bs, h_ut, fc):
    return 2.0 * np.pi * h_bs * h_ut * fc * 1e9 / SPEED_OF_LIGHT_M_S


@_float_errors
def breakpoint_distance(h_bs_m, h_ut_m, fc_ghz):
    """Breakpoint distance of the RMa LOS dual-slope model, in meters.

    d_bp = 2*pi*h_bs*h_ut*fc/c. Grows linearly with frequency; with default
    heights it passes the 10 km LOS distance ceiling at 9.1 GHz, beyond
    which the dual-slope model degenerates to its first slope.
    """
    h_bs, h_ut = finite_positive("h_bs_m", h_bs_m), finite_positive("h_ut_m", h_ut_m)
    return _result(_breakpoint(h_bs, h_ut, finite_positive("fc_ghz", fc_ghz)))


def _slant(d2d, h_bs, h_ut):
    dh = h_bs - h_ut
    return np.sqrt(d2d * d2d + dh * dh)


@_float_errors
def distance_3d(d2d_m, h_bs_m, h_ut_m):
    """Slant (3D) T-R distance from ground distance and antenna heights."""
    return _result(_slant(finite_positive("d2d_m", d2d_m),
                          finite_positive("h_bs_m", h_bs_m), finite_positive("h_ut_m", h_ut_m)))


def _second_slope(d3d, dbp):
    # Breakpoint at or beyond the model ceiling: first slope everywhere,
    # even at a 3D distance just past a breakpoint that sits on the ceiling.
    return (dbp < RMA_LOS_D2D_RANGE_M[1]) & (d3d > dbp)


@_float_errors
def los_second_slope(params: RmaParams, d3d_m, fc_ghz):
    """Mask of the 3D distances where the RMa LOS model takes its second slope."""
    fc, d3d = finite_positive("fc_ghz", fc_ghz), finite_positive("d3d_m", d3d_m)
    return _second_slope(d3d, _breakpoint(params.h_bs, params.h_ut, fc))


def _los_pl1(params: RmaParams, d3d, fc_ghz):
    """First slope of the RMa LOS model (no range check)."""
    h = params.h
    # Both terms reach their caps below h = 100 m, so a larger h cannot overflow.
    slope_term = min(0.03 * min(h, 100.0)**1.72, 10.0)
    offset_term = min(0.044 * min(h, 100.0)**1.72, 14.77)
    return (20.0 * np.log10(40.0 * np.pi * d3d * fc_ghz / 3.0)
            + slope_term * np.log10(d3d)
            - offset_term
            + 0.002 * np.log10(h) * d3d)


def _los_mean(params: RmaParams, d3d, fc):
    """RMa LOS mean path loss of checked float arrays."""
    dbp = _breakpoint(params.h_bs, params.h_ut, fc)
    pl1 = _los_pl1(params, d3d, fc)
    second = _second_slope(d3d, dbp)
    if not _bounds(second)[1] > 0:  # no second slope: skip it, it costs as much as the first
        return pl1
    pl2 = _los_pl1(params, dbp, fc) + 40.0 * np.log10(d3d / dbp)
    return np.where(second, pl2, pl1)


def _nlos_mean(params: RmaParams, d3d, fc):
    """RMa NLOS mean path loss of checked float arrays."""
    h, w, h_bs, h_ut = params.h, params.w, params.h_bs, params.h_ut
    # The distance term below enters additively; some transcriptions of the
    # model omit the "+" before (43.42 - 3.1*log10(h_bs)).
    raw = (161.04
           - 7.1 * np.log10(w)
           + 7.5 * np.log10(h)
           # From h / h_bs = 1e154 on the term overflows to inf, or is 0 if log10(h_bs) = 0
           - (24.37 - (3.7 * (h / h_bs) ** 2 if h < 1e154 * h_bs
                       else math.inf if h_bs != 1.0 else 0.0)) * np.log10(h_bs)
           + (43.42 - 3.1 * np.log10(h_bs)) * (np.log10(d3d) - 3.0)
           + 20.0 * np.log10(fc)
           - (3.2 * np.log10(11.75 * h_ut) ** 2 - 4.97))
    # Lower bound: close in, the raw expression dips below the LOS model,
    # which is unphysical, so the LOS value applies.
    return np.maximum(_los_mean(params, d3d, fc), raw)


def _checked(params: RmaParams, d3d_m, fc_ghz, span, label: str):
    """Gated (d3d, fc) arrays, with d3d inside the 3D image of a 2D span."""
    d3d, fc = finite_positive("d3d_m", d3d_m), finite_positive("fc_ghz", fc_ghz)
    lo, hi = span[0], _slant(span[1], params.h_bs, params.h_ut)
    d3d_lo, d3d_hi = _bounds(d3d)
    if d3d_lo < lo or d3d_hi > hi:
        raise ApplicabilityError(
            f"3D distance outside the [{lo:g} m, {hi:.3f} m] span of the {label} "
            f"model (2D distance up to {span[1]:g} m)"
        )
    return d3d, fc


@_float_errors
def rma_los(params: RmaParams, d3d_m, fc_ghz):
    """Mean LOS path loss in dB from the TR 38.900 RMa dual-slope model.

    The first slope applies up to the breakpoint distance, the second
    (40 dB/decade) beyond it; the two meet continuously at the breakpoint.
    When the breakpoint falls at or beyond the 10 km model ceiling
    (frequencies >= 9.1 GHz at default heights) the first slope applies at
    every admissible distance (see ``los_second_slope``).

    Args:
        params: environment geometry.
        d3d_m: 3D T-R separation in meters. The standard states its span on
            the 2D ground distance, [10 m, 10 km]; the 3D distances it maps
            to are admitted, i.e. [10 m, sqrt(10 km^2 + (h_bs - h_ut)^2)].
            Convert ground distances with ``distance_3d``.
        fc_ghz: carrier frequency in GHz.

    Raises:
        ValueError: a distance or frequency that is not finite and positive.
        ApplicabilityError: distance outside the 3D span.
    """
    d3d, fc = _checked(params, d3d_m, fc_ghz, RMA_LOS_D2D_RANGE_M, "RMa LOS")
    return _result(_los_mean(params, d3d, fc))


@_float_errors
def rma_nlos(params: RmaParams, d3d_m, fc_ghz):
    """Mean NLOS path loss in dB from the TR 38.900 RMa model.

    Returns max(LOS, raw NLOS): the raw expression underestimates loss close
    in, so the LOS model acts as a lower bound. ``d3d_m`` is the 3D distance
    of a 2D distance in [10 m, 5 km]: [10 m, sqrt(5 km^2 + (h_bs - h_ut)^2)].

    Raises:
        ValueError: a distance or frequency that is not finite and positive.
        ApplicabilityError: distance outside the 3D span.
    """
    d3d, fc = _checked(params, d3d_m, fc_ghz, RMA_NLOS_D2D_RANGE_M, "RMa NLOS")
    return _result(_nlos_mean(params, d3d, fc))


def validate_applicability(params: RmaParams, d2d_m: float, fc_ghz: float,
                           environment: Environment) -> list[Finding]:
    """Check inputs against the TR 38.900 RMa applicability ranges.

    Hard findings mean the model is not defined there (2D distance outside
    the environment's span). Soft findings flag parameters or frequencies
    outside the stated ranges; the model still evaluates, which is exactly
    what comparing it against measurements at mmWave requires.
    ``environment`` is an ``Environment`` or its value; a distance or
    frequency that is not a number is ValueError (``d2d_m must be a number``).
    """
    if not isinstance(environment, Environment):
        environment = Environment(environment)
    findings: list[Finding] = []
    lo, hi = (RMA_LOS_D2D_RANGE_M if environment is Environment.LOS
              else RMA_NLOS_D2D_RANGE_M)
    # Comparisons that fail are caught rather than gated: a gate cost 8-18 % of a link query.
    try:
        if not (lo <= d2d_m <= hi):
            findings.append(Finding(
                "hard", "d2d_m",
                f"2D distance {d2d_m:g} m outside the [{lo:g} m, {hi:g} m] "
                f"RMa {environment.value} span",
            ))
    except TypeError:
        raise ValueError("d2d_m must be a number") from None
    for name, (plo, phi) in _PARAM_RANGES_M.items():
        value = getattr(params, name)
        # Inclusive bounds: the default values sit on the range edges.
        if not (plo <= value <= phi):
            findings.append(Finding(
                "soft", name,
                f"{name} = {value:g} m outside the [{plo:g} m, {phi:g} m] "
                "applicability range",
            ))
    for (flo, fhi), span in _FREQ_SPANS:
        try:
            if not (flo <= fc_ghz <= fhi):
                findings.append(Finding(
                    "soft", "fc_ghz",
                    f"frequency {fc_ghz:g} GHz outside the [{flo:g}, {fhi:g}] GHz {span}"))
        except TypeError:
            raise ValueError("fc_ghz must be a number") from None
    return findings
