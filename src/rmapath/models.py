"""Deterministic rural-macrocell (RMa) path loss models.

Implements Friis free space path loss, the close-in (CI) reference distance
model with a 1 m anchor and its inverse, the coverage range, and the 3GPP
TR 38.900 RMa LOS/NLOS models with their breakpoint and applicability checks.

Unit conventions, used across the whole package: frequency in GHz, distance
in meters, power in dBm, loss in dB. The 161.04 dB constant in the NLOS
model exists only because the formula expects GHz; mixed units are the
classic failure mode here, so every argument name carries its unit.

All functions but ``validate_applicability`` take scalars or numpy arrays
(broadcast elementwise) and return a float for scalar input. Frequencies,
distances, heights and exponents must be finite positive numbers, not text
or an int past the float range, or ValueError is raised; a result that
overflows raises OverflowError (``finite_result``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT_M_S = 3.0e8  # propagation constant used by the 3GPP formulas
# The float state of every function that returns a number, as a decorator (numpy refuses
# a second ``with`` of one errstate): finite_result reports an overflow once, unwarned.
float_errors = np.errstate(all="ignore")

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


class NoCoverageError(ValueError):
    """The loss budget is below the 1 m anchor loss; no range exists."""


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
        hold_floats(self, ("h_bs", "h_ut", "w", "h"))


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
    """(min, max) of a numpy value, for the range tests past the gate's float
    test: ``float(a)`` twice for a 0-d input, which skips two reductions that
    would cost more than the scalar maths; NaN propagated for an array; and
    (inf, -inf) for an empty array, so that every "all elements satisfy" test
    passes vacuously."""
    if not a.ndim:
        a = float(a)
        return a, a
    return (a.min(), a.max()) if a.size else (math.inf, -math.inf)


def finite_positive(name: str, value, *, lower: float = 0.0) -> np.ndarray | np.float64:
    """The argument gate: ``value`` as floats, all finite and > ``lower``; text is rejected.

    A 0-d input comes back as a ``np.float64``, so the kernels do numpy
    scalar maths on it; an array input comes back as a float array. A
    ``float`` or ``np.float64``, what a link query passes, takes two
    comparisons, not ``np.asarray``, and gives the same value or text.
    """
    # NaN fails both comparisons; a float that fails takes the array path to its error.
    if (type(value) is float or type(value) is np.float64) and lower < value < math.inf:
        return np.float64(value)
    a = np.asarray(value)
    kind = a.dtype.kind
    # astype(float) parses text, so an object array holding text stays kind "O".
    if kind == "O" and not any(isinstance(v, (str, bytes)) for v in a.flat):
        try:
            a, kind = a.astype(float), "f"
        except (TypeError, ValueError, OverflowError):  # not a number, or an int past floats
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


def hold_floats(config, names, gate=finite_positive) -> None:
    """Set each field ``names`` of the frozen dataclass ``config`` to the float that
    ``gate`` passes; an array is ValueError ``<name> must be a number``."""
    for name in names:
        value = gate(name, getattr(config, name))
        if value.ndim:
            raise ValueError(f"{name} must be a number")
        object.__setattr__(config, name, float(value))


def finite_result(x):
    """A float for a scalar result (a numpy scalar, or the 0-d array of an
    ``np.where``), the array otherwise; OverflowError unless all finite."""
    lo, hi = _bounds(x)
    if -math.inf < lo and hi < math.inf:  # NaN fails both
        return x if x.ndim else hi
    raise OverflowError("the result overflows a float")


@float_errors
def fspl(fc_ghz, d_m):
    """Friis free space path loss in dB: 20*log10(4*pi*fc*d*1e9 / c).

    This is the exact free space loss; the CI model instead uses the 32.4 dB
    rounded 1 m anchor (the two differ by a constant 0.042 dB at n=2).
    """
    fc, d = finite_positive("fc_ghz", fc_ghz), finite_positive("d_m", d_m)
    return finite_result(20.0 * np.log10(4.0 * np.pi * fc * d * 1e9 / SPEED_OF_LIGHT_M_S))


@float_errors
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
            stacklevel=3,  # past the float_errors wrapper, at the caller's line
        )
    return finite_result(CI_ANCHOR_DB + 10.0 * n * np.log10(d) + 20.0 * np.log10(fc))


@float_errors
def max_range(fc_ghz, ple, max_pl_db):
    """Distance in meters at which the mean CI path loss reaches max_pl_db.

    Inverts ``ci_pathloss`` only, as MacCartney and Rappaport (IEEE JSAC
    2017) do for rural coverage: no shadow fading margin and no
    atmospheric/rain attenuation, so mmWave results at hundreds of km are
    free-space-like upper bounds, not link predictions. A budget at or below
    the 1 m anchor loss is NoCoverageError, naming its first broadcast element.
    """
    fc, n = finite_positive("fc_ghz", fc_ghz), finite_positive("ple", ple)
    max_pl = finite("max_pl_db", max_pl_db)
    anchor = CI_ANCHOR_DB + 20.0 * np.log10(fc)
    excess = max_pl - anchor
    if not _bounds(excess)[0] > 0.0:
        pl, at = (np.broadcast_to(x, excess.shape)[excess <= 0.0][0] for x in (max_pl, anchor))
        raise NoCoverageError(
            f"max path loss {pl:g} dB does not exceed the {at:.2f} dB anchor loss at 1 m")
    # A ufunc, as the array loop is: a numpy scalar's ** is C pow, an ulp off it at times.
    return finite_result(np.power(10.0, excess / (10.0 * n)))


def _heights(h_bs, h_ut):
    """2*pi*h_bs*h_ut, the part of the breakpoint distance that is of the geometry alone."""
    return 2.0 * np.pi * h_bs * h_ut


def _breakpoint(heights, fc):
    """The breakpoint at ``fc`` from its height prefix ``_heights(h_bs, h_ut)``."""
    return heights * fc * 1e9 / SPEED_OF_LIGHT_M_S


@float_errors
def breakpoint_distance(h_bs_m, h_ut_m, fc_ghz):
    """Breakpoint distance of the RMa LOS dual-slope model, in meters.

    d_bp = 2*pi*h_bs*h_ut*fc/c. Grows linearly with frequency; with default
    heights it passes the 10 km LOS distance ceiling at 9.1 GHz, beyond
    which the dual-slope model degenerates to its first slope.
    """
    h_bs, h_ut = finite_positive("h_bs_m", h_bs_m), finite_positive("h_ut_m", h_ut_m)
    return finite_result(_breakpoint(_heights(h_bs, h_ut), finite_positive("fc_ghz", fc_ghz)))


def slant(d2d, h_bs, h_ut):
    """Slant distance of checked float arrays; the package's one form of it."""
    dh = h_bs - h_ut
    return np.sqrt(d2d * d2d + dh * dh)


@float_errors
def distance_3d(d2d_m, h_bs_m, h_ut_m):
    """Slant (3D) T-R distance from ground distance and antenna heights."""
    d2d, h_bs = finite_positive("d2d_m", d2d_m), finite_positive("h_bs_m", h_bs_m)
    return finite_result(slant(d2d, h_bs, finite_positive("h_ut_m", h_ut_m)))


def _second_slope(d3d, dbp):
    # Breakpoint at or beyond the model ceiling: first slope everywhere,
    # even at a 3D distance just past a breakpoint that sits on the ceiling.
    return (dbp < RMA_LOS_D2D_RANGE_M[1]) & (d3d > dbp)


class _Terms(NamedTuple):
    """The terms of one kernel's RMa formulas that depend on the geometry alone."""

    d3d_max: np.float64       # 3D image of the upper end of the kernel's 2D span
    heights: float            # _heights(h_bs, h_ut), the breakpoint's prefix
    los_slope: float
    los_offset: float
    los_linear: np.float64
    # The NLOS kernel's alone.
    nlos_prefix: np.float64 | None = None  # 161.04 - 7.1*log10(w) + ... *log10(h_bs)
    nlos_slope: np.float64 | None = None
    nlos_tail: np.float64 | None = None


def _geometry_terms(nlos: bool, h_bs: float, h_ut: float, w: float, h: float) -> _Terms:
    """The ``_Terms`` of ``rma_nlos`` or ``rma_los`` at a geometry: that kernel's terms
    alone, each with the operations and order of the full formula, so that the results
    are those of the formula written out in one."""
    log_h = np.log10(h)
    grown = min(h, 100.0)**1.72  # both caps are reached below 100 m: no overflow past it
    los = (slant((RMA_NLOS_D2D_RANGE_M if nlos else RMA_LOS_D2D_RANGE_M)[1], h_bs, h_ut),
           _heights(h_bs, h_ut),
           min(0.03 * grown, 10.0),
           min(0.044 * grown, 14.77),
           0.002 * log_h)
    if not nlos:
        return _Terms(*los)
    log_h_bs = np.log10(h_bs)
    return _Terms(
        *los,
        (161.04
         - 7.1 * np.log10(w)
         + 7.5 * log_h
         # From h / h_bs = 1e154 on the term overflows to inf, or is 0 if log10(h_bs) = 0
         - (24.37 - (3.7 * (h / h_bs) ** 2 if h < 1e154 * h_bs
                     else math.inf if h_bs != 1.0 else 0.0)) * log_h_bs),
        43.42 - 3.1 * log_h_bs,
        3.2 * np.log10(11.75 * h_ut) ** 2 - 4.97)


# The terms of the latest geometries, keyed by the kernel and the four heights: a
# tuple of floats hashes in C, where the dataclass's own hash and eq cost most of
# what the table saves. Equal fields are equal bits (each is a finite positive
# float), so an equal object, or a new one with the same geometry, finds the
# terms. The table is emptied when it is full; a caller that cycles through more
# geometries than it holds computes the terms on every call, and pays the entry.
_TERMS_TABLE: dict[tuple[bool, float, float, float, float], _Terms] = {}
_TERMS_TABLE_SIZE = 256


def _terms(params: RmaParams, nlos: bool) -> _Terms:
    """The geometry terms of ``params`` for one kernel, computed on the geometry's
    first use by that kernel (under its ``float_errors``)."""
    key = (nlos, params.h_bs, params.h_ut, params.w, params.h)
    terms = _TERMS_TABLE.get(key)
    if terms is None:
        if len(_TERMS_TABLE) >= _TERMS_TABLE_SIZE:
            _TERMS_TABLE.clear()
        terms = _TERMS_TABLE[key] = _geometry_terms(*key)
    return terms


@float_errors
def los_second_slope(params: RmaParams, d3d_m, fc_ghz):
    """Mask of the 3D distances where the RMa LOS model takes its second slope."""
    fc, d3d = finite_positive("fc_ghz", fc_ghz), finite_positive("d3d_m", d3d_m)
    return _second_slope(d3d, _breakpoint(_heights(params.h_bs, params.h_ut), fc))


def _los_pl1(terms: _Terms, d3d, log_d3d, fc_ghz):
    """First slope of the RMa LOS model (no range check); ``log_d3d`` is log10(d3d)."""
    return (20.0 * np.log10(40.0 * np.pi * d3d * fc_ghz / 3.0)
            + terms.los_slope * log_d3d
            - terms.los_offset
            + terms.los_linear * d3d)


def _los_mean(terms: _Terms, d3d, log_d3d, fc):
    """RMa LOS mean path loss of checked float arrays; ``log_d3d`` is log10(d3d)."""
    dbp = _breakpoint(terms.heights, fc)
    pl1 = _los_pl1(terms, d3d, log_d3d, fc)
    second = _second_slope(d3d, dbp)
    if not _bounds(second)[1] > 0:  # no second slope: skip it, it costs as much as the first
        return pl1
    pl2 = _los_pl1(terms, dbp, np.log10(dbp), fc) + 40.0 * np.log10(d3d / dbp)
    return np.where(second, pl2, pl1)


def _nlos_mean(terms: _Terms, d3d, fc):
    """RMa NLOS mean path loss of checked float arrays."""
    # The distance term below enters additively; some transcriptions of the
    # model omit the "+" before (43.42 - 3.1*log10(h_bs)).
    log_d3d = np.log10(d3d)  # once, for both terms
    # Lower bound: close in, the raw expression dips below the LOS model,
    # which is unphysical, so the LOS value applies. It is taken first: with
    # the raw term first, 50 000 distances ran up to 10 % slower.
    floor = _los_mean(terms, d3d, log_d3d, fc)
    raw = (terms.nlos_prefix
           + terms.nlos_slope * (log_d3d - 3.0)
           + 20.0 * np.log10(fc)
           - terms.nlos_tail)
    return np.maximum(floor, raw)


def _checked(d3d_m, fc_ghz, span, hi, label: str):
    """Gated (d3d, fc) arrays, d3d from the 2D span's lower end to ``hi``, its upper in 3D."""
    d3d, fc = finite_positive("d3d_m", d3d_m), finite_positive("fc_ghz", fc_ghz)
    lo = span[0]
    d3d_lo, d3d_hi = _bounds(d3d)
    if d3d_lo < lo or d3d_hi > hi:
        raise ApplicabilityError(
            f"3D distance outside the [{lo:g} m, {hi:.3f} m] span of the {label} "
            f"model (2D distance up to {span[1]:g} m)"
        )
    return d3d, fc


@float_errors
def rma_los(params: RmaParams, d3d_m, fc_ghz):
    """Mean LOS path loss in dB from the TR 38.900 RMa dual-slope model.

    The first slope applies up to the breakpoint distance, the second
    (40 dB/decade) beyond it; the two meet continuously at the breakpoint.
    When the breakpoint falls at or beyond the 10 km model ceiling
    (frequencies >= 9.1 GHz at default heights) the first slope applies at
    every admissible distance (see ``los_second_slope``).

    Args:
        params: environment geometry.
        d3d_m: 3D T-R separation in meters, in [10 m, sqrt(10 km^2 + (h_bs -
            h_ut)^2)]: the 2D span [10 m, 10 km] with its upper end mapped to
            3D, so from below ``distance_3d(10, h_bs, h_ut)`` (34.96 m at
            default heights). Convert ground distances with ``distance_3d``.
        fc_ghz: carrier frequency in GHz.

    Raises:
        ValueError: a distance or frequency that is not finite and positive.
        ApplicabilityError: distance outside the 3D span.
    """
    terms = _terms(params, False)
    d3d, fc = _checked(d3d_m, fc_ghz, RMA_LOS_D2D_RANGE_M, terms.d3d_max, "RMa LOS")
    return finite_result(_los_mean(terms, d3d, np.log10(d3d), fc))


@float_errors
def rma_nlos(params: RmaParams, d3d_m, fc_ghz):
    """Mean NLOS path loss in dB from the TR 38.900 RMa model.

    Returns max(LOS, raw NLOS): the raw expression underestimates loss close
    in, so the LOS model acts as a lower bound. ``d3d_m`` is admitted in
    [10 m, sqrt(5 km^2 + (h_bs - h_ut)^2)], the 2D span [10 m, 5 km] with its
    upper end mapped to 3D; its lower end is the 2D one, as in ``rma_los``.

    Raises:
        ValueError: a distance or frequency that is not finite and positive.
        ApplicabilityError: distance outside the 3D span.
    """
    terms = _terms(params, True)
    d3d, fc = _checked(d3d_m, fc_ghz, RMA_NLOS_D2D_RANGE_M, terms.d3d_max, "RMa NLOS")
    return finite_result(_nlos_mean(terms, d3d, fc))


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
    except (TypeError, OverflowError):  # text, None or an int past floats
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
        except (TypeError, OverflowError):
            raise ValueError("fc_ghz must be a number") from None
    return findings
