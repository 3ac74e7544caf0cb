"""Measurement campaign ingestion, link budget arithmetic, and coverage range.

Campaign CSVs carry one row per measured location. Non-outage rows hold
either a received power or a path loss (never both); outage rows hold
neither. LOS-DIFFRACTION rows are real measurements that are excluded from
model fits, since diffraction over terrain edges adds loss the CI model
does not represent. The row rules of the format are one table here
(``_FORMAT``), read by the shared ``_csv`` reader.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .models import CI_ANCHOR_DB, Environment, distance_3d, finite, finite_positive
from ._csv import CsvFormat, checked_csv_rows, finite_rule, read_csv_file
from .simulate import SimulatedDataset, datasets_by_environment

CAMPAIGN_CSV_HEADER = ("location_id", "environment", "d2d_m", "tx_height_m",
                       "rx_height_m", "fc_ghz", "p_rx_dbm", "pl_db", "outage")
CAMPAIGN_TAGS = ("LOS", "NLOS", "LOS-DIFFRACTION")
DIFFRACTION_TAG = "LOS-DIFFRACTION"
_HEADER_MESSAGE = "missing or invalid header; expected " + ",".join(CAMPAIGN_CSV_HEADER)


class CampaignFormatError(ValueError):
    """A campaign CSV violates the required header or row format."""


class NoCoverageError(ValueError):
    """The loss budget is below the 1 m anchor loss; no range exists."""


class BelowSensitivityWarning(UserWarning):
    """A computed path loss exceeds the system's measurable ceiling."""


@dataclass(frozen=True)
class LinkBudget:
    """Sounder link budget in dBm/dBi/dB terms."""

    tx_power_dbm: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    max_measurable_pl_db: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if finite(name, value).ndim:
                raise ValueError(f"{name} must be a number")
        finite_positive("max_measurable_pl_db", self.max_measurable_pl_db)

    @property
    def eirp_dbm(self) -> float:
        return self.tx_power_dbm + self.tx_gain_dbi


# 73.5 GHz CW sounder: 14.7 dBm into a 27 dBi horn (41.7 dBm EIRP), 27 dBi
# receive horn, 190 dB maximum measurable path loss.
DEFAULT_BUDGET = LinkBudget(tx_power_dbm=14.7, tx_gain_dbi=27.0,
                            rx_gain_dbi=27.0, max_measurable_pl_db=190.0)


_RECORD_NUMBERS = ("d2d_m", "tx_height_m", "rx_height_m", "fc_ghz", "p_rx_dbm", "pl_db")
# Each text field is one character wider than its longest accepted value
# (LOS-DIFFRACTION, false, a float repr), so a longer one, cut, never passes;
# a power that fills its width goes to the row loop, which gives a repr of at
# most 24 characters. The location id is unused.
_POWER_WIDTH = 25
_BLOCK_DTYPE = np.dtype([
    ("location_id", "U1"), ("environment", "U16"), ("d2d_m", "f8"), ("tx_height_m", "f8"),
    ("rx_height_m", "f8"), ("fc_ghz", "f8"), ("p_rx_dbm", f"U{_POWER_WIDTH}"),
    ("pl_db", f"U{_POWER_WIDTH}"), ("outage", "U6")])


class MeasurementRecord(NamedTuple):
    """One campaign row in header order, as ``parse_campaign_csv`` returns it."""

    location_id: str
    environment_tag: str
    d2d_m: float
    tx_height_m: float
    rx_height_m: float
    fc_ghz: float
    p_rx_dbm: float | None
    pl_db: float | None
    outage: bool


@dataclass(frozen=True)
class ConversionSummary:
    """Counts from converting campaign rows to fit datasets."""

    total: int
    converted: int
    outage_dropped: int
    diffraction_dropped: int


def pathloss_from_power(budget: LinkBudget, p_rx_dbm):
    """Path loss implied by a received power (a scalar or an array): EIRP + rx gain - p_rx.

    Warns with one BelowSensitivityWarning per loss over the budget's
    measurable ceiling, in order; such a value could not actually have been
    measured. Raises ValueError on a non-finite ``p_rx_dbm``, and
    OverflowError, before any warning, where the budget gives a loss past
    the float range. A scalar gives a float.
    """
    p_rx = finite("p_rx_dbm", p_rx_dbm)
    with np.errstate(over="ignore"):  # a loss past the float range is inf, reported below
        pl = np.atleast_1d((budget.eirp_dbm + budget.rx_gain_dbi) - p_rx)
    if not np.isfinite(pl).all():
        raise OverflowError("the result overflows a float")
    for loss in pl[pl > budget.max_measurable_pl_db].tolist():
        warnings.warn(
            f"path loss {loss:.1f} dB exceeds the {budget.max_measurable_pl_db:g} dB "
            "measurable ceiling (outage-equivalent)",
            BelowSensitivityWarning,
            stacklevel=2,
        )
    return pl if p_rx.ndim else float(pl[0])


def _view(block) -> dict:
    """A campaign block's columns by name, the numbers copied out of it once,
    with a mask per literal of a text field (``view["outage", "true"]``) and
    each power parsed once (an empty one reads as 0) and marked in ``given``;
    ValueError where a power fills its ``np.loadtxt`` width, which may have cut it."""
    view = {name: block[name] for name in CAMPAIGN_CSV_HEADER}
    view.update(zip(_RECORD_NUMBERS[:4], np.stack([block[n] for n in _RECORD_NUMBERS[:4]])))
    for name, literals in (("outage", ("true", "false")), ("environment", CAMPAIGN_TAGS)):
        view.update(((name, text), block[name] == text) for text in literals)
    view["given"] = []
    for name in _RECORD_NUMBERS[4:]:
        text = block[name]
        if text.dtype.kind == "U" and (np.char.str_len(text) >= _POWER_WIDTH).any():
            raise ValueError(f"{name} may have been cut")
        has = text != ""
        view[name] = np.zeros(len(block))
        view[name][has] = text[has].astype(float)  # parsed as float() parses it
        view["given"].append(has)
    return view


def _positive(name: str) -> tuple:
    """The rule that a row's float ``name`` is positive."""
    return lambda view: ~(view[name] > 0.0), lambda row: f"{name} must be positive"


def _fitted(view) -> np.ndarray:
    """The rows a fit takes: neither an outage nor LOS-DIFFRACTION."""
    return view["outage", "false"] & ~view["environment", DIFFRACTION_TAG]


def _slant_overflows(view) -> np.ndarray:
    """The fitted rows whose slant distance sum, as ``distance_3d`` forms it, overflows."""
    d2d, dh = view["d2d_m"], view["tx_height_m"] - view["rx_height_m"]
    return _fitted(view) & ~(d2d * d2d + dh * dh < np.inf)


# The campaign row rules in report order, after the field count and the float parses.
_FORMAT = CsvFormat(_BLOCK_DTYPE, CampaignFormatError, _HEADER_MESSAGE, (
    (lambda view: ~(view["outage", "true"] | view["outage", "false"]),
     lambda row: f"outage must be 'true' or 'false', got {row['outage']!r}"),
    (lambda view: ~np.logical_or.reduce([view["environment", tag] for tag in CAMPAIGN_TAGS]),
     lambda row: f"environment {row['environment']!r} not one of {'/'.join(CAMPAIGN_TAGS)}"),
    *map(finite_rule, _RECORD_NUMBERS),
    *map(_positive, _RECORD_NUMBERS[:4]),
    (lambda view: view["outage", "false"] & (view["given"][0] == view["given"][1]),
     lambda row: "exactly one of p_rx_dbm/pl_db required on a non-outage row, "
                 f"got {(row['p_rx_dbm'] != '') + (row['pl_db'] != '')}"),
    (_slant_overflows, lambda row: "slant distance overflows a float"),
), _view, optional=_RECORD_NUMBERS[4:])


def parse_campaign_csv(text: str) -> list[MeasurementRecord]:
    """Campaign CSV text as checked records; errors as ``read_campaign_csv``.

    Kept for the benchmark self-test, which reads records, until it moves
    to ``read_campaign_csv`` (ROADMAP item 1).
    """
    return [MeasurementRecord(*fields, p_rx if has_p_rx else None, pl if has_pl else None,
                              outage == "true")
            for view in checked_csv_rows(io.StringIO(text), _FORMAT)
            for *fields, p_rx, pl, outage, has_p_rx, has_pl in zip(
                *(view[name].tolist() for name in CAMPAIGN_CSV_HEADER), *view["given"])]


def _take_blocks(views, rows: int):
    """``(columns, from_power, nlos, outage_dropped, diffraction_dropped)`` of checked
    campaign views.

    The columns, sized once, hold each fitted row's d2d_m, heights, fc_ghz and
    path loss, or its received power where ``from_power`` is set.
    """
    columns = np.empty((5, rows))
    from_power, nlos = np.empty(rows, dtype=bool), np.empty(rows, dtype=bool)
    n = outage_dropped = diffraction_dropped = 0
    for view in views:
        fitted = _fitted(view)
        end = n + int(np.count_nonzero(fitted))
        for column, name in zip(columns, _RECORD_NUMBERS[:4]):
            column[n:end] = view[name][fitted]
        given_pl = view["given"][1]
        columns[4, n:end] = np.where(given_pl, view["pl_db"], view["p_rx_dbm"])[fitted]
        from_power[n:end] = ~given_pl[fitted]
        nlos[n:end] = view["environment", "NLOS"][fitted]
        outage_dropped += int(np.count_nonzero(view["outage", "true"]))
        diffraction_dropped += int(np.count_nonzero(view["environment", DIFFRACTION_TAG]
                                                    & view["outage", "false"]))
        n = end
    return columns[:, :n], from_power[:n], nlos[:n], outage_dropped, diffraction_dropped


def read_campaign_csv(path, budget: LinkBudget
                      ) -> tuple[dict[Environment, SimulatedDataset], ConversionSummary]:
    """Read a campaign CSV into one fit dataset per environment, LOS first.

    A plain file (exact header, no quote or NUL) whose rows all pass is split
    into fields 8192 rows at a time by ``np.loadtxt``, any other file one row
    at a time by the csv module; both hold the rows to the one rule table,
    ``_FORMAT``. No per-row object is kept.
    Outage and LOS-DIFFRACTION rows are dropped (counted in the summary,
    never fitted). Path loss comes from the row directly or from its
    received power via the link budget; the fit distance is the 3D slant
    distance from the row's heights. The datasets carry no seed or
    sampling mode. Raises CampaignFormatError on a wrong header, or with one
    ``line N:`` message per bad row, N the physical line it starts on (header: 1),
    and OverflowError where a budget near the float range gives a loss past it.
    """
    (d2d, tx_h, rx_h, fc, pl), from_power, nlos, outage_dropped, diffraction_dropped = (
        read_csv_file(path, _FORMAT, _take_blocks, encoding="utf-8"))
    # Converted only once every row has passed, so a rejected file warns of nothing.
    pl[from_power] = pathloss_from_power(budget, pl[from_power])
    d3d = distance_3d(d2d, tx_h, rx_h)  # cannot overflow: the rows passed the row rules
    summary = ConversionSummary(len(pl) + outage_dropped + diffraction_dropped, len(pl),
                                outage_dropped, diffraction_dropped)
    return datasets_by_environment((fc, d2d, d3d, pl), nlos), summary


def max_range(fc_ghz: float, ple: float, max_pl_db: float) -> float:
    """Distance in meters at which the mean CI path loss reaches max_pl_db.

    Inverts the mean CI model only: no shadow fading margin and no
    atmospheric/rain attenuation, so mmWave results at hundreds of km are
    free-space-like upper bounds, not link predictions.
    """
    # Python floats of the gated values: numpy scalar maths would warn of an overflow.
    fc_ghz, ple = float(finite_positive("fc_ghz", fc_ghz)), float(finite_positive("ple", ple))
    max_pl_db = float(finite("max_pl_db", max_pl_db))
    anchor = CI_ANCHOR_DB + 20.0 * math.log10(fc_ghz)
    if max_pl_db <= anchor:
        raise NoCoverageError(
            f"max path loss {max_pl_db:g} dB does not exceed the "
            f"{anchor:.2f} dB anchor loss at 1 m")
    try:
        meters = 10.0 ** ((max_pl_db - anchor) / (10.0 * ple))
    except OverflowError:
        meters = math.inf
    if meters < math.inf:  # an infinite exponent gives inf without raising
        return meters
    raise OverflowError(f"the range at {max_pl_db:g} dB and n = {ple:g} overflows a float")


def bundled_campaign_path() -> Path:
    """Path of the bundled synthetic 73.5 GHz campaign fixture.

    The fixture is generated data, not field measurements: CI models with
    the published 73.5 GHz rural coefficients (LOS n=2.16 sigma=1.7 dB,
    NLOS n=2.75 sigma=6.7 dB) sampled at realistic location counts and
    distance spans (14 LOS from the 33 m calibration distance to 10.8 km,
    17 NLOS from 3.4 to 10.6 km, 2 diffraction-affected LOS, 5 outages).
    """
    return Path(str(resources.files("rmapath") / "data" / "synthetic_campaign_73ghz.csv"))
