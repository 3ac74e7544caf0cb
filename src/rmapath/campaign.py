"""Measurement campaign ingestion, link budget arithmetic, and coverage range.

Campaign CSVs carry one row per measured location. Non-outage rows hold
either a received power or a path loss (never both); outage rows hold
neither. LOS-DIFFRACTION rows are real measurements that are excluded from
model fits, since diffraction over terrain edges adds loss the CI model
does not represent.
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
from .simulate import SimulatedDataset, checked_csv_rows, datasets_by_environment, read_csv_file

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


def _parse_row(row: list[str]) -> tuple:
    """The checked fields of one campaign CSV row, in header order: a power
    is the ``repr`` of its float or empty, outage is text, the rest floats.

    Raises ValueError naming the first rule broken, in report order: field
    count, outage literal, float parses, tag, finite, positive, power count,
    and on a fitted row the slant distance sum ``distance_3d`` forms overflowing.
    """
    if len(row) != len(CAMPAIGN_CSV_HEADER):
        raise ValueError(f"expected {len(CAMPAIGN_CSV_HEADER)} fields, got {len(row)}")
    (location_id, tag, d2d, tx_h, rx_h, fc, p_rx, pl, outage) = row
    if outage not in ("true", "false"):
        raise ValueError(f"outage must be 'true' or 'false', got {outage!r}")
    numbers = (float(d2d), float(tx_h), float(rx_h), float(fc),
               None if p_rx == "" else float(p_rx), None if pl == "" else float(pl))
    if tag not in CAMPAIGN_TAGS:
        raise ValueError(f"environment {tag!r} not one of {'/'.join(CAMPAIGN_TAGS)}")
    d2d, tx_h, rx_h, fc, p_rx, pl = numbers
    present = (p_rx is not None) + (pl is not None)
    dh = tx_h - rx_h
    inf = math.inf
    # Cheap test first; walk the rules in report order only on failure.
    if not (0.0 < d2d < inf and 0.0 < tx_h < inf and 0.0 < rx_h < inf and 0.0 < fc < inf
            and (p_rx is None or -inf < p_rx < inf) and (pl is None or -inf < pl < inf)
            and (outage == "true" or tag == DIFFRACTION_TAG or d2d * d2d + dh * dh < inf)):
        for name, value in zip(_RECORD_NUMBERS, numbers):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, value in zip(_RECORD_NUMBERS[:4], numbers):
            if not value > 0:
                raise ValueError(f"{name} must be positive")
        if present == 1:  # else the power count is the first rule broken
            raise ValueError("slant distance overflows a float")
    if outage == "false" and present != 1:
        raise ValueError(
            "exactly one of p_rx_dbm/pl_db required on a non-outage row, "
            f"got {present}")
    return (location_id, tag, d2d, tx_h, rx_h, fc, "" if p_rx is None else repr(p_rx),
            "" if pl is None else repr(pl), outage)


def parse_campaign_csv(text: str) -> list[MeasurementRecord]:
    """Campaign CSV text as checked records; errors as ``read_campaign_csv``.

    Kept for the benchmark self-test, which reads records, until it moves
    to ``read_campaign_csv`` (ROADMAP item 1).
    """
    rows = checked_csv_rows(io.StringIO(text), CAMPAIGN_CSV_HEADER,
                            CampaignFormatError(_HEADER_MESSAGE), _parse_row)
    return [MeasurementRecord(*fields, float(p_rx) if p_rx else None,
                              float(pl) if pl else None, outage == "true")
            for *fields, p_rx, pl, outage in rows]


def _take_blocks(blocks, rows: int):
    """``(columns, from_power, nlos, outage_dropped, diffraction_dropped)`` of campaign blocks.

    The columns, sized once, hold each fitted row's d2d_m, heights, fc_ghz and
    path loss, or its received power where ``from_power`` is set; ValueError
    where a row may break a row rule.
    """
    columns = np.empty((5, rows))
    from_power, nlos = np.empty(rows, dtype=bool), np.empty(rows, dtype=bool)
    n = outage_dropped = diffraction_dropped = 0
    for block in blocks:
        tag, outage = block["environment"], block["outage"] == "true"
        diffraction = tag == DIFFRACTION_TAG
        fitted = ~outage & ~diffraction
        numbers = np.stack([block[name] for name in _RECORD_NUMBERS[:4]])
        texts = [block[name] for name in _RECORD_NUMBERS[4:]]
        given = [text != "" for text in texts]
        powers = np.zeros((2, len(block)))  # an empty power reads as 0
        for value, text, has in zip(powers, texts, given):
            value[has] = text[has].astype(float)  # parsed as float() parses it
        end = n + int(np.count_nonzero(fitted))
        columns[:4, n:end] = numbers[:, fitted]
        columns[4, n:end] = np.where(given[1], powers[1], powers[0])[fitted]
        d2d, dh = columns[0, n:end], columns[1, n:end] - columns[2, n:end]
        if not ((outage | (block["outage"] == "false")).all()
                and (diffraction | (tag == "LOS") | (tag == "NLOS")).all()
                and all((np.char.str_len(text) < _POWER_WIDTH).all() for text in texts)
                and ((0.0 < numbers) & (numbers < np.inf)).all() and np.isfinite(powers).all()
                and (outage | (given[0] != given[1])).all()
                and (d2d * d2d + dh * dh < np.inf).all()):
            raise ValueError("a row breaks a row rule")
        from_power[n:end] = ~given[1][fitted]
        nlos[n:end] = tag[fitted] == "NLOS"
        outage_dropped += int(np.count_nonzero(outage))
        diffraction_dropped += int(np.count_nonzero(diffraction & ~outage))
        n = end
    return columns[:, :n], from_power[:n], nlos[:n], outage_dropped, diffraction_dropped


def read_campaign_csv(path, budget: LinkBudget
                      ) -> tuple[dict[Environment, SimulatedDataset], ConversionSummary]:
    """Read a campaign CSV into one fit dataset per environment, LOS first.

    A plain file (exact header, no quote or NUL) whose rows all pass is split
    into fields 8192 rows at a time by ``np.loadtxt``, any other file one row
    at a time by the csv module, and only that row loop raises row errors.
    No per-row object is kept.
    Outage and LOS-DIFFRACTION rows are dropped (counted in the summary,
    never fitted). Path loss comes from the row directly or from its
    received power via the link budget; the fit distance is the 3D slant
    distance from the row's heights. The datasets carry no seed or
    sampling mode. Raises CampaignFormatError on a wrong header, or with one
    ``line N:`` message per bad row, N the physical line it starts on (header: 1),
    and OverflowError where a budget near the float range gives a loss past it.
    """
    (d2d, tx_h, rx_h, fc, pl), from_power, nlos, outage_dropped, diffraction_dropped = (
        read_csv_file(path, CAMPAIGN_CSV_HEADER, CampaignFormatError(_HEADER_MESSAGE),
                      _BLOCK_DTYPE, _parse_row, _take_blocks, encoding="utf-8"))
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
    finite_positive("fc_ghz", fc_ghz)
    finite_positive("ple", ple)
    finite("max_pl_db", max_pl_db)
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
