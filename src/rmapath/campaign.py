"""Measurement campaign ingestion and link budget arithmetic.

Campaign CSVs carry one row per measured location. Non-outage rows hold
either a received power or a path loss (never both); outage rows hold
neither. LOS-DIFFRACTION rows are real measurements that are excluded from
model fits, since diffraction over terrain edges adds loss the CI model
does not represent. The row rules of the format are one table here
(``_FORMAT``), read by the shared ``_csv`` reader.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .models import (Environment, finite, finite_positive, finite_result, float_errors,
                     hold_floats, slant)
from ._csv import CsvFormat, checked_csv_rows, finite_rule, read_csv_file
from .simulate import SimulatedDataset, datasets_by_environment

CAMPAIGN_TAGS = ("LOS", "NLOS", "LOS-DIFFRACTION")
DIFFRACTION_TAG = "LOS-DIFFRACTION"


class CampaignFormatError(ValueError):
    """A campaign CSV violates the required header or row format."""


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
        hold_floats(self, tuple(vars(self)), finite)
        finite_positive("max_measurable_pl_db", self.max_measurable_pl_db)

    @property
    def eirp_dbm(self) -> float:
        return self.tx_power_dbm + self.tx_gain_dbi


# 73.5 GHz CW sounder: 14.7 dBm into a 27 dBi horn (41.7 dBm EIRP), 27 dBi
# receive horn, 190 dB maximum measurable path loss.
DEFAULT_BUDGET = LinkBudget(tx_power_dbm=14.7, tx_gain_dbi=27.0,
                            rx_gain_dbi=27.0, max_measurable_pl_db=190.0)


_RECORD_NUMBERS = ("d2d_m", "tx_height_m", "rx_height_m", "fc_ghz", "p_rx_dbm", "pl_db")
# The environment and outage are each one character wider than their longest
# accepted value (LOS-DIFFRACTION, false), so a longer one, cut, never passes.
_BLOCK_DTYPE = np.dtype([
    ("location_id", "O"), ("environment", "U16"), ("d2d_m", "f8"), ("tx_height_m", "f8"),
    ("rx_height_m", "f8"), ("fc_ghz", "f8"), ("p_rx_dbm", "O"), ("pl_db", "O"),
    ("outage", "U6")])
CAMPAIGN_CSV_HEADER = _BLOCK_DTYPE.names


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


@float_errors
def pathloss_from_power(budget: LinkBudget, p_rx_dbm):
    """Path loss implied by a received power (a scalar or an array): EIRP + rx gain - p_rx.

    Warns with one BelowSensitivityWarning per loss over the budget's
    measurable ceiling, in order; such a value could not actually have been
    measured. Raises ValueError on a non-finite ``p_rx_dbm``, and
    OverflowError, before any warning, where the budget gives a loss past
    the float range. A scalar gives a float.
    """
    pl = finite_result((budget.eirp_dbm + budget.rx_gain_dbi) - finite("p_rx_dbm", p_rx_dbm))
    for loss in np.extract(pl > budget.max_measurable_pl_db, pl).tolist():
        warnings.warn(
            f"path loss {loss:.1f} dB exceeds the {budget.max_measurable_pl_db:g} dB "
            "measurable ceiling (outage-equivalent)",
            BelowSensitivityWarning,
            stacklevel=3,  # past the float_errors wrapper, at the caller's line
        )
    return pl


@float_errors
def _view(block) -> dict:
    """A campaign block's columns by name, with a mask per literal of a text
    field (``view["outage", "true"]``), the mask of the rows a fit takes
    (``view["kept"]``: neither an outage nor LOS-DIFFRACTION), and each power,
    held whole, parsed once (an empty one reads as 0) and marked in ``given``.
    ``view["d3d_m"]`` is each row's slant distance, as ``distance_3d`` forms it,
    ``view["pl"]`` its path loss, or its received power where ``view["from_power"]``
    is set, and ``view["tally"]`` counts the dropped outage and diffraction rows."""
    view = {name: block[name] for name in CAMPAIGN_CSV_HEADER}
    view["d3d_m"] = slant(view["d2d_m"], view["tx_height_m"], view["rx_height_m"])
    for name, literals in (("outage", ("true", "false")), ("environment", CAMPAIGN_TAGS)):
        view.update(((name, text), block[name] == text) for text in literals)
    view["kept"] = view["outage", "false"] & ~view["environment", DIFFRACTION_TAG]
    view["given"] = []
    for name in _RECORD_NUMBERS[4:]:
        text = block[name]
        has = text != ""
        view[name] = np.zeros(len(block))
        view[name][has] = text[has].astype(float)  # parsed as float() parses it
        view["given"].append(has)
    view["pl"] = np.where(view["given"][1], view["pl_db"], view["p_rx_dbm"])
    view["from_power"] = ~view["given"][1]
    diffraction = view["environment", DIFFRACTION_TAG] & view["outage", "false"]
    view["tally"] = {"outage": int(np.count_nonzero(view["outage", "true"])),
                     "diffraction": int(np.count_nonzero(diffraction))}
    return view


def _positive(name: str) -> tuple:
    """The rule that a row's float ``name`` is positive."""
    return lambda view: ~(view[name] > 0.0), lambda row: f"{name} must be positive"


# The campaign row rules in report order, after the field count and the float parses.
_FORMAT = CsvFormat(_BLOCK_DTYPE, CampaignFormatError, (
    (lambda view: ~(view["outage", "true"] | view["outage", "false"]),
     lambda row: f"outage must be 'true' or 'false', got {row['outage']!r}"),
    (lambda view: ~np.logical_or.reduce([view["environment", tag] for tag in CAMPAIGN_TAGS]),
     lambda row: f"environment {row['environment']!r} not one of {'/'.join(CAMPAIGN_TAGS)}"),
    *map(finite_rule, _RECORD_NUMBERS),
    *map(_positive, _RECORD_NUMBERS[:4]),
    (lambda view: view["outage", "false"] & (view["given"][0] == view["given"][1]),
     lambda row: "exactly one of p_rx_dbm/pl_db required on a non-outage row, "
                 f"got {(row['p_rx_dbm'] != '') + (row['pl_db'] != '')}"),
    (lambda view: view["kept"] & ~(view["d3d_m"] < np.inf),
     lambda row: "slant distance overflows a float"),
), _view, (("d2d_m", float), ("d3d_m", float), ("fc_ghz", float), ("pl", float),
            ("from_power", bool), (("environment", "NLOS"), bool)), optional=_RECORD_NUMBERS[4:])


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


def read_campaign_csv(path, budget: LinkBudget
                      ) -> tuple[dict[Environment, SimulatedDataset], ConversionSummary]:
    """Read a campaign CSV into one fit dataset per environment, LOS first.

    A plain file (exact header, no quote or NUL) whose rows all pass is split
    into fields 8192 rows at a time by ``np.loadtxt``, any other file one row
    at a time by the csv module; both read the location id and the powers
    whole and hold the rows to the one rule table, ``_FORMAT``. No per-row
    object is kept.
    Outage and LOS-DIFFRACTION rows are dropped (counted in the summary,
    never fitted). Path loss comes from the row directly or from its
    received power via the link budget; the fit distance is the 3D slant
    distance from the row's heights, formed in the view the row rules read.
    The datasets carry no seed or sampling mode. Raises CampaignFormatError on a
    wrong header, or with one ``line N:`` message per bad row, N the physical line
    it starts on (header: 1), and OverflowError where a budget near the float
    range gives a loss past it.
    """
    (d2d, d3d, fc, pl, from_power, nlos), dropped = read_csv_file(path, _FORMAT)
    # Converted only once every row has passed, so a rejected file warns of nothing.
    pl[from_power] = pathloss_from_power(budget, pl[from_power])
    summary = ConversionSummary(len(pl) + dropped.total(), len(pl), dropped["outage"],
                                dropped["diffraction"])
    return datasets_by_environment((fc, d2d, d3d, pl), nlos), summary


def bundled_campaign_path() -> Path:
    """Path of the bundled synthetic 73.5 GHz campaign fixture.

    The fixture is generated data, not field measurements: CI models with
    the published 73.5 GHz rural coefficients (LOS n=2.16 sigma=1.7 dB,
    NLOS n=2.75 sigma=6.7 dB) sampled at realistic location counts and
    distance spans (14 LOS from the 33 m calibration distance to 10.8 km,
    17 NLOS from 3.4 to 10.6 km, 2 diffraction-affected LOS, 5 outages).
    """
    return Path(str(resources.files("rmapath") / "data" / "synthetic_campaign_73ghz.csv"))
