"""Measurement campaign ingestion, link budget arithmetic, and coverage range.

Campaign CSVs carry one row per measured location. Non-outage rows hold
either a received power or a path loss (never both); outage rows hold
neither. LOS-DIFFRACTION rows are real measurements that are excluded from
model fits, since diffraction over terrain edges adds loss the CI model
does not represent.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .models import CI_ANCHOR_DB, Environment, distance_3d
from .simulate import SimulatedDataset

CAMPAIGN_CSV_HEADER = ("location_id", "environment", "d2d_m", "tx_height_m",
                       "rx_height_m", "fc_ghz", "p_rx_dbm", "pl_db", "outage")
CAMPAIGN_TAGS = ("LOS", "NLOS", "LOS-DIFFRACTION")
DIFFRACTION_TAG = "LOS-DIFFRACTION"


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
        if not self.max_measurable_pl_db > 0:
            raise ValueError("max_measurable_pl_db must be positive")

    @property
    def eirp_dbm(self) -> float:
        return self.tx_power_dbm + self.tx_gain_dbi


# 73.5 GHz CW sounder: 14.7 dBm into a 27 dBi horn (41.7 dBm EIRP), 27 dBi
# receive horn, 190 dB maximum measurable path loss.
DEFAULT_BUDGET = LinkBudget(tx_power_dbm=14.7, tx_gain_dbi=27.0,
                            rx_gain_dbi=27.0, max_measurable_pl_db=190.0)


@dataclass(frozen=True)
class MeasurementRecord:
    """One campaign row, validated on construction."""

    location_id: str
    environment_tag: str
    d2d_m: float
    tx_height_m: float
    rx_height_m: float
    fc_ghz: float
    p_rx_dbm: float | None = None
    pl_db: float | None = None
    outage: bool = False

    def __post_init__(self):
        if self.environment_tag not in CAMPAIGN_TAGS:
            raise ValueError(
                f"environment {self.environment_tag!r} not one of {'/'.join(CAMPAIGN_TAGS)}")
        for name in ("d2d_m", "tx_height_m", "rx_height_m", "fc_ghz", "p_rx_dbm", "pl_db"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("d2d_m", "tx_height_m", "rx_height_m", "fc_ghz"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        present = (self.p_rx_dbm is not None) + (self.pl_db is not None)
        if not self.outage and present != 1:
            raise ValueError(
                "exactly one of p_rx_dbm/pl_db required on a non-outage row, "
                f"got {present}")


@dataclass(frozen=True)
class ConversionSummary:
    """Counts from converting records to fit datasets."""

    total: int
    converted: int
    outage_dropped: int
    diffraction_dropped: int


def pathloss_from_power(budget: LinkBudget, p_rx_dbm: float) -> float:
    """Path loss implied by a received power: EIRP + rx gain - p_rx.

    Warns with BelowSensitivityWarning when the result exceeds the budget's
    measurable ceiling; such a value could not actually have been measured.
    """
    pl = budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi - p_rx_dbm
    if pl > budget.max_measurable_pl_db:
        warnings.warn(
            f"path loss {pl:.1f} dB exceeds the {budget.max_measurable_pl_db:g} dB "
            "measurable ceiling (outage-equivalent)",
            BelowSensitivityWarning,
            stacklevel=2,
        )
    return pl


def received_power(budget: LinkBudget, pl_db: float) -> float:
    """Inverse of ``pathloss_from_power``: received power at a given loss."""
    return budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi - pl_db


def _parse_optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


def _parse_row(row: list[str]) -> MeasurementRecord:
    if len(row) != len(CAMPAIGN_CSV_HEADER):
        raise ValueError(f"expected {len(CAMPAIGN_CSV_HEADER)} fields, got {len(row)}")
    (location_id, environment, d2d, tx_h, rx_h, fc, p_rx, pl, outage) = row
    if outage not in ("true", "false"):
        raise ValueError(f"outage must be 'true' or 'false', got {outage!r}")
    return MeasurementRecord(
        location_id=location_id,
        environment_tag=environment,
        d2d_m=float(d2d),
        tx_height_m=float(tx_h),
        rx_height_m=float(rx_h),
        fc_ghz=float(fc),
        p_rx_dbm=_parse_optional_float(p_rx),
        pl_db=_parse_optional_float(pl),
        outage=outage == "true",
    )


def parse_campaign_csv(data: bytes | str) -> list[MeasurementRecord]:
    """Parse campaign CSV content into validated records.

    Raises CampaignFormatError on a missing/incorrect header, and with one
    line-numbered message per offending row when any row fails validation
    (the header is line 1).
    """
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CAMPAIGN_CSV_HEADER:
        raise CampaignFormatError(
            "missing or invalid header; expected " + ",".join(CAMPAIGN_CSV_HEADER))
    records: list[MeasurementRecord] = []
    errors: list[str] = []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            records.append(_parse_row(row))
        except ValueError as exc:
            errors.append(f"line {line}: {exc}")
    if errors:
        raise CampaignFormatError("\n".join(errors))
    return records


def load_campaign_csv(path) -> list[MeasurementRecord]:
    return parse_campaign_csv(Path(path).read_bytes())


def _format_optional(value: float | None) -> str:
    return "" if value is None else repr(value)


def format_campaign_csv(records: list[MeasurementRecord]) -> str:
    """Serialize records back to campaign CSV (parse/format round-trips)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CAMPAIGN_CSV_HEADER)
    for r in records:
        writer.writerow([
            r.location_id, r.environment_tag, repr(r.d2d_m), repr(r.tx_height_m),
            repr(r.rx_height_m), repr(r.fc_ghz), _format_optional(r.p_rx_dbm),
            _format_optional(r.pl_db), "true" if r.outage else "false",
        ])
    return buf.getvalue()


def write_campaign_csv(path, records: list[MeasurementRecord]) -> None:
    with open(path, "w", newline="") as f:
        f.write(format_campaign_csv(records))


def records_to_samples(records: list[MeasurementRecord], budget: LinkBudget
                       ) -> tuple[dict[Environment, SimulatedDataset], ConversionSummary]:
    """Convert campaign records into one fit dataset per environment, LOS first.

    Outage and LOS-DIFFRACTION records are dropped (counted in the summary,
    never fitted). Path loss comes from the record directly or from its
    received power via the link budget; the fit distance is the 3D slant
    distance from the row's heights. The datasets carry no seed or
    sampling mode.
    """
    kept: list[MeasurementRecord] = []
    outage_dropped = diffraction_dropped = 0
    for r in records:
        if r.outage:
            outage_dropped += 1
        elif r.environment_tag == DIFFRACTION_TAG:
            diffraction_dropped += 1
        else:
            kept.append(r)
    tags = np.array([r.environment_tag for r in kept], dtype=str)
    fc = np.array([r.fc_ghz for r in kept], dtype=float)
    d2d = np.array([r.d2d_m for r in kept], dtype=float)
    d3d = distance_3d(d2d, np.array([r.tx_height_m for r in kept], dtype=float),
                      np.array([r.rx_height_m for r in kept], dtype=float))
    pl = np.array([r.pl_db if r.pl_db is not None
                   else pathloss_from_power(budget, r.p_rx_dbm) for r in kept], dtype=float)
    datasets = {}
    for env in Environment:
        mask = tags == env.value
        if mask.any():
            datasets[env] = SimulatedDataset(env, fc[mask], d2d[mask], d3d[mask], pl[mask],
                                             seed=None, sampling_mode=None)
    summary = ConversionSummary(
        total=len(records),
        converted=len(kept),
        outage_dropped=outage_dropped,
        diffraction_dropped=diffraction_dropped,
    )
    return datasets, summary


def max_range(fc_ghz: float, ple: float, max_pl_db: float) -> float:
    """Distance in meters at which the mean CI path loss reaches max_pl_db.

    Inverts the mean CI model only: no shadow fading margin and no
    atmospheric/rain attenuation, so mmWave results at hundreds of km are
    free-space-like upper bounds, not link predictions.
    """
    if not 0 < fc_ghz < math.inf:
        raise ValueError("fc_ghz must be finite and positive")
    if not 0 < ple < math.inf:
        raise ValueError("ple must be finite and positive")
    if not math.isfinite(max_pl_db):
        raise ValueError("max_pl_db must be finite")
    anchor = CI_ANCHOR_DB + 20.0 * math.log10(fc_ghz)
    if max_pl_db <= anchor:
        raise NoCoverageError(
            f"max path loss {max_pl_db:g} dB does not exceed the "
            f"{anchor:.2f} dB anchor loss at 1 m")
    try:
        return 10.0 ** ((max_pl_db - anchor) / (10.0 * ple))
    except OverflowError:
        raise OverflowError(f"the range at {max_pl_db:g} dB and n = {ple:g} "
                            "overflows a float") from None


def bundled_campaign_path() -> Path:
    """Path of the bundled synthetic 73.5 GHz campaign fixture.

    The fixture is generated data, not field measurements: CI models with
    the published 73.5 GHz rural coefficients (LOS n=2.16 sigma=1.7 dB,
    NLOS n=2.75 sigma=6.7 dB) sampled at realistic location counts and
    distance spans (14 LOS from the 33 m calibration distance to 10.8 km,
    17 NLOS from 3.4 to 10.6 km, 2 diffraction-affected LOS, 5 outages).
    """
    return Path(str(resources.files("rmapath") / "data" / "synthetic_campaign_73ghz.csv"))
