"""Seeded input generators. The same seed gives the same inputs.

Generators use numpy only, never rmapath, so the program under test sees
nothing but the files and values produced here. Expected values that the
checks need (the generator's own counts and a reference CI fit) are
computed from the generated numbers, not from the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``paper`` is the published setup; ``tiny`` is for smoke tests."""

    samples_per_frequency: int
    campaign_rows: int
    curve_steps: int
    query_stream: int


SCALES = {
    "paper": Scale(samples_per_frequency=50_000, campaign_rows=200_000,
                   curve_steps=100_000, query_stream=262_144),
    "tiny": Scale(samples_per_frequency=500, campaign_rows=2_000,
                  curve_steps=1_000, query_stream=5_000),
}

# Link budget of the 73.5 GHz rural campaign (dBm, dBi, dBi, dB); passed to
# the CLI explicitly so no default or RMA_* override is involved.
TX_POWER_DBM = 14.7
TX_GAIN_DBI = 27.0
RX_GAIN_DBI = 27.0
MAX_PL_DB = 190.0
CAMPAIGN_FC_GHZ = 73.5

# CI exponents and shadow fading of the published 73.5 GHz rural fits.
CAMPAIGN_PLE = {"LOS": 2.16, "NLOS": 2.75}
CAMPAIGN_SIGMA_DB = {"LOS": 1.7, "NLOS": 6.7}
OUTAGE_SHARE = 0.10
DIFFRACTION_SHARE = 0.05
# Highest generated path loss: below the 190 dB ceiling with room for the
# 0.01 dB rounding of received power.
CAMPAIGN_PL_CAP_DB = 189.0

# Link queries: frequencies inside the CI span, antenna heights inside the
# RMa applicability ranges, and the TR 38.900 CI recast exponents.
QUERY_FREQS_GHZ = (0.9, 2.0, 3.5, 6.0, 15.0, 28.0, 38.0, 60.0, 73.5, 100.0)
QUERY_HEIGHTS_M = ((35.0, 1.5), (25.0, 1.5), (60.0, 2.0))
QUERY_PLE = {"LOS": 2.31, "NLOS": 3.04}
QUERY_D2D_SPAN_M = {"LOS": (10.0, 10_000.0), "NLOS": (10.0, 5_000.0)}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, stream])


def op_seed(seed: int, k: int) -> int:
    """Program seed for operation k of a run (an unsigned 64-bit value)."""
    return (seed * 1_000_003 + k) % 2**64


def campaign_csv(seed: int, rows: int, header: tuple[str, ...]):
    """Synthetic campaign CSV text and the values a correct fit must give.

    Rows mix LOS and NLOS, path loss and received power columns, about 10 %
    outages and about 5 % LOS-DIFFRACTION rows; every path loss is below
    the measurable ceiling. Values are rounded before they are written, so
    the written text parses back to exactly the numbers used below.
    """
    rng = _rng(seed, 2)
    draw = rng.random(rows)
    outage = draw < OUTAGE_SHARE
    diffraction = (draw >= OUTAGE_SHARE) & (draw < OUTAGE_SHARE + DIFFRACTION_SHARE)
    nlos = (~outage & ~diffraction & (rng.random(rows) < 0.5)) | (
        outage & (rng.random(rows) < 0.5))
    d2d = np.where(nlos, 10.0 ** rng.uniform(math.log10(2_000.0), math.log10(11_000.0), rows),
                   10.0 ** rng.uniform(math.log10(30.0), math.log10(11_000.0), rows))
    d2d = np.round(d2d, 1)
    tx_h = np.round(rng.uniform(30.0, 150.0, rows), 1)
    rx_h = np.round(rng.uniform(1.5, 2.5, rows), 2)
    d3d = np.sqrt(d2d * d2d + (tx_h - rx_h) ** 2)
    ple = np.where(nlos, CAMPAIGN_PLE["NLOS"], CAMPAIGN_PLE["LOS"])
    sigma = np.where(nlos, CAMPAIGN_SIGMA_DB["NLOS"], CAMPAIGN_SIGMA_DB["LOS"])
    pl = (reference.CI_ANCHOR_DB + 10.0 * ple * np.log10(d3d)
          + 20.0 * math.log10(CAMPAIGN_FC_GHZ) + rng.normal(0.0, 1.0, rows) * sigma)
    pl = np.where(diffraction, pl + rng.uniform(15.0, 25.0, rows), pl)
    pl = np.round(np.minimum(pl, CAMPAIGN_PL_CAP_DB), 2)
    as_power = rng.random(rows) < 0.5
    p_rx = np.round(TX_POWER_DBM + TX_GAIN_DBI + RX_GAIN_DBI - pl, 2)

    tags = np.where(diffraction, "LOS-DIFFRACTION", np.where(nlos, "NLOS", "LOS"))
    columns = {
        "location_id": [f"R{i:06d}" for i in range(rows)],
        "environment": tags.tolist(),
        "d2d_m": [repr(v) for v in d2d.tolist()],
        "tx_height_m": [repr(v) for v in tx_h.tolist()],
        "rx_height_m": [repr(v) for v in rx_h.tolist()],
        "fc_ghz": [repr(CAMPAIGN_FC_GHZ)] * rows,
        "p_rx_dbm": ["" if o or not p else repr(v)
                     for o, p, v in zip(outage.tolist(), as_power.tolist(), p_rx.tolist())],
        "pl_db": ["" if o or p else repr(v)
                  for o, p, v in zip(outage.tolist(), as_power.tolist(), pl.tolist())],
        "outage": ["true" if o else "false" for o in outage.tolist()],
    }
    unknown = set(header) - set(columns)
    if unknown:
        raise ValueError(f"campaign header has columns the generator lacks: {sorted(unknown)}")
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*(columns[name] for name in header)))
    text = "\n".join(lines) + "\n"

    # The program derives path loss from received power with the budget.
    pl_fitted = np.where(as_power, TX_POWER_DBM + TX_GAIN_DBI + RX_GAIN_DBI - p_rx, pl)
    fitted = ~outage & ~diffraction
    fits = {}
    for env, mask in (("LOS", fitted & ~nlos), ("NLOS", fitted & nlos)):
        fits[env] = reference.ci_fit(np.full(int(mask.sum()), CAMPAIGN_FC_GHZ),
                                     d3d[mask], pl_fitted[mask])
    expected = {
        "rows": rows,
        "outage": int(outage.sum()),
        "diffraction": int(diffraction.sum()),
        "converted": int(fitted.sum()),
        "fits": fits,
    }
    return text, expected


def query_stream(seed: int, count: int) -> dict[str, np.ndarray]:
    """Single-link questions inside the hard spans.

    Each query is an environment, a frequency, an antenna height pair and
    a 2D distance drawn log-uniformly, strictly inside the 2D span and
    with a 3D distance that also stays inside it.
    """
    rng = _rng(seed, 1)
    nlos = rng.random(count) < 0.5
    freq = rng.integers(0, len(QUERY_FREQS_GHZ), count)
    heights = rng.integers(0, len(QUERY_HEIGHTS_M), count)
    lo = np.log10(QUERY_D2D_SPAN_M["LOS"][0] + 1.0)
    hi = np.where(nlos, QUERY_D2D_SPAN_M["NLOS"][1], QUERY_D2D_SPAN_M["LOS"][1]) - 100.0
    d2d = 10.0 ** (lo + rng.random(count) * (np.log10(hi) - lo))
    return {"nlos": nlos, "freq": freq, "heights": heights, "d2d": d2d}


def curve_heights(seed: int) -> tuple[float, float]:
    """Base station and terminal heights for the breakpoint curve."""
    rng = _rng(seed, 3)
    return (round(float(rng.uniform(10.0, 150.0)), 1),
            round(float(rng.uniform(1.0, 10.0)), 2))
