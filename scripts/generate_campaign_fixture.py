#!/usr/bin/env python3
"""Regenerate the bundled synthetic 73.5 GHz campaign fixture.

The raw field data behind the published 73.5 GHz rural CI coefficients is
not public, so the repo ships a synthetic stand-in: CI models with those
coefficients (LOS n=2.16 sigma=1.7 dB, NLOS n=2.75 sigma=6.7 dB), sampled
at the campaign's location counts and distance spans. LOS rows carry path
loss directly; NLOS rows carry received power so the ingestion pipeline
exercises the link budget conversion. The LOS set includes the 33 m
calibration point.

Usage: python scripts/generate_campaign_fixture.py

The script then runs the acceptance check on what it wrote (the fit of the
file must recover the published exponents) and exits 1 if it fails.
"""

import csv
import sys

import numpy as np

from rmapath import (
    CAMPAIGN_CSV_HEADER,
    DEFAULT_BUDGET,
    RURAL_73GHZ_LOS_PLE,
    RURAL_73GHZ_LOS_SIGMA_DB,
    RURAL_73GHZ_NLOS_PLE,
    RURAL_73GHZ_NLOS_SIGMA_DB,
    bundled_campaign_path,
    ci_pathloss,
    distance_3d,
)
from rmapath.acceptance import check_campaign_fixture_recovery

SEED = 7524
FC_GHZ = 73.5
TX_HEIGHT_M = 110.0  # ridge-top transmitter, height above surrounding terrain
RX_HEIGHT_M = 1.8

LOS_D2D_M = [33.0, 150.0, 320.0, 610.0, 980.0, 1500.0, 2300.0, 3400.0,
             4700.0, 6100.0, 7600.0, 8900.0, 9900.0, 10800.0]
NLOS_D2D_M = [3400.0, 3900.0, 4300.0, 4800.0, 5200.0, 5700.0, 6100.0, 6600.0,
              7000.0, 7500.0, 8000.0, 8400.0, 8900.0, 9300.0, 9800.0, 10200.0,
              10600.0]
DIFFRACTION_D2D_M = [9500.0, 10300.0]
OUTAGE_D2D_M = [5600.0, 7200.0, 8800.0, 10100.0, 11400.0]


def build_rows() -> list[tuple]:
    """The fixture's rows in file order, as campaign CSV fields (None is empty)."""
    rng = np.random.default_rng(SEED)
    rows = []

    for i, d2d in enumerate(LOS_D2D_M, start=1):
        d3d = distance_3d(d2d, TX_HEIGHT_M, RX_HEIGHT_M)
        pl = ci_pathloss(FC_GHZ, d3d, RURAL_73GHZ_LOS_PLE) \
            + rng.normal(0.0, RURAL_73GHZ_LOS_SIGMA_DB)
        rows.append((f"L{i:02d}", "LOS", d2d, TX_HEIGHT_M, RX_HEIGHT_M, FC_GHZ,
                     None, round(pl, 2), "false"))

    budget = DEFAULT_BUDGET
    for i, d2d in enumerate(NLOS_D2D_M, start=1):
        d3d = distance_3d(d2d, TX_HEIGHT_M, RX_HEIGHT_M)
        pl = ci_pathloss(FC_GHZ, d3d, RURAL_73GHZ_NLOS_PLE) \
            + rng.normal(0.0, RURAL_73GHZ_NLOS_SIGMA_DB)
        assert pl < budget.max_measurable_pl_db - 1.0, (d2d, pl)
        p_rx = budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi - pl
        rows.append((f"N{i:02d}", "NLOS", d2d, TX_HEIGHT_M, RX_HEIGHT_M, FC_GHZ,
                     round(p_rx, 2), None, "false"))

    # Diffraction over the terrain edge adds tens of dB on top of the LOS
    # trend; these rows are parsed but never fitted.
    for i, d2d in enumerate(DIFFRACTION_D2D_M, start=1):
        d3d = distance_3d(d2d, TX_HEIGHT_M, RX_HEIGHT_M)
        pl = ci_pathloss(FC_GHZ, d3d, RURAL_73GHZ_LOS_PLE) \
            + rng.uniform(15.0, 25.0)
        rows.append((f"D{i:02d}", "LOS-DIFFRACTION", d2d, TX_HEIGHT_M, RX_HEIGHT_M,
                     FC_GHZ, None, round(pl, 2), "false"))

    for i, d2d in enumerate(OUTAGE_D2D_M, start=1):
        rows.append((f"O{i:02d}", "NLOS", d2d, TX_HEIGHT_M, RX_HEIGHT_M, FC_GHZ,
                     None, None, "true"))
    return rows


def write_fixture(path) -> None:
    """Write the fixture's header and rows to ``path``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CAMPAIGN_CSV_HEADER)
        writer.writerows(build_rows())


def main() -> int:
    path = bundled_campaign_path()
    write_fixture(path)
    print(f"wrote {path}")
    result = check_campaign_fixture_recovery()
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
