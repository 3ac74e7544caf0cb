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
"""

import numpy as np

from rmapath import (
    DEFAULT_BUDGET,
    RURAL_73GHZ_LOS_PLE,
    RURAL_73GHZ_LOS_SIGMA_DB,
    RURAL_73GHZ_NLOS_PLE,
    RURAL_73GHZ_NLOS_SIGMA_DB,
    Environment,
    MeasurementRecord,
    bundled_campaign_path,
    ci_pathloss,
    distance_3d,
    fit_ci,
    received_power,
    records_to_samples,
    write_campaign_csv,
)

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


def main():
    rng = np.random.default_rng(SEED)
    records = []

    for i, d2d in enumerate(LOS_D2D_M, start=1):
        d3d = distance_3d(d2d, TX_HEIGHT_M, RX_HEIGHT_M)
        pl = ci_pathloss(FC_GHZ, d3d, RURAL_73GHZ_LOS_PLE) \
            + rng.normal(0.0, RURAL_73GHZ_LOS_SIGMA_DB)
        records.append(MeasurementRecord(f"L{i:02d}", "LOS", d2d, TX_HEIGHT_M,
                                         RX_HEIGHT_M, FC_GHZ, pl_db=round(pl, 2)))

    for i, d2d in enumerate(NLOS_D2D_M, start=1):
        d3d = distance_3d(d2d, TX_HEIGHT_M, RX_HEIGHT_M)
        pl = ci_pathloss(FC_GHZ, d3d, RURAL_73GHZ_NLOS_PLE) \
            + rng.normal(0.0, RURAL_73GHZ_NLOS_SIGMA_DB)
        assert pl < DEFAULT_BUDGET.max_measurable_pl_db - 1.0, (d2d, pl)
        records.append(MeasurementRecord(
            f"N{i:02d}", "NLOS", d2d, TX_HEIGHT_M, RX_HEIGHT_M, FC_GHZ,
            p_rx_dbm=round(received_power(DEFAULT_BUDGET, pl), 2)))

    # Diffraction over the terrain edge adds tens of dB on top of the LOS
    # trend; these rows are parsed but never fitted.
    for i, d2d in enumerate(DIFFRACTION_D2D_M, start=1):
        d3d = distance_3d(d2d, TX_HEIGHT_M, RX_HEIGHT_M)
        pl = ci_pathloss(FC_GHZ, d3d, RURAL_73GHZ_LOS_PLE) \
            + rng.uniform(15.0, 25.0)
        records.append(MeasurementRecord(f"D{i:02d}", "LOS-DIFFRACTION", d2d,
                                         TX_HEIGHT_M, RX_HEIGHT_M, FC_GHZ,
                                         pl_db=round(pl, 2)))

    for i, d2d in enumerate(OUTAGE_D2D_M, start=1):
        records.append(MeasurementRecord(f"O{i:02d}", "NLOS", d2d, TX_HEIGHT_M,
                                         RX_HEIGHT_M, FC_GHZ, outage=True))

    path = bundled_campaign_path()
    write_campaign_csv(path, records)

    samples, summary = records_to_samples(records, DEFAULT_BUDGET)
    los = fit_ci(samples[Environment.LOS])
    nlos = fit_ci(samples[Environment.NLOS])
    print(f"wrote {path} ({summary.total} rows)")
    print(f"LOS  fit: n={los.n:.4f} sigma={los.sigma_db:.4f} ({los.count} pts)")
    print(f"NLOS fit: n={nlos.n:.4f} sigma={nlos.sigma_db:.4f} ({nlos.count} pts)")
    assert abs(los.n - RURAL_73GHZ_LOS_PLE) < 0.25
    assert abs(nlos.n - RURAL_73GHZ_NLOS_PLE) < 0.35


if __name__ == "__main__":
    main()
