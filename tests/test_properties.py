"""Property-based invariants of the models, the coverage inverse and the fit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmapath import (
    Environment,
    RmaParams,
    breakpoint_distance,
    ci_pathloss,
    fit_ci_arrays,
    los_second_slope,
    max_range,
    rma_los,
    rma_nlos,
)

# Heights over the TR 38.900 RMa applicability ranges.
params_in_range = st.builds(
    RmaParams,
    h_bs=st.floats(10.0, 150.0),
    h_ut=st.floats(1.0, 10.0),
    w=st.floats(5.0, 50.0),
    h=st.floats(5.0, 50.0),
)
ci_frequencies = st.floats(0.5, 100.0)


@settings(deadline=None)
@given(params=params_in_range, target_dbp=st.floats(20.0, 9_000.0))
def test_los_continuous_at_the_breakpoint(params, target_dbp):
    fc = target_dbp / breakpoint_distance(params.h_bs, params.h_ut, 1.0)
    dbp = breakpoint_distance(params.h_bs, params.h_ut, fc)
    past = dbp * (1.0 + 1e-12)
    assert los_second_slope(params, np.array([dbp, past]), fc).tolist() == [False, True]
    assert abs(rma_los(params, past, fc) - rma_los(params, dbp, fc)) < 1e-9


@settings(deadline=None)
@pytest.mark.parametrize("model,span_2d", [(rma_los, 10_000.0), (rma_nlos, 5_000.0)])
@given(params=params_in_range, fc=ci_frequencies,
       distances=st.lists(st.floats(10.0, 5_000.0), min_size=2, max_size=50))
def test_rma_non_decreasing_in_distance(model, span_2d, params, fc, distances):
    d = np.sort(np.array(distances) * (span_2d / 5_000.0))
    pl = model(params, d, fc)
    # pairs apart by more than rounding; equal distances give equal losses
    apart = np.diff(d) > 1e-9 * d[1:]
    assert np.all(np.diff(pl)[apart] > 0.0)
    assert np.all(np.diff(pl)[np.diff(d) == 0.0] == 0.0)


@given(fc=ci_frequencies, ple=st.floats(1.0, 6.0), d=st.floats(1.5, 1e6))
def test_max_range_inverts_ci_pathloss(fc, ple, d):
    assert max_range(fc, ple, ci_pathloss(fc, d, ple)) == pytest.approx(d, rel=1e-9)


@given(ple=st.floats(1.0, 6.0),
       links=st.lists(st.tuples(ci_frequencies, st.floats(2.0, 20_000.0)),
                      min_size=2, max_size=40))
def test_ci_fit_round_trip(ple, links):
    fc, d = (np.array(column) for column in zip(*links))
    fit = fit_ci_arrays(fc, d, ci_pathloss(fc, d, ple), Environment.LOS)
    assert abs(fit.n - ple) < 1e-9
    assert fit.sigma_db < 1e-9
    assert fit.count == len(links)
