"""Property-based invariants of the models, the coverage inverse, the fit and
the campaign and dataset readers."""

import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from rmapath import (
    CAMPAIGN_CSV_HEADER,
    DATASET_CSV_HEADER,
    DEFAULT_BUDGET,
    BelowSensitivityWarning,
    ConversionSummary,
    Environment,
    LinkBudget,
    ModelRangeWarning,
    RmaParams,
    SimulationConfig,
    breakpoint_distance,
    ci_pathloss,
    distance_3d,
    fit_ci_arrays,
    fspl,
    los_second_slope,
    max_range,
    pathloss_from_power,
    read_campaign_csv,
    read_dataset_csv,
    rma_los,
    rma_nlos,
    validate_applicability,
)
from rmapath import models

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


positive_floats = st.floats(0.0, exclude_min=True, allow_infinity=False)

# The contract: each exported function or constructor that takes numbers
# gives a finite result, or raises ValueError or OverflowError with a real
# message. Its arguments come from the edge values, positive floats and
# any float; the functions that take arrays also get 1-D arrays of these,
# the model kernels, the fit's distances and losses and the received powers
# object arrays too, and the dB arguments, simulation bounds and applicability
# inputs text and None. An argument that holds text is always rejected; an
# environment may be given as its value.
EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.0, -1.5, 5e-324, 1e308, 28.0)
number = st.one_of(st.sampled_from(EDGE_VALUES), positive_floats, st.floats())
numbers = st.one_of(number, st.lists(number, max_size=4).map(np.array))
# Object arrays as numpy builds them from mixed lists: numbers with numeric
# text, None or a dict among them. Text is rejected, though numpy parses it.
TEXT_AND_NONE = ("150", b"150", "nan", None)
object_arrays = st.lists(st.one_of(number, st.sampled_from((*TEXT_AND_NONE, {}))),
                         max_size=4).map(lambda xs: np.array(xs, dtype=object))
kernel_numbers = st.one_of(numbers, object_arrays)
# The fit also gets three-row columns that it would accept but for numeric
# text among them: in generic draws, text is rarely an argument's only fault.
fit_columns = st.one_of(kernel_numbers, st.lists(
    st.one_of(st.floats(1.0, 1e4), st.sampled_from(("150", b"150"))),
    min_size=3, max_size=3).map(lambda xs: np.array(xs, dtype=object)))
db_values = st.one_of(number, st.sampled_from(TEXT_AND_NONE))
params = st.one_of(st.just(RmaParams()), st.builds(
    RmaParams, *[st.one_of(st.sampled_from((5e-324, 1.0, 1e308)), positive_floats)] * 4))
budgets = st.builds(LinkBudget, *[st.one_of(st.sampled_from(EDGE_VALUES[3:]),
                                            st.floats(allow_nan=False, allow_infinity=False))] * 3,
                    st.one_of(st.sampled_from((5e-324, 28.0, 1e308)), positive_floats))
CONTRACT = {
    "fspl": (fspl, (kernel_numbers, kernel_numbers)),
    "ci_pathloss": (ci_pathloss, (kernel_numbers, kernel_numbers, kernel_numbers)),
    "breakpoint_distance": (breakpoint_distance, (kernel_numbers, kernel_numbers, kernel_numbers)),
    "distance_3d": (distance_3d, (kernel_numbers, kernel_numbers, kernel_numbers)),
    "los_second_slope": (los_second_slope, (params, kernel_numbers, kernel_numbers)),
    "rma_los": (rma_los, (params, kernel_numbers, kernel_numbers)),
    "rma_nlos": (rma_nlos, (params, kernel_numbers, kernel_numbers)),
    "RmaParams": (RmaParams, (number, number, number, number)),
    "LinkBudget": (LinkBudget, (db_values, db_values, db_values, db_values)),
    "SimulationConfig": (lambda fcs: SimulationConfig(Environment.LOS, frequencies_ghz=fcs),
                         (st.one_of(numbers, st.lists(number, max_size=4).map(tuple)),)),
    "SimulationConfig bounds": (
        lambda lo, hi: SimulationConfig(Environment.LOS, d2d_min_m=lo, d2d_max_m=hi),
        (st.one_of(numbers, st.sampled_from(TEXT_AND_NONE)),) * 2),
    "fit_ci_arrays": (fit_ci_arrays, (st.one_of(numbers, st.just(28.0)), fit_columns,
                                      fit_columns, st.sampled_from(Environment))),
    "pathloss_from_power": (pathloss_from_power, (budgets, st.one_of(db_values, kernel_numbers))),
    # scalar-only
    "max_range": (max_range, (number, number, db_values)),
    "validate_applicability": (validate_applicability, (
        params, *[st.one_of(number, st.sampled_from(TEXT_AND_NONE))] * 2,
        st.sampled_from([*Environment, "LOS", "NLOS", "los"]))),
}
FLOAT_RESULTS = {"fspl", "ci_pathloss", "breakpoint_distance", "distance_3d", "rma_los",
                 "rma_nlos", "max_range", "pathloss_from_power"}


def all_finite(value) -> bool:
    """Whether every number in a result is finite, the fields of a dataclass included."""
    if dataclasses.is_dataclass(value):
        return all(all_finite(v) for v in vars(value).values())
    if isinstance(value, (list, tuple)):
        return all(all_finite(v) for v in value)
    return isinstance(value, str) or bool(np.isfinite(value).all())


def holds_text(arg) -> bool:
    """Whether an argument is text, or an object array with text in it (an
    ``Environment`` or its value is a str too, but no text)."""
    if isinstance(arg, np.ndarray) and arg.dtype.kind == "O":
        return any(map(holds_text, arg.flat))
    return isinstance(arg, (str, bytes)) and arg not in {env.value for env in Environment}


@pytest.mark.filterwarnings("ignore::rmapath.ModelRangeWarning")
@pytest.mark.filterwarnings("ignore::rmapath.BelowSensitivityWarning")
@pytest.mark.parametrize("name", CONTRACT)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_finite_result_or_one_error(name, data):
    # Any other warning is an error: the suite runs with filterwarnings = error.
    function, arguments = CONTRACT[name]
    args = data.draw(st.tuples(*arguments))
    try:
        value = function(*args)
    except (ValueError, OverflowError) as exc:
        assert str(exc) and not re.fullmatch(r"\(\d+, '.*'\)", str(exc))  # no bare errno tuple
        return
    assert all_finite(value) and not any(map(holds_text, args))
    if name in FLOAT_RESULTS and not any(isinstance(a, np.ndarray) for a in args):
        assert type(value) is float


KERNELS = ("fspl", "ci_pathloss", "breakpoint_distance", "distance_3d", "los_second_slope",
           "rma_los", "rma_nlos")


def outcome(function, args):
    """A call's result, or the type and text of its error."""
    try:
        return function(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore::rmapath.ModelRangeWarning")
@pytest.mark.parametrize("name", KERNELS)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_a_scalar_is_its_one_element_array(name, data):
    # One path per kernel: scalars run the same expression as arrays do.
    function, arguments = CONTRACT[name]
    args = data.draw(st.tuples(*(a if a is params else number for a in arguments)))
    scalar = outcome(function, args)
    array = outcome(function, [a if isinstance(a, RmaParams) else np.array([a]) for a in args])
    if isinstance(scalar, tuple):
        assert isinstance(array, tuple) and array == scalar
    else:
        assert array.shape == (1,) and scalar == array[0]


def test_the_gate_passes_a_scalar_on_as_a_numpy_scalar():
    # The kernels' scalar speed rests on numpy scalar maths, not on 0-d array ufunc calls.
    assert type(models.finite_positive("x", 73.0)) is np.float64
    assert type(models.finite_positive("x", [73.0])) is np.ndarray


finite_db = st.floats(-300.0, 300.0)
positive = st.floats(1e-3, 1e5)
# Valid campaign rows in header order; a location id may hold a quoted newline.
campaign_rows = st.lists(st.builds(
    lambda fields, powers, outage: (*fields, *powers, outage),
    st.tuples(st.text("AZ09 ,\"\n", max_size=4),
              st.sampled_from(["LOS", "NLOS", "LOS-DIFFRACTION"]),
              positive, positive, positive, positive),
    st.one_of(st.tuples(finite_db, st.none()), st.tuples(st.none(), finite_db)),
    st.booleans(),
), max_size=30)


# No explain phase: on a failing example it traces every line the reader
# runs, which took minutes and over 1 GB of memory for this test.
@pytest.mark.filterwarnings("ignore::rmapath.BelowSensitivityWarning")
@settings(deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(rows=campaign_rows)
def test_read_campaign_csv_matches_the_records(campaign_text, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.csv"
        path.write_text(campaign_text(rows))
        datasets, summary = read_campaign_csv(path, DEFAULT_BUDGET)

    outage = sum(row[-1] for row in rows)
    kept = [row for row in rows if not row[-1] and row[1] != "LOS-DIFFRACTION"]
    assert summary == ConversionSummary(len(rows), len(kept), outage,
                                        len(rows) - len(kept) - outage)
    budget = DEFAULT_BUDGET
    eirp_and_gain = budget.tx_power_dbm + budget.tx_gain_dbi + budget.rx_gain_dbi
    expected = {}
    for env in Environment:
        columns = [row[2:8] for row in kept if row[1] == env.value]
        if columns:
            d2d, tx_h, rx_h, fc, p_rx, pl = zip(*columns)
            d2d = np.array(d2d)
            pl = np.array([eirp_and_gain - p if loss is None else loss
                           for p, loss in zip(p_rx, pl)])
            expected[env] = (np.array(fc), d2d, distance_3d(d2d, np.array(tx_h),
                                                            np.array(rx_h)), pl)
    assert list(datasets) == list(expected)
    for env, (fc, d2d, d3d, pl) in expected.items():
        ds = datasets[env]
        assert ds.environment is env and ds.seed is None and ds.sampling_mode is None
        for got, want in ((ds.fc_ghz, fc), (ds.d2d_m, d2d), (ds.d3d_m, d3d), (ds.pl_db, pl)):
            assert np.array_equal(got, want)


# Dataset CSV text: rows as write_csv writes them, with a few fields
# replaced or dropped and blank lines added.
dataset_floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
dataset_rows = st.lists(st.tuples(dataset_floats, dataset_floats, dataset_floats,
                                  st.sampled_from(["LOS", "NLOS"]), dataset_floats),
                        max_size=12)
mutations = st.lists(st.tuples(
    st.integers(0, 100), st.integers(0, 6),
    st.sampled_from(["nan", "1e999", "-inf", "1_0", "0x10", " 80.5", "80.5 ", "", "abc",
                     "NLOSX", "los", "LOS", "NLOS", " LOS", "042", "+42", "4" * 25, "\u0664\u0662",
                     "linearX", "foo", "log", "linear", "log\0", "7", "<drop>", "<blank>"])),
    max_size=3)


def _dataset_outcome(text: str):
    """The columns, seed and mode per environment that a dataset CSV reads as, or its error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.csv"
        path.write_text(text, newline="")
        try:
            datasets = read_dataset_csv(path)
        except ValueError as exc:
            return str(exc)
    return {env: (ds.fc_ghz.tobytes(), ds.d2d_m.tobytes(), ds.d3d_m.tobytes(),
                  ds.pl_db.tobytes(), ds.seed, ds.sampling_mode)
            for env, ds in datasets.items()}


@settings(deadline=None)
@given(rows=dataset_rows, seed=st.sampled_from(["", "7", "042", "18446744073709551615"]),
       mode=st.sampled_from(["", "linear", "log"]), mutations=mutations)
def test_dataset_blocks_read_as_their_quoted_twin(rows, seed, mode, mutations):
    # A quoted field is the same value to the csv module, but np.loadtxt
    # rejects it, so the quoted twin is always read one row at a time.
    lines = [[*row, seed, mode] for row in rows]
    for index, field, value in mutations:
        if not lines:
            break
        line = lines[index % len(lines)]
        if value == "<blank>":
            lines.insert(index % len(lines), [])
        elif value == "<drop>" and line:
            del line[field % len(line)]
        elif line:
            line[field % len(line)] = value
    header = ",".join(DATASET_CSV_HEADER) + "\n"
    plain = header + "".join(",".join(line) + "\n" for line in lines)
    quoted = header + "".join(",".join(f'"{v}"' for v in line) + "\n" for line in lines)
    assert _dataset_outcome(plain) == _dataset_outcome(quoted)


# Campaign CSV text: valid rows, with a few fields replaced or dropped and
# blank lines added. "<both>" and "<none>" set both powers or neither.
campaign_number = positive.map(repr)
campaign_power = finite_db.map(repr)
plain_campaign_rows = st.lists(st.builds(
    lambda fields, powers, outage: [*fields, *powers, outage],
    st.tuples(st.text("AZ09", max_size=4), st.sampled_from(["LOS", "NLOS", "LOS-DIFFRACTION"]),
              campaign_number, campaign_number, campaign_number, campaign_number),
    st.one_of(st.tuples(campaign_power, st.just("")), st.tuples(st.just(""), campaign_power)),
    st.sampled_from(["true", "false"])), max_size=12)
campaign_mutations = st.lists(st.tuples(
    st.integers(0, 100), st.integers(0, 8),
    st.sampled_from(["", 'A"B', " LOS", "LOS-DIFFRACTIONX", "LOS", "NLOS", "true", "false",
                     "True", "1_0", "٤٢", " 80.5", "nan", "1e999", "-0", "1e200",
                     "1" * 40, "<both>", "<none>", "<blank>", "<drop>"])),
    max_size=3)


@settings(deadline=None)
@given(rows=plain_campaign_rows, mutations=campaign_mutations)
def test_campaign_blocks_read_as_their_quoted_twin(campaign_outcome, rows, mutations):
    # Every field of the twin is quoted, so it is always read one row at a time.
    for index, field, value in mutations:
        if not rows:
            break
        line = rows[index % len(rows)]
        if value == "<blank>":
            rows.insert(index % len(rows), [])
        elif value == "<drop>" and line:
            del line[field % len(line)]
        elif value in ("<both>", "<none>") and len(line) == 9:
            line[6:8] = ["-90.5", "120.25"] if value == "<both>" else ["", ""]
        elif line and not value.startswith("<"):
            line[field % len(line)] = value
    header = ",".join(CAMPAIGN_CSV_HEADER) + "\n"
    plain = header + "".join(",".join(line) + "\n" for line in rows)
    quoted = header + "".join(",".join('"' + v.replace('"', '""') + '"' for v in line) + "\n"
                              for line in rows)
    assert campaign_outcome(plain) == campaign_outcome(quoted)
