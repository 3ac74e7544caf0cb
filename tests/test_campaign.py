"""Campaign ingestion, link budget arithmetic, and coverage inversion."""

import importlib.util
import itertools
import math
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from rmapath import (
    CAMPAIGN_CSV_HEADER,
    DEFAULT_BUDGET,
    BelowSensitivityWarning,
    CampaignFormatError,
    ConversionSummary,
    Environment,
    LinkBudget,
    NoCoverageError,
    bundled_campaign_path,
    ci_pathloss,
    distance_3d,
    max_range,
    parse_campaign_csv,
    pathloss_from_power,
    read_campaign_csv,
)
from rmapath.campaign import CAMPAIGN_TAGS

HEADER = ("location_id,environment,d2d_m,tx_height_m,rx_height_m,"
          "fc_ghz,p_rx_dbm,pl_db,outage")


ROW = dict(location_id="X01", environment="LOS", d2d_m=100.0, tx_height_m=110.0,
           rx_height_m=1.8, fc_ghz=73.5, p_rx_dbm=None, pl_db=120.0, outage=False)


def make_row(**overrides):
    """One campaign row in header order: ``ROW`` with ``overrides``."""
    fields = {**ROW, **overrides}
    return tuple(fields[name] for name in CAMPAIGN_CSV_HEADER)


@pytest.fixture
def read_rows(tmp_path, campaign_text):
    """``read_campaign_csv`` on a file holding the given rows."""
    def read(rows):
        path = tmp_path / "campaign.csv"
        path.write_text(campaign_text(rows))
        return read_campaign_csv(path, DEFAULT_BUDGET)
    return read


def parse_and_read(tmp_path, text):
    """The CampaignFormatError text of ``parse_campaign_csv`` and of
    ``read_campaign_csv`` on ``text``, which must agree."""
    with pytest.raises(CampaignFormatError) as parsed:
        parse_campaign_csv(text)
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CampaignFormatError) as read:
        read_campaign_csv(path, DEFAULT_BUDGET)
    assert str(parsed.value) == str(read.value)
    return str(read.value)


# Rows with several faults each; the first rule in report order names the row.
BAD_ROWS = [
    "A,LOS,100,110,1.8,73.5,,120.0",              # field count
    "",                                            # blank: skipped, still counted
    "B,LOS,x,110,1.8,73.5,,120.0,maybe",           # float parse before outage literal
    "C,FOO,x,110,1.8,73.5,,120.0,false",           # float parse before tag
    "D,FOO,100,110,1.8,73.5,,nan,false",           # tag before finite
    "E,LOS,-1,110,1.8,73.5,,nan,false",            # finite before positive
    "F,LOS,-1,110,1.8,73.5,-90.0,120.0,false",     # positive before power count
    "G,LOS,100,110,1.8,73.5,-90.0,120.0,false",    # two powers
    "H,NLOS,100,110,1.8,73.5,,,false",             # no power
    "I,LOS,100,110,1.8,73.5,abc,x,false",          # floats parse in header order
    "J,LOS,100,110,1.8,73.5,,120.0,false",         # good
    "K,NLOS,100,0,1.8,73.5,,,true",                # outage rows are checked too
    "L,NLOS,1e200,110,1.8,73.5,,,false",           # power count before slant distance
    "M,LOS,1e200,110,1.8,73.5,,120.0,false",       # slant distance overflows
    "N,LOS-DIFFRACTION,1e200,110,1.8,73.5,,170.0,false",  # good: not fitted
    "O,LOS,1e200,110,1.8,73.5,,,true",             # good: outage
]
BAD_ROWS_ERROR = "\n".join([
    "line 2: expected 9 fields, got 8",
    "line 4: could not convert string to float: 'x'",
    "line 5: could not convert string to float: 'x'",
    "line 6: environment 'FOO' not one of LOS/NLOS/LOS-DIFFRACTION",
    "line 7: pl_db must be finite, got nan",
    "line 8: d2d_m must be positive",
    "line 9: exactly one of p_rx_dbm/pl_db required on a non-outage row, got 2",
    "line 10: exactly one of p_rx_dbm/pl_db required on a non-outage row, got 0",
    "line 11: could not convert string to float: 'abc'",
    "line 13: tx_height_m must be positive",
    "line 14: exactly one of p_rx_dbm/pl_db required on a non-outage row, got 0",
    "line 15: slant distance overflows a float",
])


class TestLinkBudget:
    def test_eirp(self):
        assert DEFAULT_BUDGET.eirp_dbm == pytest.approx(41.7)

    def test_pathloss_from_power(self):
        # 14.7 + 27 + 27 - (-88.1)
        assert pathloss_from_power(DEFAULT_BUDGET, -88.1) == pytest.approx(156.8, abs=1e-9)

    @pytest.mark.parametrize("p_rx", [math.nan, math.inf, -math.inf, "-80", None])
    def test_non_finite_power_rejected(self, p_rx):
        with pytest.raises(ValueError) as err:
            pathloss_from_power(DEFAULT_BUDGET, p_rx)
        assert str(err.value) == "p_rx_dbm must be finite"

    def test_zero_loss_limit(self):
        assert pathloss_from_power(DEFAULT_BUDGET, 68.7) == pytest.approx(0.0, abs=1e-9)

    def test_sensitivity_ceiling(self):
        assert pathloss_from_power(DEFAULT_BUDGET, -121.3) == pytest.approx(190.0, abs=1e-9)

    def test_beyond_ceiling_warns(self):
        with pytest.warns(BelowSensitivityWarning):
            pl = pathloss_from_power(DEFAULT_BUDGET, -130.0)
        assert pl == pytest.approx(198.7, abs=1e-9)

    def test_array_of_powers_warns_once_per_loss_over_the_ceiling_in_order(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pl = pathloss_from_power(DEFAULT_BUDGET, np.array([-140.0, -100.0, -130.0]))
        assert pl.tolist() == pytest.approx([208.7, 168.7, 198.7])
        assert [str(w.message)[:19] for w in caught] == ["path loss 208.7 dB ",
                                                         "path loss 198.7 dB "]
        assert all(w.category is BelowSensitivityWarning for w in caught)

    def test_ceiling_warning_names_the_callers_line(self):
        # Python's once-per-location filter keys on this, so each caller is warned.
        with pytest.warns(BelowSensitivityWarning) as record:
            pathloss_from_power(DEFAULT_BUDGET, -130.0)
        assert record[0].filename == __file__

    @pytest.mark.parametrize("p_rx", [-88.1, np.float64(-88.1), np.array(-88.1)])
    def test_scalar_power_gives_a_float(self, p_rx):
        assert type(pathloss_from_power(DEFAULT_BUDGET, p_rx)) is float

    @pytest.mark.parametrize("p_rx", [[-80.0, math.nan], np.array(["-80"]),
                                      np.array([-80.0, None], dtype=object)])
    def test_bad_array_of_powers_rejected(self, p_rx):
        with pytest.raises(ValueError) as err:
            pathloss_from_power(DEFAULT_BUDGET, p_rx)
        assert str(err.value) == "p_rx_dbm must be finite"

    def test_array_budget_field_rejected(self):
        with pytest.raises(ValueError) as err:
            LinkBudget(np.array([14.7, 20.0]), 27.0, 27.0, 190.0)
        assert str(err.value) == "tx_power_dbm must be a number"

    @pytest.mark.parametrize("value", [Decimal("14.7"), np.float32(14.7), True],
                             ids=["Decimal", "float32", "True"])
    def test_holds_the_float_its_gate_returns(self, value):
        budget = LinkBudget(value, 27.0, 27.0, 190.0)
        assert budget == LinkBudget(float(value), 27.0, 27.0, 190.0)
        assert {type(field) for field in vars(budget).values()} == {float}
        assert pathloss_from_power(budget, -100.0) == float(value) + 27.0 + 27.0 + 100.0

    def test_non_positive_ceiling_rejected(self):
        with pytest.raises(ValueError, match="^max_measurable_pl_db must be finite and positive$"):
            LinkBudget(14.7, 27.0, 27.0, 0.0)

    @pytest.mark.parametrize("index,field", enumerate(
        ["tx_power_dbm", "tx_gain_dbi", "rx_gain_dbi", "max_measurable_pl_db"]))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "14.7", None])
    def test_non_finite_rejected(self, index, field, value):
        values = [14.7, 27.0, 27.0, 190.0]
        values[index] = value
        with pytest.raises(ValueError) as err:
            LinkBudget(*values)
        assert str(err.value) == f"{field} must be finite"


class TestParseCampaignCsv:
    def test_bundled_fixture_counts(self):
        records = parse_campaign_csv(bundled_campaign_path().read_text())
        assert len(records) == 38
        tags = [r.environment_tag for r in records if not r.outage]
        assert tags.count("LOS") == 14
        assert tags.count("NLOS") == 17
        assert tags.count("LOS-DIFFRACTION") == 2
        assert sum(r.outage for r in records) == 5

    def test_empty_file_with_header(self):
        assert parse_campaign_csv(HEADER + "\n") == []

    def test_missing_header_rejected(self):
        with pytest.raises(CampaignFormatError, match="header"):
            parse_campaign_csv("a,b,c\n")

    def test_bad_environment_names_line(self):
        text = (HEADER + "\n"
                + "A,LOS,100,110,1.8,73.5,,120.0,false\n"
                + "B,FOO,100,110,1.8,73.5,,120.0,false\n")
        with pytest.raises(CampaignFormatError, match="line 3"):
            parse_campaign_csv(text)

    def test_both_powers_names_line(self):
        text = HEADER + "\n" + "A,LOS,100,110,1.8,73.5,-90.0,120.0,false\n"
        with pytest.raises(CampaignFormatError, match="line 2"):
            parse_campaign_csv(text)

    @pytest.mark.parametrize("row,field", [
        ("A,LOS,100,110,1.8,73.5,,nan,false", "pl_db"),
        ("A,LOS,inf,110,1.8,73.5,,120.0,false", "d2d_m"),
    ])
    def test_non_finite_names_line(self, row, field):
        text = HEADER + "\n" + "B,LOS,100,110,1.8,73.5,,120.0,false\n" + row + "\n"
        with pytest.raises(CampaignFormatError, match=f"line 3: {field} must be finite"):
            parse_campaign_csv(text)

    def test_collects_every_bad_row(self):
        text = (HEADER + "\n"
                + "A,FOO,100,110,1.8,73.5,,120.0,false\n"
                + "B,LOS,100,110,1.8,73.5,,120.0,maybe\n")
        with pytest.raises(CampaignFormatError) as err:
            parse_campaign_csv(text)
        assert "line 2" in str(err.value) and "line 3" in str(err.value)

    @pytest.mark.parametrize("overrides,error", [
        *[pytest.param({field: value, **({"pl_db": None} if field == "p_rx_dbm" else {})},
                       f"line 2: {field} must be finite, got {value!r}", id=f"{value}-{field}")
          for field in ("d2d_m", "tx_height_m", "rx_height_m", "fc_ghz", "p_rx_dbm", "pl_db")
          for value in (math.nan, math.inf, -math.inf)],
        pytest.param(dict(p_rx_dbm=-90.0), "line 2: exactly one of p_rx_dbm/pl_db required "
                     "on a non-outage row, got 2", id="both-powers"),
        pytest.param(dict(pl_db=None), "line 2: exactly one of p_rx_dbm/pl_db required "
                     "on a non-outage row, got 0", id="no-power"),
        pytest.param(dict(environment="FOO"), "line 2: environment 'FOO' not one of "
                     "LOS/NLOS/LOS-DIFFRACTION", id="unknown-tag"),
        pytest.param(dict(pl_db=None, outage=True), None, id="outage-without-power"),
    ])
    def test_row_rules(self, tmp_path, campaign_text, overrides, error):
        text = campaign_text([make_row(**overrides)])
        if error is None:  # accepted by both readers
            assert parse_campaign_csv(text) == [make_row(**overrides)]
            path = tmp_path / "good.csv"
            path.write_text(text)
            assert read_campaign_csv(path, DEFAULT_BUDGET)[1].total == 1
        else:
            assert parse_and_read(tmp_path, text) == error

    def test_every_bad_row_reported_by_its_first_fault(self, tmp_path):
        text = HEADER + "\n" + "\n".join(BAD_ROWS) + "\n"
        assert parse_and_read(tmp_path, text) == BAD_ROWS_ERROR

    def test_rows_are_numbered_by_the_physical_line_they_start_on(self, tmp_path):
        text = (HEADER + "\n"
                + '"A\nB",LOS,100,110,1.8,73.5,,120.0,false\n'     # lines 2-3, good
                + "C,FOO,100,110,1.8,73.5,,120.0,false\n"          # line 4
                + '"D\n\nE",LOS,100,110,1.8,73.5,,120.0,maybe\n'  # lines 5-7
                + "\n"                                              # line 8
                + 'F,LOS,"1\n00",110,1.8,73.5,,120.0,false\n')     # lines 9-10
        assert parse_and_read(tmp_path, text) == "\n".join([
            "line 4: environment 'FOO' not one of LOS/NLOS/LOS-DIFFRACTION",
            "line 5: outage must be 'true' or 'false', got 'maybe'",
            "line 9: could not convert string to float: '1\\n00'",
        ])

    @pytest.mark.parametrize("rows,message", [
        (["A,LOS,100,110,1.8,73.5,," + "1" * 200_000 + ",false",
          "B,FOO,100,110,1.8,73.5,,120.0,false"],
         "line 2: field larger than field limit (131072)"),
        (['"A"B,LOS,100,110,1.8,73.5,,120.0,false'], "line 2: ',' expected after '\"'"),
        (['A,LOS,100,110,1.8,73.5,,120.0,"false'], "line 2: unexpected end of data"),
        # the rest of a quoted field that spans lines is not read as new rows
        (['A,LOS,100,110,1.8,73.5,,"' + "1" * 200_000, '2",false'],
         "line 2: field larger than field limit (131072)"),
    ])
    def test_malformed_csv_names_its_line(self, tmp_path, rows, message):
        assert parse_and_read(tmp_path, HEADER + "\n" + "\n".join(rows) + "\n") == message

    @pytest.mark.parametrize("text", ["", "a,b,c\n", HEADER + ",extra\n", '"' + HEADER])
    def test_reader_rejects_a_bad_header(self, tmp_path, text):
        assert parse_and_read(tmp_path, text) == "missing or invalid header; expected " + HEADER


class TestRecordsToSamples:
    """Campaign rows to fit datasets, through ``read_campaign_csv``."""

    def test_bundled_fixture_yields_31_samples(self):
        samples, summary = read_campaign_csv(bundled_campaign_path(), DEFAULT_BUDGET)
        assert list(samples) == [Environment.LOS, Environment.NLOS]
        assert [len(ds) for ds in samples.values()] == [14, 17]
        assert summary.total == 38
        assert summary.converted == 31
        assert summary.outage_dropped == 5
        assert summary.diffraction_dropped == 2
        assert all(ds.environment is env and ds.seed is None and ds.sampling_mode is None
                   for env, ds in samples.items())

    def test_all_outage_input(self, read_rows):
        rows = [make_row(location_id=f"O{i}", pl_db=None, outage=True) for i in range(5)]
        samples, summary = read_rows(rows)
        assert samples == {}
        assert summary.outage_dropped == 5

    def test_pl_and_prx_twins_agree(self, read_rows):
        direct = make_row(pl_db=156.8)
        p_rx = DEFAULT_BUDGET.eirp_dbm + DEFAULT_BUDGET.rx_gain_dbi - 156.8
        via_power = make_row(pl_db=None, p_rx_dbm=p_rx)
        samples, _ = read_rows([direct, via_power])
        los = samples[Environment.LOS]
        assert los.pl_db[0] == pytest.approx(156.8, abs=1e-12)
        assert los.pl_db[0] == pytest.approx(los.pl_db[1], abs=1e-12)
        assert los.d3d_m[0] == los.d3d_m[1]

    def test_uses_3d_distance(self, read_rows):
        samples, _ = read_rows([make_row()])
        los = samples[Environment.LOS]
        assert los.d2d_m[0] == 100.0
        assert los.d3d_m[0] == pytest.approx(math.hypot(100.0, 108.2), rel=1e-12)

    def test_keeps_record_order_within_environment(self, read_rows):
        rows = [make_row(location_id=f"R{i}", environment=tag, d2d_m=d, tx_height_m=h)
                for i, (tag, d, h) in enumerate([("NLOS", 300.0, 50.0), ("LOS", 200.0, 110.0),
                                                 ("NLOS", 100.0, 20.0), ("LOS", 400.0, 30.0)])]
        samples, _ = read_rows(rows)
        assert samples[Environment.LOS].d2d_m.tolist() == [200.0, 400.0]
        assert samples[Environment.NLOS].d2d_m.tolist() == [300.0, 100.0]
        assert samples[Environment.NLOS].d3d_m.tolist() == [
            distance_3d(300.0, 50.0, 1.8), distance_3d(100.0, 20.0, 1.8)]

    def test_never_emits_excluded_records(self, read_rows):
        rows = [make_row(environment="LOS-DIFFRACTION", pl_db=170.0),
                make_row(location_id="O1", pl_db=None, outage=True)]
        samples, summary = read_rows(rows)
        assert samples == {}
        assert (summary.diffraction_dropped, summary.outage_dropped) == (1, 1)

    def test_warns_once_per_row_over_the_ceiling(self, read_rows):
        rows = [make_row(location_id=f"W{i}", pl_db=None, p_rx_dbm=p_rx)
                for i, p_rx in enumerate([-130.0, -100.0, -140.0])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            samples, _ = read_rows(rows)
        assert [str(w.message)[:19] for w in caught] == ["path loss 198.7 dB ",
                                                         "path loss 208.7 dB "]
        assert all(w.category is BelowSensitivityWarning for w in caught)
        assert samples[Environment.LOS].pl_db.tolist() == pytest.approx([198.7, 168.7, 208.7])

    def test_a_fitted_row_whose_slant_distance_overflows_is_a_row_error(self, read_rows):
        # read with warnings as errors: numpy's overflow warning never comes first
        unfitted = [make_row(location_id="O1", d2d_m=1e200, pl_db=None, outage=True),
                    make_row(location_id="D1", environment="LOS-DIFFRACTION", d2d_m=1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CampaignFormatError) as err:
                read_rows(unfitted + [make_row(d2d_m=1e200)])
            samples, summary = read_rows([make_row()] + unfitted)
        assert str(err.value) == "line 4: slant distance overflows a float"
        assert len(samples[Environment.LOS]) == 1
        assert (summary.outage_dropped, summary.diffraction_dropped) == (1, 1)

    def test_rejected_file_warns_of_nothing(self, tmp_path):
        path = tmp_path / "campaign.csv"
        path.write_text(HEADER + "\n" + "A,LOS,100,110,1.8,73.5,-130.0,,false\n"
                        + "B,FOO,100,110,1.8,73.5,,120.0,false\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CampaignFormatError, match="line 3"):
                read_campaign_csv(path, DEFAULT_BUDGET)
        assert caught == []

    def test_a_loss_past_the_float_range_is_an_overflow_error(self):
        budget = LinkBudget(-1e308, -1e308, 0.0, 190.0)  # the EIRP is -inf
        with pytest.raises(OverflowError) as err:
            read_campaign_csv(bundled_campaign_path(), budget)
        assert str(err.value) == "the result overflows a float"

    def test_an_overflowing_budget_warns_of_nothing(self, tmp_path, campaign_text):
        # The first loss, 1.7e308 dB, is over the ceiling; the second overflows.
        path = tmp_path / "campaign.csv"
        path.write_text(campaign_text([make_row(pl_db=None, p_rx_dbm=-80.0),
                                       make_row(pl_db=None, p_rx_dbm=-1e308)]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowError, match="^the result overflows a float$"):
                read_campaign_csv(path, LinkBudget(1.7e308, 0.0, 0.0, 190.0))
        assert caught == []


def benchmark_shaped_text(rows: int) -> str:
    """Campaign CSV text shaped like the benchmark's: plain rows of every kind."""
    rng = np.random.default_rng(3)
    tags = rng.choice(["LOS", "NLOS", "LOS-DIFFRACTION"], rows, p=[0.5, 0.45, 0.05])
    outage, as_power = rng.random(rows) < 0.1, rng.random(rows) < 0.5
    pl = np.round(rng.uniform(100.0, 200.0, rows), 2)
    lines = [HEADER]
    for i, (tag, o, p, loss, d2d, tx_h, rx_h) in enumerate(zip(
            tags, outage.tolist(), as_power.tolist(), pl.tolist(),
            np.round(rng.uniform(30.0, 11_000.0, rows), 1).tolist(),
            np.round(rng.uniform(30.0, 150.0, rows), 1).tolist(),
            np.round(rng.uniform(1.5, 2.5, rows), 2).tolist())):
        p_rx = "" if o or not p else repr(round(95.4 - loss, 2))
        lines.append(f"R{i:06d},{tag},{d2d!r},{tx_h!r},{rx_h!r},73.5,{p_rx},"
                     f"{'' if o or p else repr(loss)},{'true' if o else 'false'}")
    return "\n".join(lines) + "\n"


def quoted_twin(text: str) -> str:
    """``text`` with every field quoted, which the csv module reads as the same
    values and which is always read one row at a time."""
    lines = text.split("\n")
    return "\n".join([lines[0]] + [",".join('"' + v.replace('"', '""') + '"'
                                             for v in line.split(",")) if line else ""
                                    for line in lines[1:]])


# Good rows of every kind around one row changed in one field.
TWIN_ROWS = ["A,LOS,100.0,110.0,1.8,73.5,,120.25,false",
             "B,NLOS,2500.5,35.0,1.5,73.5,-80.5,,false",
             "C,LOS-DIFFRACTION,300.0,110.0,1.8,73.5,,170.0,false",
             "D,NLOS,1e200,110.0,1.8,73.5,,,true"]
CHANGED = "M,LOS,150.0,110.0,1.8,73.5,-90.0,,false".split(",")


class TestBlockPath:
    """Plain campaign files are parsed a block of rows at a time."""

    def test_benchmark_shaped_file_takes_the_block_path(self, campaign_outcome, monkeypatch):
        text = benchmark_shaped_text(20_000)  # three blocks of rows
        by_rows = campaign_outcome(quoted_twin(text))
        with monkeypatch.context() as patch:
            patch.setattr("rmapath._csv.checked_csv_rows", None)  # the row loop would fail
            by_blocks = campaign_outcome(text)
        assert by_blocks == by_rows
        assert by_blocks[1].total == 20_000 and by_blocks[2]  # some rows warn

    def test_a_block_with_no_fitted_row_reads_as_its_quoted_twin(self, campaign_outcome,
                                                                monkeypatch):
        # The first 8192-row block holds only outage and LOS-DIFFRACTION rows.
        dropped = [TWIN_ROWS[3] if i % 3 else TWIN_ROWS[2] for i in range(8192)]
        text = "\n".join([HEADER, *dropped, *TWIN_ROWS[:2] * 50, ",".join(CHANGED)]) + "\n"
        by_rows = campaign_outcome(quoted_twin(text))
        with monkeypatch.context() as patch:
            patch.setattr("rmapath._csv.checked_csv_rows", None)  # the row loop would fail
            by_blocks = campaign_outcome(text)
        assert by_blocks == by_rows
        columns, summary, warned = by_blocks
        assert summary == ConversionSummary(8293, 101, 5461, 2731)
        assert [len(columns[env][0]) for env in (Environment.LOS, Environment.NLOS)] == [
            8 * 51, 8 * 50]  # bytes of the float64 columns
        assert warned == ["path loss 158.7 dB exceeds the 150 dB measurable ceiling "
                          "(outage-equivalent)"]  # the last row's; the others are below it

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_blank_lines_stay_on_the_block_path(self, campaign_outcome, row_loop_calls, end):
        lines = benchmark_shaped_text(20_000).split("\n")  # three blocks of rows
        without = end.join(lines)
        for at in (len(lines) - 1, 12_000, 8_193, 5, 1):  # end, middle, block edge, start
            lines[at:at] = [""] * (2 if at in (1, 12_000) else 1)
        by_blocks = campaign_outcome(end.join(lines))
        assert row_loop_calls == []
        assert by_blocks == campaign_outcome(without)
        assert by_blocks == campaign_outcome(quoted_twin("\n".join(lines)).replace("\n", end))
        assert row_loop_calls  # the quoted twin took the row loop

    @pytest.mark.parametrize("field,value", [
        ("location_id", ""), ("location_id", 'A"B'), ("environment", " LOS"),
        ("environment", "LOS-DIFFRACTIONX"), ("outage", "True"), ("outage", "true"),
        ("d2d_m", "1_0"), ("p_rx_dbm", "1_0"), ("fc_ghz", "\u0664\u0662"),
        ("p_rx_dbm", "\u0664\u0662"), ("tx_height_m", " 80.5"), ("p_rx_dbm", " 80.5"),
        ("rx_height_m", "nan"), ("p_rx_dbm", "nan"), ("d2d_m", "1e999"), ("p_rx_dbm", "1e999"),
        ("d2d_m", "1" * 40), ("p_rx_dbm", "1" * 40), ("p_rx_dbm", "-" + "1" * 23),
        ("pl_db", "120.0"), ("p_rx_dbm", ""), ("d2d_m", "1e200"), ("<blank>", ""),
        ("<drop>", ""),
    ])
    def test_one_changed_row_reads_as_its_quoted_twin(self, campaign_outcome, field, value):
        row = list(CHANGED)
        if field == "<drop>":
            del row[3]
        elif field != "<blank>":
            row[CAMPAIGN_CSV_HEADER.index(field)] = value
        lines = [HEADER, *TWIN_ROWS[:2], "" if field == "<blank>" else ",".join(row),
                 *TWIN_ROWS[2:]]
        text = "\n".join(lines) + "\n"
        assert campaign_outcome(text) == campaign_outcome(quoted_twin(text))

    def test_a_long_power_stays_on_the_block_path(self, campaign_outcome, monkeypatch):
        powers = ["-80.5" + "0" * 20, "120.25" + "0" * 26, "-95." + "1234567890" * 3 + "123456"]
        assert [len(power) for power in powers] == [25, 32, 40]
        text = "\n".join([HEADER, f"B,NLOS,2500.5,35.0,1.5,73.5,{powers[0]},,false",
                          f"A,LOS,100.0,110.0,1.8,73.5,,{powers[1]},false",
                          f"{'L' * 40},LOS,300.0,110.0,1.8,73.5,{powers[2]},,false"]) + "\n"
        by_rows = campaign_outcome(quoted_twin(text))
        with monkeypatch.context() as patch:
            patch.setattr("rmapath._csv.checked_csv_rows", None)  # the row loop would fail
            by_blocks = campaign_outcome(text)
        assert by_blocks == by_rows
        assert by_blocks[1] == ConversionSummary(3, 3, 0, 0)

    def test_bundled_fixture_takes_the_block_path(self, monkeypatch):
        monkeypatch.setattr("rmapath._csv.checked_csv_rows", None)
        assert read_campaign_csv(bundled_campaign_path(), DEFAULT_BUDGET)[1].total == 38

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_files_take_the_block_path(self, campaign_outcome, monkeypatch,
                                                   line_end):
        text = benchmark_shaped_text(20_000)
        by_lf = campaign_outcome(text)
        monkeypatch.setattr("rmapath._csv.checked_csv_rows", None)  # the row loop would fail
        assert campaign_outcome(text.replace("\n", line_end)) == by_lf

    # One row per rule of the campaign rule table, in report order, each
    # breaking that rule alone: a plain file is held to it by the block path,
    # its quoted twin by the row loop, and both name the row by its message.
    @pytest.mark.parametrize("field,value,message", [
        ("outage", "maybe", "outage must be 'true' or 'false', got 'maybe'"),
        ("environment", "FOO", "environment 'FOO' not one of LOS/NLOS/LOS-DIFFRACTION"),
        ("d2d_m", "inf", "d2d_m must be finite, got inf"),
        ("tx_height_m", "nan", "tx_height_m must be finite, got nan"),
        ("rx_height_m", "-inf", "rx_height_m must be finite, got -inf"),
        ("fc_ghz", "1e999", "fc_ghz must be finite, got inf"),
        ("p_rx_dbm", "nan", "p_rx_dbm must be finite, got nan"),
        ("pl_db", "-1e999", "pl_db must be finite, got -inf"),
        ("d2d_m", "-1", "d2d_m must be positive"),
        ("tx_height_m", "0", "tx_height_m must be positive"),
        ("rx_height_m", "-0", "rx_height_m must be positive"),
        ("fc_ghz", "-73.5", "fc_ghz must be positive"),
        ("p_rx_dbm", "-90.0",
         "exactly one of p_rx_dbm/pl_db required on a non-outage row, got 2"),
        ("d2d_m", "1e200", "slant distance overflows a float"),
    ])
    def test_each_rule_names_its_row_on_both_paths(self, tmp_path, field, value, message):
        row = "A,LOS,100.0,110.0,1.8,73.5,,120.0,false".split(",")
        row[CAMPAIGN_CSV_HEADER.index(field)] = value
        if field == "p_rx_dbm" and value == "nan":
            row[CAMPAIGN_CSV_HEADER.index("pl_db")] = ""
        text = "\n".join([HEADER, TWIN_ROWS[0], ",".join(row), TWIN_ROWS[1]]) + "\n"
        assert parse_and_read(tmp_path, text) == f"line 3: {message}"
        assert parse_and_read(tmp_path, quoted_twin(text)) == f"line 3: {message}"

    def test_a_long_tag_is_named_in_full(self, tmp_path):
        # np.loadtxt cuts a field to its width; the row loop keeps it whole. Each
        # accepted tag and outage flag with one more character must fail on the
        # block path, not pass cut back to the accepted value.
        cases = [("LOS-DIFFRACTION" + "X" * 25, "false")]
        cases += [(f"{tag}X", "false") for tag in CAMPAIGN_TAGS]
        cases += [("LOS", f"{flag}X") for flag in ("true", "false")]
        for tag, outage in cases:
            text = HEADER + "\n" + f"A,{tag},100.0,110.0,1.8,73.5,,120.0,{outage}\n"
            message = (f"environment {tag!r} not one of LOS/NLOS/LOS-DIFFRACTION"
                       if outage == "false" else
                       f"outage must be 'true' or 'false', got {outage!r}")
            assert parse_and_read(tmp_path, text) == f"line 2: {message}"

    def test_bad_row_past_the_first_block_names_its_physical_line(self, tmp_path):
        lines = [f"R{i},LOS,100.0,110.0,1.8,73.5,,120.0,false" for i in range(10_000)]
        lines[9_000] = "R9000,LOS,100.0,110.0,1.8,73.5,-90.0,120.0,false"
        lines[9_500] = "R9500,LOS,1e200,110.0,1.8,73.5,,120.0,false"
        path = tmp_path / "campaign.csv"
        path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(CampaignFormatError) as err:
            read_campaign_csv(path, DEFAULT_BUDGET)
        assert str(err.value) == (
            "line 9002: exactly one of p_rx_dbm/pl_db required on a non-outage row, got 2\n"
            "line 9502: slant distance overflows a float")


class TestUndecodableByte:
    """A byte that is not UTF-8 is a ``line N:`` error, found before any row is parsed."""

    CHUNK = 65_536  # the scan reads half the csv module's field size limit at a time

    @staticmethod
    def lines(count: int = 3_000) -> list[bytes]:
        rows = [f"R{i:05d},LOS,{100.0 + i!r},110.0,1.8,73.5,,120.0,false" for i in range(count)]
        return [HEADER.encode(), *(row.encode() for row in rows)]

    @staticmethod
    def read_error(tmp_path, data: bytes) -> str:
        path = tmp_path / "campaign.csv"
        path.write_bytes(data)
        with pytest.raises(CampaignFormatError) as err:
            read_campaign_csv(path, DEFAULT_BUDGET)
        return str(err.value)

    @pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
    def test_bad_byte_past_the_first_chunk_names_its_line(self, tmp_path, line_end):
        lines = self.lines()
        lines[2_499] = b"\xff" + lines[2_499]
        data = line_end.join(lines) + line_end
        assert data.index(b"\xff") > self.CHUNK
        assert self.read_error(tmp_path, data) == (
            "line 2500: 'utf-8' codec can't decode byte 0xff: invalid start byte")

    def test_crlf_split_between_chunks_counts_once(self, tmp_path):
        lines = self.lines()
        # Pad the first row's path loss (120.0 reads as 120.000...) so that the last line
        # to end in the first chunk ends one byte past it, with its CR as the chunk's last byte.
        ends = itertools.accumulate(len(line) + 2 for line in lines)
        lines[1] += b"0" * (self.CHUNK + 1 - max(end for end in ends if end <= self.CHUNK))
        lines[2_499] = b"\xff" + lines[2_499]
        data = b"\r\n".join(lines) + b"\r\n"
        assert data[self.CHUNK - 1:self.CHUNK + 1] == b"\r\n"
        assert self.read_error(tmp_path, data) == (
            "line 2500: 'utf-8' codec can't decode byte 0xff: invalid start byte")

    def test_character_cut_at_the_end_of_the_file_names_the_last_line(self, tmp_path):
        data = b"\n".join(self.lines()) + b"\xe2\x82"
        assert self.read_error(tmp_path, data) == (
            "line 3001: 'utf-8' codec can't decode byte 0xe2: unexpected end of data")

    def test_character_split_between_chunks_reads(self, tmp_path):
        lines = self.lines()
        data = b"\n".join(lines) + b"\n"
        start = data.rindex(b"\n", 0, self.CHUNK) + 1  # the line on the chunk boundary
        euro = "\u20ac".encode()  # a location id, which no rule reads
        data = data[:start] + b"x" * (self.CHUNK - 1 - start) + euro + data[start:]
        assert data[self.CHUNK - 1:self.CHUNK + 2] == euro
        path = tmp_path / "campaign.csv"
        path.write_bytes(data)
        assert read_campaign_csv(path, DEFAULT_BUDGET)[1].total == 3_000

    def test_nothing_is_parsed(self, tmp_path, monkeypatch):
        lines = self.lines()
        lines[-1] = lines[-1].replace(b"LOS", b"L\xffS")
        monkeypatch.setattr("rmapath._csv._views", None)
        monkeypatch.setattr("rmapath._csv.checked_csv_rows", None)
        assert self.read_error(tmp_path, b"\n".join(lines) + b"\n") == (
            "line 3001: 'utf-8' codec can't decode byte 0xff: invalid start byte")


class TestFixtureScript:
    def test_regenerates_the_bundled_fixture_byte_for_byte(self, tmp_path):
        script = Path(__file__).parents[1] / "scripts" / "generate_campaign_fixture.py"
        spec = importlib.util.spec_from_file_location("generate_campaign_fixture", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        path = tmp_path / "fixture.csv"
        module.write_fixture(path)
        assert path.read_bytes() == bundled_campaign_path().read_bytes()


class TestMaxRange:
    def test_los_budget_at_73_5ghz(self):
        assert max_range(73.5, 2.16, 190.0) == pytest.approx(370043.230579183, rel=1e-12)

    def test_nlos_budget_at_73_5ghz(self):
        assert max_range(73.5, 2.75, 190.0) == pytest.approx(23637.917248449878, rel=1e-12)

    def test_budget_at_anchor_gives_reference_distance(self):
        anchor = 32.4 + 20 * math.log10(73.5)
        assert max_range(73.5, 2.16, anchor + 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_budget_below_anchor_rejected(self):
        with pytest.raises(NoCoverageError) as err:
            max_range(73.5, 2.16, 60.0)
        assert str(err.value) == ("max path loss 60 dB does not exceed the 69.73 dB anchor loss "
                                  "at 1 m")

    def test_arrays_broadcast(self):
        meters = max_range(np.array([28.0, 73.5]), 2.16, 190.0)
        assert meters.tolist() == pytest.approx([904347.1123023183, 370043.2305791837],
                                                rel=1e-12)
        assert meters.tolist() == [max_range(28.0, 2.16, 190.0), max_range(73.5, 2.16, 190.0)]

    def test_scalars_equal_their_array_elements(self):
        # A scalar taking C pow, not numpy's power loop, is an ulp off on about 5 % of these.
        fc, ple = np.linspace(0.5, 100.0, 400), np.linspace(1.0, 6.0, 400)
        assert max_range(fc, ple, 190.0).tolist() == [
            max_range(f, n, 190.0) for f, n in zip(fc.tolist(), ple.tolist())]

    def test_array_without_coverage_names_its_first_element(self):
        with pytest.raises(NoCoverageError) as err:
            max_range(np.array([73.5, 28.0, 1.0]), 2.16, np.array([190.0, 60.0, 30.0]))
        assert str(err.value) == ("max path loss 60 dB does not exceed the 61.34 dB anchor loss "
                                  "at 1 m")

    def test_inverts_ci_pathloss(self):
        for ple in (2.0, 2.16, 2.75):
            for budget in (120.0, 156.8, 190.0):
                d = max_range(73.5, ple, budget)
                assert ci_pathloss(73.5, d, ple) == pytest.approx(budget, abs=1e-9)

    @pytest.mark.parametrize("fc,ple,budget", [
        (math.nan, 2.16, 190.0), (math.inf, 2.16, 190.0), (73.5, math.nan, 190.0),
        (73.5, math.inf, 190.0), (73.5, 2.16, math.nan), (73.5, 2.16, math.inf),
    ])
    def test_non_finite_rejected(self, fc, ple, budget):
        with pytest.raises(ValueError, match="must be finite"):
            max_range(fc, ple, budget)

    @pytest.mark.parametrize("fc,ple,name", [("73.5", 2.16, "fc_ghz"), (73.5, b"2", "ple")])
    def test_numeric_text_rejected(self, fc, ple, name):
        with pytest.raises(ValueError) as err:
            max_range(fc, ple, 190.0)
        assert str(err.value) == f"{name} must be finite and positive"

    @pytest.mark.parametrize("budget", ["150", b"1e3", None])
    def test_text_budget_rejected(self, budget):
        with pytest.raises(ValueError) as err:
            max_range(28.0, 2.31, budget)
        assert str(err.value) == "max_pl_db must be finite"

    def test_overflow_is_one_overflow_error(self):
        with pytest.raises(OverflowError, match="overflows a float"):
            max_range(28.0, 0.01, 1e6)

    def test_infinite_exponent_is_one_overflow_error(self):
        with pytest.raises(OverflowError) as err:
            max_range(1.0, 0.001, 1e308)  # the exponent itself overflows to inf
        assert str(err.value) == "the result overflows a float"

    # Under the suite's warnings-as-errors, a numpy overflow warning would fail these first.
    @pytest.mark.parametrize("to", [np.float64, np.array], ids=["float64", "0-d array"])
    @pytest.mark.parametrize("args", [(28.0, 0.01, 1e6), (1.0, 0.001, 1e308)])
    def test_numpy_scalar_overflow_is_one_overflow_error(self, to, args):
        with pytest.raises(OverflowError) as err:
            max_range(*map(to, args))
        assert str(err.value) == "the result overflows a float"

    @pytest.mark.parametrize("to", [np.float64, np.array], ids=["float64", "0-d array"])
    def test_numpy_scalars_give_the_float_result(self, to):
        meters = max_range(to(73.5), to(2.16), to(190.0))
        assert type(meters) is float and meters == max_range(73.5, 2.16, 190.0)

    def test_monotonicity(self):
        assert max_range(73.5, 2.16, 180.0) < max_range(73.5, 2.16, 190.0)
        assert max_range(73.5, 2.75, 190.0) < max_range(73.5, 2.16, 190.0)
        assert max_range(100.0, 2.16, 190.0) < max_range(73.5, 2.16, 190.0)
