"""Campaign ingestion, link budget arithmetic, and coverage inversion."""

import math

import pytest

from rmapath import (
    DEFAULT_BUDGET,
    BelowSensitivityWarning,
    CampaignFormatError,
    Environment,
    LinkBudget,
    MeasurementRecord,
    NoCoverageError,
    bundled_campaign_path,
    ci_pathloss,
    distance_3d,
    format_campaign_csv,
    load_campaign_csv,
    max_range,
    parse_campaign_csv,
    pathloss_from_power,
    received_power,
    records_to_samples,
)

HEADER = ("location_id,environment,d2d_m,tx_height_m,rx_height_m,"
          "fc_ghz,p_rx_dbm,pl_db,outage")


def make_record(**overrides):
    fields = dict(location_id="X01", environment_tag="LOS", d2d_m=100.0,
                  tx_height_m=110.0, rx_height_m=1.8, fc_ghz=73.5, pl_db=120.0)
    fields.update(overrides)
    return MeasurementRecord(**fields)


class TestLinkBudget:
    def test_eirp(self):
        assert DEFAULT_BUDGET.eirp_dbm == pytest.approx(41.7)

    def test_pathloss_from_power(self):
        # 14.7 + 27 + 27 - (-88.1)
        assert pathloss_from_power(DEFAULT_BUDGET, -88.1) == pytest.approx(156.8, abs=1e-9)

    def test_zero_loss_limit(self):
        assert pathloss_from_power(DEFAULT_BUDGET, 68.7) == pytest.approx(0.0, abs=1e-9)

    def test_sensitivity_ceiling(self):
        assert pathloss_from_power(DEFAULT_BUDGET, -121.3) == pytest.approx(190.0, abs=1e-9)

    def test_beyond_ceiling_warns(self):
        with pytest.warns(BelowSensitivityWarning):
            pl = pathloss_from_power(DEFAULT_BUDGET, -130.0)
        assert pl == pytest.approx(198.7, abs=1e-9)

    def test_round_trip_with_received_power(self):
        for pl in (0.0, 98.7, 156.8, 189.99):
            assert pathloss_from_power(
                DEFAULT_BUDGET, received_power(DEFAULT_BUDGET, pl)) == pytest.approx(pl, abs=1e-12)

    def test_non_positive_ceiling_rejected(self):
        with pytest.raises(ValueError):
            LinkBudget(14.7, 27.0, 27.0, 0.0)


class TestMeasurementRecord:
    def test_both_powers_rejected(self):
        with pytest.raises(ValueError):
            make_record(p_rx_dbm=-90.0, pl_db=158.7)

    def test_neither_power_rejected_when_not_outage(self):
        with pytest.raises(ValueError):
            make_record(pl_db=None)

    def test_outage_needs_no_power(self):
        make_record(pl_db=None, outage=True)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            make_record(environment_tag="FOO")

    @pytest.mark.parametrize("field", ["d2d_m", "tx_height_m", "rx_height_m", "fc_ghz",
                                       "p_rx_dbm", "pl_db"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        overrides = {field: value}
        if field == "p_rx_dbm":
            overrides["pl_db"] = None
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_record(**overrides)


class TestParseCampaignCsv:
    def test_bundled_fixture_counts(self):
        records = load_campaign_csv(bundled_campaign_path())
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

    def test_accepts_bytes(self):
        records = parse_campaign_csv(bundled_campaign_path().read_bytes())
        assert len(records) == 38

    def test_parse_format_round_trip(self):
        records = load_campaign_csv(bundled_campaign_path())
        assert parse_campaign_csv(format_campaign_csv(records)) == records


class TestRecordsToSamples:
    def test_bundled_fixture_yields_31_samples(self):
        records = load_campaign_csv(bundled_campaign_path())
        samples, summary = records_to_samples(records, DEFAULT_BUDGET)
        assert list(samples) == [Environment.LOS, Environment.NLOS]
        assert [len(ds) for ds in samples.values()] == [14, 17]
        assert summary.total == 38
        assert summary.converted == 31
        assert summary.outage_dropped == 5
        assert summary.diffraction_dropped == 2
        assert all(ds.environment is env and ds.seed is None and ds.sampling_mode is None
                   for env, ds in samples.items())

    def test_all_outage_input(self):
        records = [make_record(location_id=f"O{i}", pl_db=None, outage=True)
                   for i in range(5)]
        samples, summary = records_to_samples(records, DEFAULT_BUDGET)
        assert samples == {}
        assert summary.outage_dropped == 5

    def test_pl_and_prx_twins_agree(self):
        direct = make_record(pl_db=156.8)
        via_power = make_record(pl_db=None,
                                p_rx_dbm=received_power(DEFAULT_BUDGET, 156.8))
        samples, _ = records_to_samples([direct, via_power], DEFAULT_BUDGET)
        los = samples[Environment.LOS]
        assert los.pl_db[0] == pytest.approx(156.8, abs=1e-12)
        assert los.pl_db[0] == pytest.approx(los.pl_db[1], abs=1e-12)
        assert los.d3d_m[0] == los.d3d_m[1]

    def test_uses_3d_distance(self):
        samples, _ = records_to_samples([make_record()], DEFAULT_BUDGET)
        los = samples[Environment.LOS]
        assert los.d2d_m[0] == 100.0
        assert los.d3d_m[0] == pytest.approx(math.hypot(100.0, 108.2), rel=1e-12)

    def test_keeps_record_order_within_environment(self):
        records = [make_record(location_id=f"R{i}", environment_tag=tag, d2d_m=d,
                               tx_height_m=h)
                   for i, (tag, d, h) in enumerate([("NLOS", 300.0, 50.0), ("LOS", 200.0, 110.0),
                                                    ("NLOS", 100.0, 20.0), ("LOS", 400.0, 30.0)])]
        samples, _ = records_to_samples(records, DEFAULT_BUDGET)
        assert samples[Environment.LOS].d2d_m.tolist() == [200.0, 400.0]
        assert samples[Environment.NLOS].d2d_m.tolist() == [300.0, 100.0]
        assert samples[Environment.NLOS].d3d_m.tolist() == [
            distance_3d(300.0, 50.0, 1.8), distance_3d(100.0, 20.0, 1.8)]

    def test_never_emits_excluded_records(self):
        records = [make_record(environment_tag="LOS-DIFFRACTION", pl_db=170.0),
                   make_record(location_id="O1", pl_db=None, outage=True)]
        samples, summary = records_to_samples(records, DEFAULT_BUDGET)
        assert samples == {}
        assert (summary.diffraction_dropped, summary.outage_dropped) == (1, 1)


class TestMaxRange:
    def test_los_budget_at_73_5ghz(self):
        assert max_range(73.5, 2.16, 190.0) == pytest.approx(370043.230579183, rel=1e-12)

    def test_nlos_budget_at_73_5ghz(self):
        assert max_range(73.5, 2.75, 190.0) == pytest.approx(23637.917248449878, rel=1e-12)

    def test_budget_at_anchor_gives_reference_distance(self):
        anchor = 32.4 + 20 * math.log10(73.5)
        assert max_range(73.5, 2.16, anchor + 1e-9) == pytest.approx(1.0, abs=1e-9)

    def test_budget_below_anchor_rejected(self):
        with pytest.raises(NoCoverageError):
            max_range(73.5, 2.16, 60.0)

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

    def test_overflow_is_one_overflow_error(self):
        with pytest.raises(OverflowError, match="overflows a float"):
            max_range(28.0, 0.01, 1e6)

    def test_monotonicity(self):
        assert max_range(73.5, 2.16, 180.0) < max_range(73.5, 2.16, 190.0)
        assert max_range(73.5, 2.75, 190.0) < max_range(73.5, 2.16, 190.0)
        assert max_range(100.0, 2.16, 190.0) < max_range(73.5, 2.16, 190.0)
