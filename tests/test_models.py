"""Deterministic model equations against independently computed values.

Expected numbers were frozen from direct evaluation of the published
formulas (c = 3e8 m/s throughout) before the implementation existed.
"""

import math
from decimal import Decimal

import numpy as np
import pytest

from rmapath import (
    ApplicabilityError,
    Environment,
    LinkBudget,
    ModelRangeWarning,
    RmaParams,
    breakpoint_distance,
    ci_pathloss,
    distance_3d,
    los_second_slope,
    max_range,
    rma_los,
    rma_nlos,
    validate_applicability,
)

DEFAULTS = RmaParams()


class TestCiPathloss:
    def test_reference_distance_is_anchor_only(self):
        # log10(1) = 0, so any exponent gives 32.4 + 20*log10(fc)
        for ple in (1.0, 2.16, 5.0):
            assert ci_pathloss(73.5, 1.0, ple) == pytest.approx(69.7257467816839, abs=1e-12)

    def test_los_at_10_8km(self):
        assert ci_pathloss(73.5, 10_800.0, 2.16) == pytest.approx(156.847699900202, abs=1e-9)

    def test_1ghz_100m(self):
        assert ci_pathloss(1.0, 100.0, 2.31) == pytest.approx(78.6, abs=1e-12)

    def test_below_reference_distance_rejected(self):
        with pytest.raises(ValueError):
            ci_pathloss(73.5, 0.999, 2.0)

    def test_differs_from_fspl_by_rounding_delta_at_n2(self):
        # 20*log10(4*pi*1e9/3e8) - 32.4
        delta = 0.04177218604867505
        rng = np.random.default_rng(1)
        for _ in range(50):
            fc = rng.uniform(0.5, 100.0)
            d = rng.uniform(1.0, 20_000.0)
            friis = 20.0 * math.log10(4.0 * math.pi * fc * 1e9 * d / 3e8)
            assert friis - ci_pathloss(fc, d, 2.0) == pytest.approx(delta, abs=1e-9)

    def test_strictly_increasing_in_distance_and_frequency(self):
        d = np.linspace(1.0, 20_000.0, 200)
        pl = ci_pathloss(28.0, d, 2.16)
        assert np.all(np.diff(pl) > 0)
        fc = np.linspace(0.5, 100.0, 200)
        pl = ci_pathloss(fc, 500.0, 2.16)
        assert np.all(np.diff(pl) > 0)

    def test_warns_outside_validity_span(self):
        with pytest.warns(ModelRangeWarning):
            ci_pathloss(140.0, 100.0, 2.16)
        with pytest.warns(ModelRangeWarning):
            ci_pathloss(0.4, 100.0, 2.16)

    def test_range_warning_names_the_callers_line(self):
        # Python's once-per-location filter keys on this, so each caller is warned.
        with pytest.warns(ModelRangeWarning) as record:
            ci_pathloss(200.0, 100.0, 2.16)
        assert record[0].filename == __file__


class TestBreakpointDistance:
    @pytest.mark.parametrize("fc,expected", [
        (0.8, 879.6459430051422),
        (9.0, 9896.01685880785),
        (9.1, 10005.972601683492),
        (73.5, 80817.47101359743),
    ])
    def test_default_heights(self, fc, expected):
        assert breakpoint_distance(35.0, 1.5, fc) == pytest.approx(expected, rel=1e-12)

    def test_crosses_los_ceiling_between_9_0_and_9_1_ghz(self):
        assert breakpoint_distance(35.0, 1.5, 9.1) >= 10_000.0
        assert breakpoint_distance(35.0, 1.5, 9.0) < 10_000.0

    def test_linear_in_each_argument(self):
        base = breakpoint_distance(35.0, 1.5, 2.0)
        for k in (0.5, 2.0, 7.3):
            assert breakpoint_distance(35.0, 1.5, k * 2.0) == pytest.approx(k * base, rel=1e-12)
            assert breakpoint_distance(k * 35.0, 1.5, 2.0) == pytest.approx(k * base, rel=1e-12)
            assert breakpoint_distance(35.0, k * 1.5, 2.0) == pytest.approx(k * base, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            breakpoint_distance(0.0, 1.5, 1.0)


class TestDistance3d:
    def test_pythagoras(self):
        assert distance_3d(100.0, 35.0, 1.5) == pytest.approx(105.46207849269803, abs=1e-12)

    def test_height_term_negligible_at_km_scale(self):
        assert distance_3d(10_000.0, 35.0, 1.5) == pytest.approx(10000.05611234257, abs=1e-9)

    @pytest.mark.parametrize("d2d", [0.1, 100.0, 1234.5])
    def test_equal_heights_returns_ground_distance(self, d2d):
        assert distance_3d(d2d, 10.0, 10.0) == d2d


class TestRmaLos:
    def test_first_slope_at_1ghz_100m(self):
        assert rma_los(DEFAULTS, 100.0, 1.0) == pytest.approx(72.83645360032692, abs=1e-9)

    def test_single_slope_at_73_5ghz(self):
        # breakpoint is ~80.8 km, so the first slope applies out to 10 km
        assert rma_los(DEFAULTS, 1000.0, 73.5) == pytest.approx(131.89826028996137, abs=1e-9)

    @pytest.mark.parametrize("fc", [1.0, 2.0, 6.0])
    def test_continuous_at_breakpoint(self, fc):
        dbp = breakpoint_distance(DEFAULTS.h_bs, DEFAULTS.h_ut, fc)
        jump = rma_los(DEFAULTS, dbp * (1 + 1e-12), fc) - rma_los(DEFAULTS, dbp, fc)
        assert abs(jump) < 1e-9

    def test_second_slope_is_40db_per_decade(self):
        # 1 GHz breakpoint is ~1.1 km; compare 2 km and 8 km, both beyond it
        delta = rma_los(DEFAULTS, 8000.0, 1.0) - rma_los(DEFAULTS, 2000.0, 1.0)
        assert delta == pytest.approx(40 * math.log10(4), abs=1e-9)

    @pytest.mark.parametrize("fc", [9.1, 15.0, 100.0])
    def test_first_slope_branch_everywhere_at_high_frequency(self, fc):
        # direct transcription of the first-slope expression as the oracle
        d = 9999.0
        h = DEFAULTS.h
        pl1 = (20 * math.log10(40 * math.pi * d * fc / 3)
               + min(0.03 * h**1.72, 10) * math.log10(d)
               - min(0.044 * h**1.72, 14.77)
               + 0.002 * math.log10(h) * d)
        assert rma_los(DEFAULTS, d, fc) == pytest.approx(pl1, abs=1e-12)

    def test_second_slope_branch_below_9_1ghz(self):
        fc, d = 9.0, 9999.0
        dbp = breakpoint_distance(DEFAULTS.h_bs, DEFAULTS.h_ut, fc)
        assert dbp < d
        h = DEFAULTS.h
        pl1_at_bp = (20 * math.log10(40 * math.pi * dbp * fc / 3)
                     + min(0.03 * h**1.72, 10) * math.log10(dbp)
                     - min(0.044 * h**1.72, 14.77)
                     + 0.002 * math.log10(h) * dbp)
        expected = pl1_at_bp + 40 * math.log10(d / dbp)
        assert rma_los(DEFAULTS, d, fc) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model", [rma_los, rma_nlos])
    def test_array_frequency_matches_scalar(self, model):
        # frequencies on both sides of the 9.1 GHz ceiling crossing, with
        # distances before and after each finite breakpoint
        fc = np.array([1.0, 2.0, 6.0, 9.0, 9.1, 28.0, 73.5])
        d = np.array([500.0, 4000.0, 100.0, 4999.0, 4999.0, 50.0, 1000.0])
        expected = [model(DEFAULTS, float(x), float(f)) for x, f in zip(d, fc)]
        assert np.array_equal(model(DEFAULTS, d, fc), expected)
        at_100m = [model(DEFAULTS, 100.0, float(f)) for f in fc]
        assert np.array_equal(model(DEFAULTS, 100.0, fc), at_100m)

    def test_breakpoint_on_the_ceiling_keeps_first_slope_with_array_frequency(self):
        # the 3D distance of a 10 km ground distance is about 10 000.06 m;
        # past a breakpoint at 10 000.03 m the first slope holds
        fc = np.array([1.0, 9.0945955])
        d = np.full(2, distance_3d(10_000.0, DEFAULTS.h_bs, DEFAULTS.h_ut))
        assert 10_000.0 <= breakpoint_distance(DEFAULTS.h_bs, DEFAULTS.h_ut, fc[1]) < d[1]
        expected = [rma_los(DEFAULTS, float(x), float(f)) for x, f in zip(d, fc)]
        assert np.array_equal(rma_los(DEFAULTS, d, fc), expected)
        assert los_second_slope(DEFAULTS, d, fc).tolist() == [True, False]

    def test_first_slope_past_a_breakpoint_on_the_ceiling(self):
        # the breakpoint sits just above 10 km, and the 3D distance of a
        # 10 km ground distance just above the breakpoint: still one slope
        fc = 9.0945955
        dbp = breakpoint_distance(DEFAULTS.h_bs, DEFAULTS.h_ut, fc)
        d = distance_3d(np.linspace(9_990.0, 10_000.0, 200), DEFAULTS.h_bs, DEFAULTS.h_ut)
        h = DEFAULTS.h
        assert 10_000.0 <= dbp < d.max()
        assert not los_second_slope(DEFAULTS, d, fc).any()  # so 4 dB of shadow fading throughout
        pl1 = (20 * np.log10(40 * math.pi * d * fc / 3)
               + min(0.03 * h**1.72, 10) * np.log10(d)
               - min(0.044 * h**1.72, 14.77)
               + 0.002 * math.log10(h) * d)
        assert np.allclose(rma_los(DEFAULTS, d, fc), pl1, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("d", [9.0, 10_001.0])
    def test_out_of_span_rejected(self, d):
        with pytest.raises(ApplicabilityError):
            rma_los(DEFAULTS, d, 1.0)

    def test_span_endpoints_evaluate(self):
        rma_los(DEFAULTS, 10.0, 1.0)
        rma_los(DEFAULTS, 10_000.0, 1.0)

    def test_3d_distances_below_the_image_of_10m_evaluate(self):
        # The span starts at 10 m, below the 34.96 m slant that no ground distance reaches.
        assert distance_3d(10.0, DEFAULTS.h_bs, DEFAULTS.h_ut) > 20.0
        assert rma_los(DEFAULTS, 20.0, 28.0) == pytest.approx(87.35433145890008, rel=1e-12)

    def test_second_slope_mask(self):
        dbp = breakpoint_distance(DEFAULTS.h_bs, DEFAULTS.h_ut, 1.0)
        d = np.array([10.0, dbp, np.nextafter(dbp, np.inf), 10_000.0])
        assert los_second_slope(DEFAULTS, d, 1.0).tolist() == [False, False, True, True]
        # breakpoint past the 10 km ceiling: the first slope everywhere
        assert not los_second_slope(DEFAULTS, d, 9.1).any()


@pytest.mark.parametrize("model,span_2d", [(rma_los, 10_000.0), (rma_nlos, 5_000.0)])
class TestThreeDimensionalSpan:
    @pytest.mark.parametrize("h_bs,h_ut", [(35.0, 1.5), (10.0, 10.0), (150.0, 1.0), (25.0, 8.0)])
    def test_every_closed_span_ground_distance_evaluates(self, model, span_2d, h_bs, h_ut):
        params = RmaParams(h_bs=h_bs, h_ut=h_ut)
        d2d = np.array([10.0, np.nextafter(span_2d, 0.0), span_2d])
        d3d = distance_3d(d2d, h_bs, h_ut)
        assert np.array_equal(model(params, d3d, 2.0),
                              [model(params, float(x), 2.0) for x in d3d])

    def test_just_past_the_mapped_span_end_rejected(self, model, span_2d):
        end = distance_3d(span_2d, DEFAULTS.h_bs, DEFAULTS.h_ut)
        model(DEFAULTS, end, 2.0)
        with pytest.raises(ApplicabilityError):
            model(DEFAULTS, np.nextafter(end, np.inf), 2.0)

    def test_floor_stays_at_10m(self, model, span_2d):
        model(DEFAULTS, 10.0, 2.0)
        with pytest.raises(ApplicabilityError):
            model(DEFAULTS, np.nextafter(10.0, 0.0), 2.0)


class TestNonFiniteInputs:
    # Numeric text is no number either, though numpy would convert it, also
    # inside an object array; an object that is not a number is rejected too.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, [1.0, math.nan],
                                     "73", b"73", ["1.0", "2.0"],
                                     np.array(["73", 5.0], dtype=object),
                                     np.array([b"73"], dtype=object),
                                     np.array([1.0, {}], dtype=object),
                                     10**400, -10**400, np.array([1.0, 10**400], dtype=object)])
    @pytest.mark.parametrize("call", [
        lambda x: max_range(x, 2.0, 120.0),
        lambda x: max_range(28.0, x, 120.0),
        lambda x: ci_pathloss(x, 100.0, 2.0),
        lambda x: ci_pathloss(28.0, x, 2.0),
        lambda x: ci_pathloss(28.0, 100.0, x),
        lambda x: breakpoint_distance(x, 1.5, 2.0),
        lambda x: breakpoint_distance(35.0, 1.5, x),
        lambda x: distance_3d(x, 35.0, 1.5),
        lambda x: distance_3d(100.0, 35.0, x),
        lambda x: rma_los(DEFAULTS, x, 2.0),
        lambda x: rma_los(DEFAULTS, 100.0, x),
        lambda x: rma_nlos(DEFAULTS, x, 2.0),
        lambda x: rma_nlos(DEFAULTS, 100.0, x),
        lambda x: los_second_slope(DEFAULTS, x, 2.0),
        lambda x: los_second_slope(DEFAULTS, 100.0, x),
    ])
    def test_rejected_with_value_error(self, call, bad):
        with pytest.raises(ValueError, match="must be finite and positive"):
            call(bad)

    # An int past the float range is the gate's ValueError, not "int too large to convert".
    @pytest.mark.parametrize("call,text", [
        pytest.param(lambda: RmaParams(h=10**400), "h must be finite and positive",
                     id="RmaParams-h"),
        pytest.param(lambda: max_range(28.0, 2.0, 10**400), "max_pl_db must be finite",
                     id="max_range-max_pl_db"),
        pytest.param(lambda: LinkBudget(10**400, 1.0, 1.0, 190.0), "tx_power_dbm must be finite",
                     id="LinkBudget-tx_power_dbm"),
    ])
    def test_int_past_the_float_range_is_the_gates_value_error(self, call, text):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text

    @pytest.mark.parametrize("field", ["h_bs", "h_ut", "w", "h"])
    def test_rma_params_rejects_infinite_height(self, field):
        with pytest.raises(ValueError, match=field):
            RmaParams(**{field: math.inf})


class TestOverflow:
    @pytest.mark.parametrize("call", [
        pytest.param(lambda: ci_pathloss(1.0, 1e300, 1e307), id="ci_pathloss-d-and-ple"),
        # an infinite 10*n times log10(1) is NaN
        pytest.param(lambda: ci_pathloss(1.0, 1.0, 1.7e308), id="ci_pathloss-ple-at-1m"),
        pytest.param(lambda: breakpoint_distance(1e10, 1.5, 1e300), id="breakpoint_distance-fc"),
        pytest.param(lambda: breakpoint_distance(1e10, 1.5, [1.0, 1e300]),
                     id="breakpoint_distance-fc-array"),
        pytest.param(lambda: breakpoint_distance(1e300, 1e300, 1),
                     id="breakpoint_distance-heights"),
        pytest.param(lambda: distance_3d(1e200, 35.0, 1.5), id="distance_3d-d2d"),
        pytest.param(lambda: distance_3d(np.array([1e200]), 110, 1.8), id="distance_3d-d2d-array"),
        pytest.param(lambda: max_range(1.0, 1e-300, 1000.0), id="max_range-tiny-ple"),
        pytest.param(lambda: rma_nlos(DEFAULTS, 100.0, 1e306), id="rma_nlos-fc"),
    ])
    def test_non_finite_result_is_one_overflow_error(self, call):
        # The suite turns warnings into errors, so a numpy warning fails here.
        with pytest.raises(OverflowError) as err:
            call()
        assert str(err.value) == "the result overflows a float"

    def test_infinite_breakpoint_keeps_the_first_slope_without_a_warning(self):
        # Huge heights or frequencies put the breakpoint at inf, past the ceiling.
        assert not los_second_slope(DEFAULTS, 100.0, 1e306)
        # The first slope does not depend on h_bs; at 10 GHz the default
        # breakpoint is past the ceiling too.
        assert rma_los(RmaParams(h_bs=1e300), 100.0, 10.0) == rma_los(DEFAULTS, 100.0, 10.0)


class TestHugeBuildingHeight:
    # Both h terms of the LOS first slope are capped below h = 100 m.
    def test_los_is_finite_and_its_h_terms_stay_capped(self):
        huge, capped = RmaParams(h=1e300), RmaParams(h=100.0)
        gap = rma_los(huge, 100.0, 10.0) - rma_los(capped, 100.0, 10.0)
        assert gap == pytest.approx(0.002 * (300.0 - 2.0) * 100.0, rel=1e-9)

    @pytest.mark.parametrize("h", [1e160, 1e300])
    def test_nlos_overflow_is_one_overflow_error(self, h):
        with pytest.raises(OverflowError) as err:
            rma_nlos(RmaParams(h=h), 100.0, 10.0)
        assert str(err.value) == "the result overflows a float"

    def test_nlos_below_the_overflow_is_the_formula(self):
        assert 1e297 < rma_nlos(RmaParams(h=1e150), 100.0, 10.0) < math.inf

    def test_nlos_at_a_1m_base_station_is_finite(self):
        # log10(h_bs) = 0 cancels the (h / h_bs)**2 term, however large it is.
        h, w, h_ut, d3d, fc = 1e300, 20.0, 1.5, 100.0, 10.0
        expected = (161.04 - 7.1 * math.log10(w) + 7.5 * math.log10(h)
                    + 43.42 * (math.log10(d3d) - 3.0) + 20.0 * math.log10(fc)
                    - (3.2 * math.log10(11.75 * h_ut) ** 2 - 4.97))
        params = RmaParams(h_bs=1.0, h_ut=h_ut, w=w, h=h)
        assert rma_nlos(params, d3d, fc) == pytest.approx(expected, rel=1e-12)
        assert expected > rma_los(params, d3d, fc)  # the LOS bound is not what applies


class TestOutputType:
    @pytest.mark.parametrize("d", [100.0, np.float64(100.0), np.array(100.0)])
    def test_scalar_inputs_give_a_float(self, d):
        for value in (rma_los(DEFAULTS, d, 2.0), rma_nlos(DEFAULTS, d, 2.0),
                      ci_pathloss(2.0, d, 2.0), distance_3d(d, 35.0, 1.5)):
            assert type(value) is float

    def test_array_input_gives_an_array(self):
        assert rma_los(DEFAULTS, np.array([100.0]), 2.0).shape == (1,)
        assert breakpoint_distance(35.0, 1.5, np.array([2.0, 3.0])).shape == (2,)


class TestRmaNlos:
    def test_los_bound_active_close_in(self):
        # raw NLOS expression gives ~79.6 dB at 10 m; the LOS bound wins
        value = rma_nlos(DEFAULTS, 10.0, 73.5)
        assert value == pytest.approx(89.55847188108463, abs=1e-9)
        assert value == rma_los(DEFAULTS, 10.0, 73.5)

    def test_nlos_branch_at_1km(self):
        assert rma_nlos(DEFAULTS, 1000.0, 73.5) == pytest.approx(156.85928254427287, abs=1e-9)

    def test_at_5km(self):
        assert rma_nlos(DEFAULTS, 5000.0, 73.5) == pytest.approx(183.8628626648135, abs=1e-9)

    def test_never_below_los(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(10.0, 5000.0, 500)
        for fc in (1.0, 6.0, 28.0, 73.5):
            assert np.all(rma_nlos(DEFAULTS, d, fc) >= rma_los(DEFAULTS, d, fc))

    @pytest.mark.parametrize("d", [5.0, 5001.0])
    def test_out_of_span_rejected(self, d):
        with pytest.raises(ApplicabilityError):
            rma_nlos(DEFAULTS, d, 73.5)

    def test_vectorized_matches_scalar(self):
        d = np.array([10.0, 50.0, 1000.0, 5000.0])
        expected = [rma_nlos(DEFAULTS, float(x), 73.5) for x in d]
        assert np.array_equal(rma_nlos(DEFAULTS, d, 73.5), expected)


class TestRmaParams:
    def test_defaults(self):
        assert (DEFAULTS.h_bs, DEFAULTS.h_ut, DEFAULTS.w, DEFAULTS.h) == (35.0, 1.5, 20.0, 5.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RmaParams(h_bs=0.0)

    def test_out_of_applicability_range_constructs(self):
        # out-of-range values are a validation finding, not a hard failure
        RmaParams(h=60.0)

    @pytest.mark.parametrize("field", ["h_bs", "h_ut", "w", "h"])
    def test_rejects_an_array(self, field):
        with pytest.raises(ValueError) as err:
            RmaParams(**{field: np.array([5.0, 10.0])})
        assert str(err.value) == f"{field} must be a number"

    @pytest.mark.parametrize("value,stored", [
        (Decimal(5), 5.0), (np.float32(7.3), float(np.float32(7.3))), (True, 1.0),
    ], ids=["Decimal", "float32", "True"])
    def test_holds_the_float_its_gate_returns(self, value, stored):
        params = RmaParams(h=value)
        assert params.h == stored and type(params.h) is float
        assert rma_nlos(params, 1000.0, 28.0) == rma_nlos(RmaParams(h=stored), 1000.0, 28.0)

    def test_every_field_is_a_float(self):
        params = RmaParams(h_bs=np.int64(35), h_ut=Decimal("1.5"), w=np.float32(20.0), h=True)
        assert params == RmaParams(35.0, 1.5, 20.0, 1.0)
        assert {type(value) for value in vars(params).values()} == {float}


class TestValidateApplicability:
    def test_all_in_range_is_clean(self):
        findings = validate_applicability(DEFAULTS, 1000.0, 28.0, Environment.LOS)
        assert findings == []

    @pytest.mark.parametrize("environment,d2d", [
        (Environment.LOS, 10.0), (Environment.LOS, 10_000.0),
        (Environment.NLOS, 10.0), (Environment.NLOS, 5_000.0),
    ])
    def test_span_endpoints_are_inside(self, environment, d2d):
        assert validate_applicability(DEFAULTS, d2d, 2.0, environment) == []

    def test_distance_beyond_los_ceiling_is_hard(self):
        findings = validate_applicability(DEFAULTS, 20_000.0, 1.0, Environment.LOS)
        assert [f.severity for f in findings] == ["hard"]
        assert findings[0].field == "d2d_m"

    def test_nlos_span_is_tighter(self):
        assert validate_applicability(DEFAULTS, 7000.0, 1.0, Environment.NLOS)
        assert not validate_applicability(DEFAULTS, 7000.0, 1.0, Environment.LOS)

    @pytest.mark.parametrize("fc", [0.8, 30.0])
    def test_footnote_frequency_endpoints_are_inside(self, fc):
        assert validate_applicability(DEFAULTS, 1000.0, fc, Environment.LOS) == []

    @pytest.mark.parametrize("fc", [math.nextafter(0.8, 0.0), math.nextafter(30.0, math.inf)])
    def test_frequency_just_past_the_footnote_range_is_soft(self, fc):
        findings = validate_applicability(DEFAULTS, 1000.0, fc, Environment.LOS)
        assert [(f.severity, f.field) for f in findings] == [("soft", "fc_ghz")]
        assert "[0.8, 30] GHz" in findings[0].message

    def test_mmwave_frequency_is_soft_warning_only(self):
        findings = validate_applicability(DEFAULTS, 1000.0, 73.5, Environment.LOS)
        assert len(findings) == 1
        assert findings[0].severity == "soft"
        assert findings[0].field == "fc_ghz"

    def test_out_of_range_parameter_is_soft(self):
        findings = validate_applicability(RmaParams(h_bs=200.0), 1000.0, 2.0,
                                          Environment.LOS)
        assert [(f.severity, f.field) for f in findings] == [("soft", "h_bs")]

    @pytest.mark.parametrize("d2d,expected", [(7000.0, []), (20_000.0, ["d2d_m"])])
    def test_environment_value_takes_its_span(self, d2d, expected):
        findings = validate_applicability(DEFAULTS, d2d, 2.0, "LOS")
        assert [f.field for f in findings] == expected
        assert findings == validate_applicability(DEFAULTS, d2d, 2.0, Environment.LOS)

    def test_unknown_environment_is_one_line_value_error(self):
        with pytest.raises(ValueError) as err:
            validate_applicability(DEFAULTS, 1000.0, 2.0, "los")
        assert str(err.value) == "'los' is not a valid Environment"

    @pytest.mark.parametrize("d2d,fc,name", [
        ("73", 2.0, "d2d_m"), (None, 2.0, "d2d_m"), (b"73", 2.0, "d2d_m"),
        (1000.0, "28", "fc_ghz"), (1000.0, None, "fc_ghz"), ("73", None, "d2d_m"),
        (10**400, 2.0, "d2d_m"), (1000.0, -10**400, "fc_ghz"),
    ])
    def test_text_or_none_is_one_line_value_error(self, d2d, fc, name):
        with pytest.raises(ValueError) as err:
            validate_applicability(DEFAULTS, d2d, fc, Environment.NLOS)
        assert str(err.value) == f"{name} must be a number"


# The link-query chain over the benchmark's frequencies and height pairs,
# with ground distances across each environment's hard span.
QUERY_FREQS_GHZ = (0.9, 2.0, 3.5, 6.0, 15.0, 28.0, 38.0, 60.0, 73.5, 100.0)
QUERY_HEIGHTS_M = ((35.0, 1.5), (25.0, 1.5), (60.0, 2.0))


def link_query(params, d2d, fc, model, ple):
    d3d = distance_3d(d2d, params.h_bs, params.h_ut)
    pl = model(params, d3d, fc)
    return d3d, pl, ci_pathloss(fc, d3d, ple), max_range(fc, ple, pl)


@pytest.mark.parametrize("model,ple,span_2d", [(rma_los, 2.31, 10_000.0),
                                               (rma_nlos, 3.04, 5_000.0)])
@pytest.mark.parametrize("h_bs,h_ut", QUERY_HEIGHTS_M)
def test_link_query_chain_is_its_one_element_array_chain(model, ple, span_2d, h_bs, h_ut):
    # Scalars take the gate's float test, one-element arrays np.asarray: the same bits.
    params = RmaParams(h_bs=h_bs, h_ut=h_ut)
    for fc in QUERY_FREQS_GHZ:
        for d2d in np.geomspace(10.0, span_2d, 20).tolist():
            scalar = link_query(params, d2d, fc, model, ple)
            array = link_query(params, np.array([d2d]), np.array([fc]), model, np.array([ple]))
            assert all(type(s) is float for s in scalar)
            assert scalar == tuple(a[0] for a in array)
