"""CI model fitting: exact recovery, optimality, and the recalibration."""

import math
import warnings

import numpy as np
import pytest

from rmapath import (
    CiFitResult,
    DegenerateFitError,
    Environment,
    SimulatedDataset,
    SimulationConfig,
    ci_pathloss,
    fit_ci,
    fit_ci_arrays,
    fit_report_dict,
    generate_3gpp_dataset,
    reproduce_3gpp_ci,
)


def dataset(fc, d, pl, environment=Environment.LOS):
    fc, d, pl = (np.asarray(x, dtype=float) for x in (fc, d, pl))
    return SimulatedDataset(environment, fc, d, d, pl, seed=None, sampling_mode=None)


def ci_samples(ple, d_values, fc_values, environment=Environment.LOS, sigma=0.0, seed=0):
    rng = np.random.default_rng(seed)
    pl = [ci_pathloss(fc, d, ple) + (rng.normal(0.0, sigma) if sigma else 0.0)
          for d, fc in zip(d_values, fc_values)]
    return dataset(fc_values, d_values, pl, environment)


def excess_and_basis(samples):
    # direct transcription of the fitted quantities, as the test-side oracle
    a = np.array([pl - 32.4 - 20 * math.log10(fc)
                  for fc, pl in zip(samples.fc_ghz, samples.pl_db)])
    b = np.array([10 * math.log10(d) for d in samples.d3d_m])
    return a, b


class TestFitCi:
    @pytest.mark.parametrize("ple", [1.0, 2.16, 3.7, 5.0])
    def test_noiseless_recovery_is_exact(self, ple):
        d = np.geomspace(1.0, 15_000.0, 25)
        fc = np.linspace(0.5, 100.0, 25)
        fit = fit_ci(ci_samples(ple, d, fc))
        assert abs(fit.n - ple) < 1e-9
        assert fit.sigma_db < 1e-9
        assert abs(fit.mean_residual_db) < 1e-9

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_ci(ci_samples(2.0, [100.0], [28.0]))

    def test_all_samples_at_reference_distance_rejected(self):
        with pytest.raises(DegenerateFitError):
            fit_ci(ci_samples(2.0, [1.0, 1.0, 1.0], [1.0, 28.0, 73.5]))

    @pytest.mark.parametrize("environment", list(Environment))
    def test_a_degenerate_fit_names_its_environment(self, environment):
        with pytest.raises(DegenerateFitError) as err:
            fit_ci_arrays(28.0, [100.0], [120.0], environment)
        assert str(err.value) == f"need at least 2 {environment.value} samples to fit an exponent"
        with pytest.raises(DegenerateFitError) as err:
            fit_ci_arrays(28.0, [1.0, 1.0], [60.0, 61.0], environment)
        assert str(err.value) == (f"all {environment.value} samples at the 1 m reference "
                                  "distance; exponent unidentifiable")

    def test_sub_reference_distance_rejected(self):
        with pytest.raises(ValueError):
            fit_ci(dataset([28.0, 28.0], [0.5, 5.0], [60.0, 80.0]))

    @pytest.mark.parametrize("fc,d,pl,message", [
        ([0.0, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([-1.0, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([math.nan, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([math.inf, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([1.0, 1.0], [math.nan, 100.0], [100.0, 120.0], "d_m must be finite and positive"),
        ([1.0, 1.0], [10.0, math.inf], [100.0, 120.0], "d_m must be finite and positive"),
        ([1.0, 1.0], [-math.inf, 100.0], [100.0, 120.0], "d_m must be finite and positive"),
        ([1.0, 1.0], [0.5, 100.0], [100.0, 120.0], "CI fit requires all distances >= 1 m"),
        ([1.0, 1.0], [10.0, 100.0], [math.nan, 120.0], "pl_db must be finite"),
        ([1.0, 1.0], [10.0, 100.0], [100.0, -math.inf], "pl_db must be finite"),
        (["1.0", "1.0"], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([28.0, 28.0], ["10", "100"], [100.0, 120.0], "d_m must be finite and positive"),
        ([28.0, 28.0], [10.0, 100.0], ["100", "120"], "pl_db must be finite"),
        ([28.0, 28.0], [0.0, 100.0], [100.0, 120.0], "d_m must be finite and positive"),
    ])
    def test_bad_values_rejected(self, fc, d, pl, message):
        with pytest.raises(ValueError) as err:
            fit_ci_arrays(fc, d, pl, Environment.LOS)
        assert str(err.value) == message

    @pytest.mark.parametrize("fc,d,pl", [
        (28.0, [[10.0, 100.0], [20.0, 200.0]], [100.0, 120.0]),
        (28.0, [10.0, 100.0], [[100.0, 120.0], [110.0, 130.0]]),
        ([[28.0], [73.5]], [10.0, 100.0], [100.0, 120.0]),
        (28.0, [10.0, 100.0, 1000.0], 120.0),
        (28.0, [10.0, 100.0, 1000.0], [100.0, 120.0]),
        ([28.0, 28.0], [10.0, 100.0, 1000.0], [100.0, 120.0, 140.0]),
        ([28.0], [10.0, 100.0], [100.0, 120.0]),
    ], ids=["d-2d", "pl-2d", "fc-2d", "pl-scalar", "pl-shorter", "fc-shorter", "fc-one-row"])
    def test_columns_of_another_shape_rejected(self, fc, d, pl):
        with pytest.raises(ValueError) as err:
            fit_ci_arrays(fc, d, pl, Environment.LOS)
        assert str(err.value) == ("fc_ghz (or one number), d_m and pl_db must be 1-D and of "
                                  "one length")

    @pytest.mark.parametrize("pl", [[1e308, 1e308], [1e200, -1e200]],
                             ids=["sum-overflows", "residual-square-overflows"])
    def test_overflowing_fit_raises_without_a_numpy_warning(self, pl):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as err:
                fit_ci_arrays([73.5, 73.5], [10.0, 100.0], pl, Environment.LOS)
        assert str(err.value) == "the result overflows a float"

    def test_frequency_shift_absorbed_by_anchor(self):
        # scaling every frequency by k and adding 20*log10(k) to every loss
        # must leave the fit unchanged
        d = np.geomspace(5.0, 9_000.0, 40)
        fc = np.linspace(1.0, 73.5, 40)
        base = ci_samples(2.75, d, fc, sigma=6.0, seed=3)
        k = 3.7
        shifted = dataset(base.fc_ghz * k, base.d3d_m, base.pl_db + 20 * math.log10(k))
        fit_a, fit_b = fit_ci(base), fit_ci(shifted)
        assert fit_a.n == pytest.approx(fit_b.n, abs=1e-9)
        assert fit_a.sigma_db == pytest.approx(fit_b.sigma_db, abs=1e-9)

    def test_fitted_exponent_minimizes_squared_residuals(self):
        samples = ci_samples(2.3, np.geomspace(2.0, 8_000.0, 60),
                             np.full(60, 73.5), sigma=5.0, seed=4)
        fit = fit_ci(samples)
        a, b = excess_and_basis(samples)

        def sse(n):
            return float(np.sum((a - n * b) ** 2))

        assert sse(fit.n + 0.01) > sse(fit.n)
        assert sse(fit.n - 0.01) > sse(fit.n)

    def test_weighted_residual_sum_is_zero(self):
        samples = ci_samples(3.1, np.geomspace(2.0, 8_000.0, 60),
                             np.full(60, 28.0), sigma=8.0, seed=5)
        fit = fit_ci(samples)
        a, b = excess_and_basis(samples)
        assert float(np.sum((a - fit.n * b) * b)) == pytest.approx(0.0, abs=1e-9)

    def test_order_invariant(self):
        samples = ci_samples(2.5, np.geomspace(2.0, 8_000.0, 100),
                             np.full(100, 38.0), sigma=4.0, seed=6)
        order = np.random.default_rng(0).permutation(len(samples))
        shuffled = dataset(samples.fc_ghz[order], samples.d3d_m[order], samples.pl_db[order])
        assert fit_ci(samples).n == pytest.approx(fit_ci(shuffled).n, rel=1e-12)

    def test_fits_on_3d_distance(self):
        config = SimulationConfig(environment=Environment.NLOS,
                                  frequencies_ghz=(1.0, 73.0),
                                  samples_per_frequency=500, seed=8)
        generated = generate_3gpp_dataset(config)
        assert fit_ci(generated) == fit_ci_arrays(generated.fc_ghz, generated.d3d_m,
                                                  generated.pl_db, Environment.NLOS)
        assert fit_ci(generated) != fit_ci_arrays(generated.fc_ghz, generated.d2d_m,
                                                  generated.pl_db, Environment.NLOS)

    @pytest.mark.parametrize("environment", list(Environment))
    def test_agrees_with_exactly_rounded_sums_at_paper_scale(self, environment):
        generated = generate_3gpp_dataset(SimulationConfig(environment, seed=73))
        fit = fit_ci(generated)
        a = generated.pl_db - 32.4 - 20.0 * np.log10(generated.fc_ghz)
        b = 10.0 * np.log10(generated.d3d_m)
        n = math.fsum((a * b).tolist()) / math.fsum((b * b).tolist())
        r = (a - n * b).tolist()
        expected = (n, math.sqrt(math.fsum(x * x for x in r) / len(r)), math.fsum(r) / len(r))
        assert fit.count == len(r) == 450_000
        assert (fit.n, fit.sigma_db, fit.mean_residual_db) == pytest.approx(expected, rel=1e-12)


class TestFitInPlace:
    """``fit_ci_arrays`` computes its terms in place, with the operations of the
    expression below in the same order, and never in an input array."""

    @staticmethod
    def expression(fc, d, pl):
        a = pl - 32.4 - 20.0 * np.log10(fc)
        b = 10.0 * np.log10(d)
        n = float(a @ b) / float(b @ b)
        r = a - n * b
        return n, float(np.sqrt(np.mean(r * r))), float(np.mean(r))

    @pytest.mark.parametrize("scalar_fc", [False, True], ids=["fc-column", "fc-number"])
    @pytest.mark.parametrize("environment", list(Environment))
    def test_equals_the_expression_bit_for_bit(self, environment, scalar_fc):
        generated = generate_3gpp_dataset(SimulationConfig(
            environment, frequencies_ghz=(2.0, 28.0, 73.0), samples_per_frequency=5_000,
            seed=73))
        fc = np.float64(28.0) if scalar_fc else generated.fc_ghz
        fit = fit_ci_arrays(fc, generated.d3d_m, generated.pl_db, environment)
        assert (fit.n, fit.sigma_db, fit.mean_residual_db) == self.expression(
            fc, generated.d3d_m, generated.pl_db)

    @pytest.mark.parametrize("writeable", [False, True], ids=["read-only", "caller-owned"])
    def test_inputs_are_left_unchanged(self, writeable):
        generated = generate_3gpp_dataset(SimulationConfig(
            Environment.LOS, frequencies_ghz=(28.0, 73.0), samples_per_frequency=500, seed=5))
        columns = [generated.fc_ghz.copy(), generated.d3d_m.copy(), generated.pl_db.copy()]
        for column in columns:
            column.flags.writeable = writeable
        expected = [column.copy() for column in columns]
        fit_ci_arrays(*columns, Environment.LOS)
        for column, before in zip(columns, expected):
            assert np.array_equal(column, before)


class TestReproduce3gppCi:
    def test_los_matches_published_recalibration(self):
        fit = reproduce_3gpp_ci(Environment.LOS, seed=0)
        assert fit.count == 450_000
        assert 2.21 <= fit.n <= 2.41
        assert 5.3 <= fit.sigma_db <= 6.5

    def test_nlos_matches_published_recalibration(self):
        fit = reproduce_3gpp_ci(Environment.NLOS, seed=0)
        assert fit.count == 450_000
        assert 2.94 <= fit.n <= 3.14
        assert 7.7 <= fit.sigma_db <= 8.9

    def test_same_seed_is_bit_identical(self):
        assert reproduce_3gpp_ci(Environment.LOS, seed=42) == \
            reproduce_3gpp_ci(Environment.LOS, seed=42)

    def test_accepts_environment_string(self):
        fit = reproduce_3gpp_ci("NLOS", seed=1)
        assert fit.environment is Environment.NLOS


class TestFitReport:
    def test_environment_text_is_coerced(self):
        fit = fit_ci_arrays([28.0, 28.0], [10.0, 100.0], [100.0, 120.0], "LOS")
        assert fit.environment is Environment.LOS
        assert fit_report_dict(fit, source="x")["environment"] == "LOS"

    def test_unknown_environment_is_one_line_value_error(self):
        with pytest.raises(ValueError) as err:
            fit_ci_arrays([28.0, 28.0], [10.0, 100.0], [100.0, 120.0], "los")
        assert str(err.value) == "'los' is not a valid Environment"

    def test_report_keys_and_values(self):
        result = CiFitResult(n=2.31, sigma_db=5.9, count=450_000,
                             mean_residual_db=-0.3, environment=Environment.LOS)
        report = fit_report_dict(result, source="run.csv", seed=7,
                                 sampling_mode="linear")
        assert report == {
            "environment": "LOS",
            "n": 2.31,
            "sigma_db": 5.9,
            "count": 450_000,
            "mean_residual_db": -0.3,
            "source": "run.csv",
            "seed": 7,
            "sampling_mode": "linear",
        }
