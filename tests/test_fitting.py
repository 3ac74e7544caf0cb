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

    def test_sub_reference_distance_rejected(self):
        with pytest.raises(ValueError):
            fit_ci(dataset([28.0, 28.0], [0.5, 5.0], [60.0, 80.0]))

    @pytest.mark.parametrize("fc,d,pl,message", [
        ([0.0, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([-1.0, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([math.nan, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([math.inf, 1.0], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
        ([1.0, 1.0], [math.nan, 100.0], [100.0, 120.0], "CI fit requires finite distances"),
        ([1.0, 1.0], [10.0, math.inf], [100.0, 120.0], "CI fit requires finite distances"),
        ([1.0, 1.0], [-math.inf, 100.0], [100.0, 120.0], "CI fit requires finite distances"),
        ([1.0, 1.0], [0.5, 100.0], [100.0, 120.0], "CI fit requires all distances >= 1 m"),
        ([1.0, 1.0], [10.0, 100.0], [math.nan, 120.0], "CI fit requires finite path losses"),
        ([1.0, 1.0], [10.0, 100.0], [100.0, -math.inf], "CI fit requires finite path losses"),
        (["1.0", "1.0"], [10.0, 100.0], [100.0, 120.0], "fc_ghz must be finite and positive"),
    ])
    def test_bad_values_rejected(self, fc, d, pl, message):
        with pytest.raises(ValueError) as err:
            fit_ci_arrays(fc, d, pl, Environment.LOS)
        assert str(err.value) == message

    @pytest.mark.parametrize("pl", [[1e308, 1e308], [1e200, -1e200]],
                             ids=["sum-overflows", "residual-square-overflows"])
    def test_overflowing_fit_raises_without_a_numpy_warning(self, pl):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as err:
                fit_ci_arrays([73.5, 73.5], [10.0, 100.0], pl, Environment.LOS)
        assert str(err.value) == "the CI fit overflows a float"

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
