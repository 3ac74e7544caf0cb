"""Monte Carlo dataset generation: determinism, substreams, oracles."""

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from rmapath import (
    DATASET_CSV_HEADER,
    DEFAULT_FREQUENCIES_GHZ,
    RMA_LOS_D2D_RANGE_M,
    RMA_NLOS_D2D_RANGE_M,
    Environment,
    RmaParams,
    SimulatedDataset,
    SimulationConfig,
    distance_3d,
    generate_3gpp_dataset,
    los_second_slope,
    read_dataset_csv,
    rma_los,
    rma_nlos,
)
from rmapath.simulate import SAMPLING_MODES

PARAMS = RmaParams()
HEADER_LINE = ",".join(DATASET_CSV_HEADER) + "\n"
SAMPLES_PAST_A_DIMENSION = (f"samples_per_frequency must be at most "
                            f"{np.iinfo(np.intp).max // 288} for 9 frequencies")


def small_config(environment=Environment.NLOS, **overrides):
    defaults = dict(
        environment=environment,
        samples_per_frequency=200,
        seed=99,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestSimulationConfig:
    def test_defaults_are_recalibration_setup(self):
        assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
            "environment", "samples_per_frequency", "params", "seed", "distance_sampling"]
        config = SimulationConfig(environment=Environment.LOS)
        assert config.samples_per_frequency == 50_000
        assert (config.params, config.seed, config.distance_sampling) == (PARAMS, 0, "linear")

    def test_environment_is_taken_by_its_value(self):
        assert SimulationConfig(environment="LOS").environment is Environment.LOS
        with pytest.raises(ValueError):
            SimulationConfig(environment="los")

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(environment=Environment.LOS, samples_per_frequency=0)

    def test_unknown_sampling_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(environment=Environment.LOS, distance_sampling="sobol")

    # The dataset's cases, with None now a value the config cannot hold.
    @pytest.mark.parametrize("seed,mode,message", [
        (-1, "linear", "seed must be a plain decimal integer in [0, 2**64), got '-1'"),
        (2**64, "linear", "seed must be a plain decimal integer in [0, 2**64), "
                          "got '18446744073709551616'"),
        (True, "linear", "seed must be an integer, got 'True'"),
        (7.0, "linear", "seed must be an integer, got '7.0'"),
        ("5", "linear", "seed must be an integer, got '5'"),
        (None, "linear", "seed must be an integer, got 'None'"),
        (0, "a,b", "sampling_mode must be linear or log, got 'a,b'"),
        (0, "", "sampling_mode must be linear or log, got ''"),
        (0, "linearX", "sampling_mode must be linear or log, got 'linearX'"),
        (0, None, "sampling_mode must be linear or log, got 'None'"),
    ], ids=["seed-negative", "seed-2**64", "seed-True", "seed-float", "seed-str", "seed-None",
            "mode-comma", "mode-empty", "mode-linearX", "mode-None"])
    def test_config_holds_seed_and_mode_to_the_dataset_rule(self, seed, mode, message):
        with pytest.raises(ValueError) as err:
            small_config(seed=seed, distance_sampling=mode)
        assert str(err.value) == message

    @pytest.mark.parametrize("overrides,message", [
        (dict(samples_per_frequency=1.5), "samples_per_frequency must be a positive integer"),
        (dict(samples_per_frequency=True), "samples_per_frequency must be a positive integer"),
        (dict(samples_per_frequency=np.int64(-3)),
         "samples_per_frequency must be a positive integer"),
        (dict(samples_per_frequency=np.array([3])),
         "samples_per_frequency must be a positive integer"),
        # Past one numpy array of four float64 rows of all samples, not numpy's own late error.
        (dict(samples_per_frequency=10**400), SAMPLES_PAST_A_DIMENSION),
        (dict(samples_per_frequency=2**62), SAMPLES_PAST_A_DIMENSION),
        (dict(samples_per_frequency=np.iinfo(np.intp).max // 288 + 1), SAMPLES_PAST_A_DIMENSION),
        (dict(params=None), "params must be an RmaParams, got NoneType"),
        (dict(params=(35.0, 1.5, 20.0, 5.0)), "params must be an RmaParams, got tuple"),
        (dict(samples_per_frequency=np.int64(3)), None),
    ], ids=["samples-float", "samples-bool", "samples-negative-numpy", "samples-array",
            "samples-10**400", "samples-2**62", "samples-one-past-the-bound",
            "params-None", "params-tuple", "numpy-numbers-accepted"])
    def test_config_input_types(self, overrides, message):
        if message is None:
            assert len(generate_3gpp_dataset(small_config(**overrides))) == 27
            return
        with pytest.raises(ValueError) as err:
            small_config(**overrides)
        assert str(err.value) == message

    def test_the_largest_sample_count_is_accepted(self):
        count = np.iinfo(np.intp).max // 288  # four 8-byte float rows of nine frequencies
        assert small_config(samples_per_frequency=count).samples_per_frequency == count

    def test_numpy_integer_seed_is_accepted(self):
        dataset = generate_3gpp_dataset(small_config(seed=np.uint64(5)))
        assert np.array_equal(dataset.pl_db, generate_3gpp_dataset(small_config(seed=5)).pl_db)
        assert dataset.seed == 5


def per_frequency_columns(config):
    """The dataset columns as a generator of fresh arrays per frequency makes them:
    ``rng.normal`` with a sigma array for the shadow fading, then ``np.concatenate``."""
    params, n = config.params, config.samples_per_frequency
    low, high = (RMA_LOS_D2D_RANGE_M if config.environment is Environment.LOS
                 else RMA_NLOS_D2D_RANGE_M)
    blocks = []
    for index, fc in enumerate(DEFAULT_FREQUENCIES_GHZ):
        rng = np.random.default_rng([config.seed, index])
        if config.distance_sampling == "linear":
            d2d = rng.uniform(low, high, n)
        else:
            d2d = 10.0 ** rng.uniform(np.log10(low), np.log10(high), n)
        d3d = distance_3d(d2d, params.h_bs, params.h_ut)
        if config.environment is Environment.LOS:
            mean_pl = rma_los(params, d3d, fc)
            sigma = np.where(los_second_slope(params, d3d, fc), 6.0, 4.0)
        else:
            mean_pl, sigma = rma_nlos(params, d3d, fc), 8.0
        blocks.append((np.full(n, fc), d2d, d3d, mean_pl + rng.normal(0.0, sigma, n)))
    return [np.concatenate(column) for column in zip(*blocks)]


def mean_model(dataset):
    """The RMa mean model at a dataset's 3D distances, one frequency at a time."""
    model = rma_los if dataset.environment is Environment.LOS else rma_nlos
    mean = np.empty_like(dataset.pl_db)
    for fc in np.unique(dataset.fc_ghz):
        at = dataset.fc_ghz == fc
        mean[at] = model(PARAMS, dataset.d3d_m[at], float(fc))
    return mean


class TestGenerate:
    @pytest.mark.parametrize("mode", ["linear", "log"], ids=["linear-shadow", "log-shadow"])
    @pytest.mark.parametrize("environment", list(Environment))
    def test_columns_equal_the_per_frequency_generator(self, environment, mode):
        # 1, 2 and 6 GHz have a LOS breakpoint inside the 10 km span, 15 GHz and up past it
        config = small_config(environment, samples_per_frequency=2_000, seed=73,
                              distance_sampling=mode)
        dataset = generate_3gpp_dataset(config)
        columns = [dataset.fc_ghz, dataset.d2d_m, dataset.d3d_m, dataset.pl_db]
        for column, expected in zip(columns, per_frequency_columns(config), strict=True):
            assert np.array_equal(column, expected)

    def test_columns_are_rows_of_one_block(self):
        dataset = generate_3gpp_dataset(small_config())
        block = dataset.fc_ghz.base
        assert block.shape == (4, 1_800)
        for row, field in enumerate(("fc_ghz", "d2d_m", "d3d_m", "pl_db")):
            assert getattr(dataset, field).base is block
            assert np.shares_memory(getattr(dataset, field), block[row])

    def test_sample_count(self):
        dataset = generate_3gpp_dataset(small_config())
        assert len(dataset) == 9 * 200

    def test_full_count_is_450k(self):
        config = SimulationConfig(environment=Environment.LOS, seed=1)
        assert len(DEFAULT_FREQUENCIES_GHZ) * config.samples_per_frequency == 450_000

    @pytest.mark.parametrize("mode", ["linear", "log"])
    def test_distances_within_bounds(self, mode):
        for environment, (low, high) in ((Environment.LOS, RMA_LOS_D2D_RANGE_M),
                                         (Environment.NLOS, RMA_NLOS_D2D_RANGE_M)):
            dataset = generate_3gpp_dataset(small_config(environment, distance_sampling=mode))
            assert np.all(dataset.d2d_m >= low) and np.all(dataset.d2d_m <= high)

    def test_d3d_matches_geometry(self):
        dataset = generate_3gpp_dataset(small_config())
        dh = PARAMS.h_bs - PARAMS.h_ut
        assert np.array_equal(dataset.d3d_m, np.sqrt(dataset.d2d_m**2 + dh**2))

    def test_no_shadowing_equals_mean_model_exactly(self):
        # ground distances over the whole closed NLOS span: the public model
        # admits every 3D distance they map to
        dataset = generate_3gpp_dataset(small_config())
        for fc, d3d, pl in zip(dataset.fc_ghz, dataset.d3d_m, mean_model(dataset)):
            assert pl == rma_nlos(PARAMS, float(d3d), float(fc))

    def test_deterministic_for_equal_config(self):
        a = generate_3gpp_dataset(small_config())
        b = generate_3gpp_dataset(small_config())
        for field in ("fc_ghz", "d2d_m", "d3d_m", "pl_db"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_seed_changes_output(self):
        a = generate_3gpp_dataset(small_config(seed=1))
        b = generate_3gpp_dataset(small_config(seed=2))
        assert not np.array_equal(a.pl_db, b.pl_db)

    def test_frequency_substreams_independent_of_sample_count(self):
        short = generate_3gpp_dataset(small_config(samples_per_frequency=100))
        long = generate_3gpp_dataset(small_config(samples_per_frequency=300))
        for k in range(len(DEFAULT_FREQUENCIES_GHZ)):
            expected = long.d2d_m[k * 300:k * 300 + 100]
            assert np.array_equal(short.d2d_m[k * 100:(k + 1) * 100], expected)

    def test_los_sigma_switches_at_breakpoint(self):
        # at 1 GHz the breakpoint is ~1.1 km; with the mean removed, the
        # shadow draws must show sigma ~4 before and ~6 after
        config = SimulationConfig(environment=Environment.LOS,
                                  samples_per_frequency=40_000, seed=5)
        noisy = generate_3gpp_dataset(config)
        at_1ghz = noisy.fc_ghz == 1.0
        chi = (noisy.pl_db - mean_model(noisy))[at_1ghz]
        d3d = noisy.d3d_m[at_1ghz]
        dbp = 2 * math.pi * 35.0 * 1.5 * 1e9 / 3e8
        before = chi[d3d <= dbp]
        after = chi[d3d > dbp]
        assert before.std() == pytest.approx(4.0, abs=0.15)
        assert after.std() == pytest.approx(6.0, abs=0.15)

    def test_nlos_shadow_fading_moments_at_sigma_8(self):
        # seeded, so these large-sample bounds are deterministic
        noisy = generate_3gpp_dataset(small_config(samples_per_frequency=40_000, seed=7))
        chi = noisy.pl_db - mean_model(noisy)
        assert abs(chi.mean()) < 0.1 and abs(chi.std() - 8.0) < 0.1

    def test_high_frequency_los_is_single_log_distance_line(self):
        # the mean model above 9.1 GHz: removing the small linear-in-d
        # term leaves an exact line in log10(d)
        config = SimulationConfig(environment=Environment.LOS,
                                  samples_per_frequency=2_000, seed=11)
        dataset = generate_3gpp_dataset(config)
        mean = mean_model(dataset)
        for fc in (15.0, 73.0):
            mask = dataset.fc_ghz == fc
            x = np.log10(dataset.d3d_m[mask])
            y = mean[mask] - 0.002 * math.log10(PARAMS.h) * dataset.d3d_m[mask]
            slope, intercept = np.polyfit(x, y, 1)
            residual = y - (slope * x + intercept)
            assert np.max(np.abs(residual)) < 0.5



class TestDatasetColumns:
    @pytest.mark.parametrize("lengths", [(3, 2, 3, 3), (3, 3, 3, 4), (3, 3, 3, (3, 1))])
    def test_columns_must_be_one_dimensional_and_of_one_length(self, lengths):
        columns = [np.ones(n) for n in lengths]
        with pytest.raises(ValueError) as err:
            SimulatedDataset(Environment.LOS, *columns, None, None)
        assert str(err.value) == "fc_ghz, d2d_m, d3d_m and pl_db must be 1-D and of one length"

    def test_empty_columns_are_a_dataset(self):
        assert len(SimulatedDataset(Environment.LOS, *[np.ones(0)] * 4, None, None)) == 0

    def test_environment_is_taken_by_its_value(self, tmp_path):
        columns = [np.array([28.0, 28.0]), np.array([10.0, 20.0]), np.array([35.0, 40.0]),
                   np.array([90.0, 95.5])]
        by_value, by_member = tmp_path / "value.csv", tmp_path / "member.csv"
        SimulatedDataset("LOS", *columns, 7, "log").write_csv(by_value)
        SimulatedDataset(Environment.LOS, *columns, 7, "log").write_csv(by_member)
        assert by_value.read_bytes() == by_member.read_bytes()

    @pytest.mark.parametrize("field,values", [
        ("fc_ghz", np.array(["28", "28"])),
        ("fc_ghz", np.array([28.0, math.nan])),
        ("d2d_m", np.array([10.0, math.inf])),
        ("d3d_m", np.array([35.0, -math.inf])),
        ("pl_db", np.array([math.nan, 95.5])),
        ("pl_db", np.array([None, 95.5], dtype=object)),
    ], ids=["text", "nan", "inf", "minus-inf", "nan-first", "none"])
    def test_write_rejects_a_column_the_reader_rejects(self, tmp_path, field, values):
        columns = dict(fc_ghz=np.array([28.0, 28.0]), d2d_m=np.array([10.0, 20.0]),
                       d3d_m=np.array([35.0, 40.0]), pl_db=np.array([90.0, 95.5]))
        columns[field] = values
        dataset = SimulatedDataset(Environment.LOS, **columns, seed=None, sampling_mode=None)
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError) as err:
            dataset.write_csv(path)
        assert str(err.value) == f"{field} must be finite"
        assert not path.exists()

    @pytest.mark.parametrize("environment", ["los", "bogus"])
    def test_an_environment_that_is_no_value_is_rejected(self, environment):
        with pytest.raises(ValueError) as err:
            SimulatedDataset(environment, *[np.ones(2)] * 4, None, None)
        assert str(err.value) == f"{environment!r} is not a valid Environment"


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        config = small_config(samples_per_frequency=50)
        dataset = generate_3gpp_dataset(config)
        path = tmp_path / "dataset.csv"
        dataset.write_csv(path)
        datasets = read_dataset_csv(path)
        assert list(datasets) == [Environment.NLOS]
        parsed = datasets[Environment.NLOS]
        assert (parsed.seed, parsed.sampling_mode) == (99, "linear")
        assert len(parsed) == len(dataset)
        for field in ("fc_ghz", "d2d_m", "d3d_m", "pl_db"):
            assert np.array_equal(getattr(parsed, field), getattr(dataset, field))

    def test_one_dataset_per_environment_los_first(self, tmp_path):
        los = generate_3gpp_dataset(small_config(Environment.LOS, samples_per_frequency=4))
        nlos = generate_3gpp_dataset(small_config(samples_per_frequency=3, seed=5))
        los_path, nlos_path, path = (tmp_path / name for name in ("los.csv", "nlos.csv",
                                                                   "mixed.csv"))
        los.write_csv(los_path)
        nlos.write_csv(nlos_path)
        # NLOS rows first in the file; the reader still returns LOS first
        path.write_text(nlos_path.read_text() + los_path.read_text().split("\n", 1)[1])
        datasets = read_dataset_csv(path)
        assert list(datasets) == [Environment.LOS, Environment.NLOS]
        assert [len(ds) for ds in datasets.values()] == [36, 27]
        assert np.array_equal(datasets[Environment.LOS].pl_db, los.pl_db)
        # the seed column is not constant across the file
        assert all(ds.seed is None and ds.sampling_mode == "linear"
                   for ds in datasets.values())

    def test_round_trip_without_seed_or_mode(self, tmp_path):
        dataset = generate_3gpp_dataset(small_config(samples_per_frequency=5))
        unseeded = dataclasses.replace(dataset, seed=None, sampling_mode=None)
        path = tmp_path / "dataset.csv"
        unseeded.write_csv(path)
        parsed = read_dataset_csv(path)[Environment.NLOS]
        assert (parsed.seed, parsed.sampling_mode) == (None, None)
        assert np.array_equal(parsed.pl_db, dataset.pl_db)

    def test_header(self, tmp_path):
        path = tmp_path / "dataset.csv"
        generate_3gpp_dataset(small_config(samples_per_frequency=2)).write_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == "fc_ghz,d2d_m,d3d_m,env,pl_db,seed,sampling_mode"

    def test_write_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_3gpp_dataset(small_config()).write_csv(a)
        generate_3gpp_dataset(small_config()).write_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_streams_blocks_in_row_order(self, tmp_path):
        # more rows than one write block, and a None seed: still the same bytes
        # as formatting each row on its own
        dataset = dataclasses.replace(
            generate_3gpp_dataset(small_config(samples_per_frequency=1_000)), seed=None)
        path = tmp_path / "dataset.csv"
        dataset.write_csv(path)
        rows = [f"{fc!r},{d2d!r},{d3d!r},NLOS,{pl!r},,linear\n" for fc, d2d, d3d, pl in zip(
            dataset.fc_ghz.tolist(), dataset.d2d_m.tolist(), dataset.d3d_m.tolist(),
            dataset.pl_db.tolist())]
        assert len(rows) == 9_000
        assert path.read_text() == ",".join(DATASET_CSV_HEADER) + "\n" + "".join(rows)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text in ("a,b,c\n1,2,3\n", "", ",".join(DATASET_CSV_HEADER) + ",extra\n"):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                read_dataset_csv(path)
            assert str(err.value) == ("missing or invalid header; expected "
                                      "fc_ghz,d2d_m,d3d_m,env,pl_db,seed,sampling_mode")

    def test_rows_are_numbered_by_the_physical_line_they_start_on(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(DATASET_CSV_HEADER) + "\n"
                        + '1.0,100.0,105.0,LOS,"80.0\n",7,linear\n'  # lines 2-3, good
                        + "1.0,100.0,105.0,FOO,80.0,7,linear\n"      # line 4
                        + '1.0,"1\n00",105.0,LOS,80.0,7,linear\n'    # lines 5-6
                        + "\n"                                         # line 7
                        + '1.0,100.0,105.0,LOS,80.0,"x\ny",linear\n')  # lines 8-9
        with pytest.raises(ValueError) as err:
            read_dataset_csv(path)
        assert str(err.value) == "\n".join([
            "line 4: env must be LOS or NLOS, got 'FOO'",
            "line 5: could not convert string to float: '1\\n00'",
            "line 8: seed must be an integer, got 'x\\ny'",
        ])

    @pytest.mark.parametrize("rows,message", [
        (["1.0,100.0,105.0,LOS," + "1" * 200_000 + ",7,linear",
          "1.0,100.0,105.0,FOO,80.0,7,linear"],
         "line 3: field larger than field limit (131072)"),
        (['1.0,100.0,105.0,LOS,"80"0,7,linear'], "line 3: ',' expected after '\"'"),
        (['1.0,100.0,105.0,LOS,80.0,7,"linear'], "line 3: unexpected end of data"),
        # the rest of a quoted field that spans lines is not read as new rows
        (['1.0,100.0,105.0,LOS,"' + "1" * 200_000, '2",7,linear'],
         "line 3: field larger than field limit (131072)"),
    ])
    def test_malformed_csv_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("fc_ghz,d2d_m,d3d_m,env,pl_db,seed,sampling_mode\n"
                        "1.0,100.0,105.0,LOS,80.0,7,linear\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError) as err:
            read_dataset_csv(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("row,message", [
        ("1.0,100.0,105.0,LOS,80.0,7", "line 3: expected 7 fields, got 6"),
        ("1.0,100.0,105.0,FOO,80.0,7,linear", "line 3: env must be LOS or NLOS, got 'FOO'"),
        ("1.0,100.0,105.0,LOS,abc,7,linear", "line 3: could not convert string to float"),
        ("1.0,100.0,105.0,LOS,nan,7,linear", "line 3: pl_db must be finite, got nan"),
        ("1.0,inf,105.0,LOS,80.0,7,linear", "line 3: d2d_m must be finite, got inf"),
        ("1.0,100.0,105.0,LOS,80.0,x,linear", "line 3: seed must be an integer, got 'x'"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("fc_ghz,d2d_m,d3d_m,env,pl_db,seed,sampling_mode\n"
                        "1.0,100.0,105.0,LOS,80.0,7,linear\n" + row + "\n")
        with pytest.raises(ValueError, match=message):
            read_dataset_csv(path)

    @pytest.mark.parametrize("seed,mode", [
        (7, "a,b"), (7, 'x"y'), (7, "lin\near"), (None, "linear"), (7, None), (None, None)])
    def test_write_quotes_seed_and_mode_as_the_csv_module_does(self, tmp_path, seed, mode):
        # a mode the csv module would quote is rejected when the dataset is built
        generated = generate_3gpp_dataset(small_config(samples_per_frequency=4))
        if mode not in (None, "linear"):
            with pytest.raises(ValueError, match="^sampling_mode must be linear or log, got "):
                dataclasses.replace(generated, seed=seed, sampling_mode=mode)
            return
        dataset = dataclasses.replace(generated, seed=seed, sampling_mode=mode)
        path = tmp_path / "dataset.csv"
        dataset.write_csv(path)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(DATASET_CSV_HEADER)
        for row in zip(dataset.fc_ghz.tolist(), dataset.d2d_m.tolist(),
                       dataset.d3d_m.tolist(), dataset.pl_db.tolist()):
            writer.writerow((*map(repr, row[:3]), "NLOS", repr(row[3]), seed, mode))
        assert path.read_bytes() == expected.getvalue().encode()
        parsed = read_dataset_csv(path)[Environment.NLOS]
        assert (parsed.seed, parsed.sampling_mode) == (seed, mode)
        assert np.array_equal(parsed.pl_db, dataset.pl_db)

    @pytest.mark.parametrize("seed", [None, 0, 2**64 - 1])
    @pytest.mark.parametrize("mode", [None, "linear", "log"])
    def test_every_seed_and_mode_round_trips_byte_stably(self, tmp_path, seed, mode):
        dataset = dataclasses.replace(generate_3gpp_dataset(small_config(samples_per_frequency=4)),
                                      seed=seed, sampling_mode=mode)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        dataset.write_csv(first)
        parsed = read_dataset_csv(first)[Environment.NLOS]
        assert (parsed.seed, parsed.sampling_mode) == (seed, mode)
        parsed.write_csv(second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("seed,mode,message", [
        (-1, None, "seed must be a plain decimal integer in [0, 2**64), got '-1'"),
        (2**64, None, "seed must be a plain decimal integer in [0, 2**64), "
                      "got '18446744073709551616'"),
        (True, None, "seed must be an integer, got 'True'"),
        (7.0, None, "seed must be an integer, got '7.0'"),
        ("5", None, "seed must be an integer, got '5'"),
        (None, "a,b", "sampling_mode must be linear or log, got 'a,b'"),
        (None, "", "sampling_mode must be linear or log, got ''"),
        (None, "linearX", "sampling_mode must be linear or log, got 'linearX'"),
    ], ids=["seed-negative", "seed-2**64", "seed-True", "seed-float", "seed-str", "mode-comma",
            "mode-empty", "mode-linearX"])
    def test_dataset_rejects_a_seed_or_mode_write_csv_cannot_write(self, seed, mode, message):
        dataset = generate_3gpp_dataset(small_config(samples_per_frequency=4))
        with pytest.raises(ValueError) as err:
            dataclasses.replace(dataset, seed=seed, sampling_mode=mode)
        assert str(err.value) == message

    # What the row-at-a-time reader gives for text that np.loadtxt splits
    # differently, or that a cut-off text field would hide.
    @pytest.mark.parametrize("text,expected", [
        (HEADER_LINE + "1.0,100.0,105.0,NLOSX,80.0,7,linear\n",
         "line 2: env must be LOS or NLOS, got 'NLOSX'"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linearX\n",
         "line 2: sampling_mode must be linear or log, got 'linearX'"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,123456789012345678901,linear\n",
         "line 2: seed must be a plain decimal integer in [0, 2**64), "
         "got '123456789012345678901'"),
        *[(HEADER_LINE + f"1.0,100.0,105.0,LOS,80.0,{seed},linear\n",
           f"line 2: seed must be a plain decimal integer in [0, 2**64), got {seed!r}")
          for seed in ("-5", "+42", "\u0664\u0662", "042", " 42", "4_2")],
        (HEADER_LINE + '1.0,100.0,105.0,"LO"S,80.0,7,linear\n',
         "line 2: ',' expected after '\"'"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linear\0\n",
         "line 2: sampling_mode must be linear or log, got 'linear\\x00'"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS\0,80.0,7,linear\n",
         "line 2: env must be LOS or NLOS, got 'LOS\\x00'"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7\0,linear\n",
         "line 2: seed must be an integer, got '7\\x00'"),
        (HEADER_LINE + '1.0,100.0,105.0,LOS,80.0,7,"lin\near"\n',
         "line 2: sampling_mode must be linear or log, got 'lin\\near'"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linear\n   \n",
         "line 3: expected 7 fields, got 1"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linear\n# comment\n",
         "line 3: expected 7 fields, got 1"),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80." + "0" * 200_000 + ",7,linear\n",
         "line 2: field larger than field limit (131072)"),
        ((HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linear\n"
          "2.0,200.0,205.0,LOS,90.0,7,linear\n").replace("\n", "\r"),
         (7, "linear", [80.0, 90.0])),
        ((HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linear\n"
          "2.0,200.0,205.0,LOS,90.0,7,linear\n").replace("\n", "\r\n"),
         (7, "linear", [80.0, 90.0])),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linear\r2.0,200.0,205.0,LOS,90.0,7,linear\r",
         (7, "linear", [80.0, 90.0])),
        (HEADER_LINE + "1.0,100.0,105.0,LOS,80.0,7,linear\n2.0,200.0,205.0,LOS,90.0,7,linear",
         (7, "linear", [80.0, 90.0])),
    ], ids=["env-NLOSX", "mode-linearX", "seed-21-digits", "seed-negative", "seed-plus",
            "seed-arabic-indic", "seed-leading-zero", "seed-space", "seed-underscore",
            "env-quoted-LO", "mode-NUL",
            "env-NUL", "seed-NUL", "mode-quoted-newline", "whitespace-line", "hash-line",
            "oversized-float", "CR", "CRLF", "CR-rows-after-LF-header",
            "no-final-newline"])
    def test_text_outside_the_written_shape(self, tmp_path, text, expected):
        path = tmp_path / "dataset.csv"
        path.write_text(text, newline="")
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                read_dataset_csv(path)
            assert str(err.value) == expected
        else:
            parsed = read_dataset_csv(path)[Environment.LOS]
            assert (parsed.seed, parsed.sampling_mode, parsed.pl_db.tolist()) == expected

    # One row per rule of the dataset rule table, in report order, each
    # breaking that rule alone: a plain file is held to it by the block path,
    # its quoted twin by the row loop, and both name the row by its message.
    @pytest.mark.parametrize("field,value,message", [
        ("env", "FOO", "env must be LOS or NLOS, got 'FOO'"),
        ("fc_ghz", "nan", "fc_ghz must be finite, got nan"),
        ("d2d_m", "inf", "d2d_m must be finite, got inf"),
        ("d3d_m", "-inf", "d3d_m must be finite, got -inf"),
        ("pl_db", "1e999", "pl_db must be finite, got inf"),
        ("seed", "x", "seed must be an integer, got 'x'"),
        ("sampling_mode", "linearX", "sampling_mode must be linear or log, got 'linearX'"),
    ])
    def test_each_rule_names_its_row_on_both_paths(self, tmp_path, field, value, message):
        row = "1.0,100.0,105.0,LOS,80.0,7,linear".split(",")
        row[DATASET_CSV_HEADER.index(field)] = value
        rows = ["2.0,200.0,205.0,NLOS,90.0,7,linear", ",".join(row)]
        path = tmp_path / "dataset.csv"
        for text in (HEADER_LINE + "\n".join(rows) + "\n",
                     HEADER_LINE + "".join(",".join(f'"{v}"' for v in line.split(",")) + "\n"
                                           for line in rows)):
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                read_dataset_csv(path)
            assert str(err.value) == f"line 3: {message}"

    def test_a_long_seed_is_named_in_full(self, tmp_path):
        # np.loadtxt cuts a field to its width; the row loop keeps it whole. Each
        # accepted env and mode with one more character must fail on the block path,
        # not pass cut back to the accepted value.
        seed = "1234567890" * 2 + "12345"
        cases = [(2, seed, f"seed must be a plain decimal integer in [0, 2**64), got '{seed}'")]
        cases += [(0, f"{env.value}X", f"env must be LOS or NLOS, got '{env.value}X'")
                  for env in Environment]
        cases += [(3, f"{mode}X", f"sampling_mode must be linear or log, got '{mode}X'")
                  for mode in SAMPLING_MODES]
        path = tmp_path / "dataset.csv"
        for field, value, message in cases:
            row = ["LOS", "80.0", "7", "linear"]
            row[field] = value
            path.write_text(HEADER_LINE + "1.0,100.0,105.0," + ",".join(row) + "\n")
            with pytest.raises(ValueError) as err:
                read_dataset_csv(path)
            assert str(err.value) == f"line 2: {message}"

    @pytest.mark.parametrize("rows,blank", [(0, ""), (8192, ""), (3, "\n"), (8192, "\n")],
                             ids=["header-only", "one-whole-block", "blank-line",
                                  "whole-block-and-blank-line"])
    def test_reads_without_warning(self, tmp_path, rows, blank):
        path = tmp_path / "dataset.csv"
        path.write_text(HEADER_LINE + "1.0,100.0,105.0,NLOS,80.0,7,log\n" * rows + blank)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            datasets = read_dataset_csv(path)
        assert caught == []
        assert [len(ds) for ds in datasets.values()] == ([rows] if rows else [])

    # 9 000 rows make two blocks. The row loop would fail on the plain files,
    # so they are split by np.loadtxt alone; the quoted one takes the row loop,
    # whose columns the count of CRs sizes.
    @pytest.mark.parametrize("end,new_end", [("\n", "\n"), ("\n", "\r\n"), ("\n", "\r"),
                                             (",linear\n", ',"linear"\r')],
                             ids=["LF", "CRLF", "CR", "quoted-CR"])
    def test_written_dataset_reads_back_with_any_line_end(self, tmp_path, monkeypatch,
                                                          end, new_end):
        dataset = generate_3gpp_dataset(small_config(samples_per_frequency=1_000))
        path = tmp_path / "dataset.csv"
        dataset.write_csv(path)
        path.write_text(path.read_text().replace(end, new_end), newline="")
        if '"' not in new_end:
            monkeypatch.setattr("rmapath._csv.checked_csv_rows", None)
        parsed = read_dataset_csv(path)[Environment.NLOS]
        assert (parsed.seed, parsed.sampling_mode) == (99, "linear")
        for field in ("fc_ghz", "d2d_m", "d3d_m", "pl_db"):
            assert np.array_equal(getattr(parsed, field), getattr(dataset, field))

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_blank_lines_stay_on_the_block_path(self, tmp_path, row_loop_calls, end):
        dataset = generate_3gpp_dataset(small_config(samples_per_frequency=1_000))
        path = tmp_path / "dataset.csv"
        dataset.write_csv(path)
        lines = path.read_text().split("\n")  # 9 000 rows, two blocks
        for at in (len(lines) - 1, 8_193, 4_000, 1):  # end, block edge, middle, start
            lines[at:at] = [""] * (2 if at in (1, 4_000) else 1)
        path.write_text(end.join(lines), newline="")
        parsed = read_dataset_csv(path)[Environment.NLOS]
        assert row_loop_calls == []
        assert (parsed.seed, parsed.sampling_mode) == (99, "linear")
        for field in ("fc_ghz", "d2d_m", "d3d_m", "pl_db"):
            assert np.array_equal(getattr(parsed, field), getattr(dataset, field))

    def test_bad_row_in_a_later_block_names_its_line(self, tmp_path):
        dataset = generate_3gpp_dataset(small_config(samples_per_frequency=1_000))
        path = tmp_path / "dataset.csv"
        dataset.write_csv(path)
        parsed = read_dataset_csv(path)[Environment.NLOS]
        assert len(parsed) == 9_000
        for field in ("fc_ghz", "d2d_m", "d3d_m", "pl_db"):
            assert np.array_equal(getattr(parsed, field), getattr(dataset, field))
        lines = path.read_text().splitlines(keepends=True)
        lines[8_500] = lines[8_500].replace("NLOS", "los")
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            read_dataset_csv(path)
        assert str(err.value) == "line 8501: env must be LOS or NLOS, got 'los'"
