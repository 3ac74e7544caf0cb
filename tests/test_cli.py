"""Command line behavior: outputs, exit codes, env var overrides."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rmapath import (
    CAMPAIGN_CSV_HEADER,
    DATASET_CSV_HEADER,
    DEFAULT_BUDGET,
    RmaParams,
    breakpoint_distance,
    bundled_campaign_path,
    distance_3d,
    pathloss_from_power,
    rma_los,
    rma_nlos,
)
from rmapath.cli import build_parser, main
from rmapath.simulate import SAMPLING_MODES


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestPredict:
    def test_ci_at_reference_distance(self, capsys):
        status, out, _ = run(capsys, "predict", "--model", "ci", "--env", "los",
                             "--freq-ghz", "73.5", "--dist-m", "1", "--ple", "2.16")
        assert status == 0
        assert out == "69.73 dB\n"

    def test_ci_default_ple_per_environment(self, capsys):
        _, los_out, _ = run(capsys, "predict", "--model", "ci", "--env", "los",
                            "--freq-ghz", "73.5", "--dist-m", "1000")
        _, nlos_out, _ = run(capsys, "predict", "--model", "ci", "--env", "nlos",
                             "--freq-ghz", "73.5", "--dist-m", "1000")
        assert los_out == "134.53 dB\n"   # 32.4 + 21.6*3 + 20*log10(73.5)
        assert nlos_out == "152.23 dB\n"  # 32.4 + 27.5*3 + 20*log10(73.5)

    def test_3gpp_converts_ground_distance(self, capsys):
        status, out, err = run(capsys, "predict", "--model", "3gpp-rma", "--env",
                               "nlos", "--freq-ghz", "73.5", "--dist-m", "1000")
        d3d = distance_3d(1000.0, 35.0, 1.5)
        expected = rma_nlos(RmaParams(), d3d, 73.5)
        assert status == 0
        assert out == f"{expected:.2f} dB\n"
        assert "warning" in err  # 73.5 GHz is outside the 3GPP footnote range

    def test_3gpp_within_footnote_range_has_no_warning(self, capsys):
        status, _, err = run(capsys, "predict", "--model", "3gpp-rma", "--env",
                             "los", "--freq-ghz", "2", "--dist-m", "500")
        assert status == 0
        assert err == ""

    @pytest.mark.parametrize("fc", ["0.8", "30"])
    def test_3gpp_at_footnote_range_ends_has_no_warning(self, capsys, fc):
        status, _, err = run(capsys, "predict", "--model", "3gpp-rma", "--env",
                             "los", "--freq-ghz", fc, "--dist-m", "500")
        assert (status, err) == (0, "")

    def test_3gpp_hard_violation_is_domain_error(self, capsys):
        status, _, err = run(capsys, "predict", "--model", "3gpp-rma", "--env",
                             "los", "--freq-ghz", "2", "--dist-m", "20000")
        assert status == 1
        assert "error" in err

    @pytest.mark.parametrize("env,dist", [("los", 10.0), ("nlos", 10.0),
                                          ("los", 10_000.0), ("nlos", 5_000.0)])
    def test_3gpp_closed_span_endpoints(self, capsys, env, dist):
        status, out, err = run(capsys, "predict", "--model", "3gpp-rma", "--env", env,
                               "--freq-ghz", "2", "--dist-m", str(dist))
        model = rma_los if env == "los" else rma_nlos
        expected = model(RmaParams(), distance_3d(dist, 35.0, 1.5), 2.0)
        assert (status, out, err) == (0, f"{expected:.2f} dB\n", "")

    def test_ci_domain_error(self, capsys):
        status, _, err = run(capsys, "predict", "--model", "ci", "--env", "los",
                             "--freq-ghz", "73.5", "--dist-m", "0.5")
        assert status == 1
        assert "error" in err


@pytest.mark.parametrize("argv", [
    ("predict", "--model", "ci", "--env", "los", "--freq-ghz", "nan", "--dist-m", "100"),
    ("predict", "--model", "ci", "--env", "los", "--freq-ghz", "28", "--dist-m", "inf"),
    ("predict", "--model", "ci", "--env", "los", "--freq-ghz", "28", "--dist-m", "100",
     "--ple", "nan"),
    ("predict", "--model", "3gpp-rma", "--env", "los", "--freq-ghz", "nan", "--dist-m", "100"),
    ("predict", "--model", "3gpp-rma", "--env", "nlos", "--freq-ghz", "inf", "--dist-m", "100"),
    ("predict", "--model", "3gpp-rma", "--env", "los", "--freq-ghz", "2", "--dist-m", "inf"),
    ("predict", "--model", "3gpp-rma", "--env", "los", "--freq-ghz", "2", "--dist-m", "nan"),
    ("predict", "--model", "3gpp-rma", "--env", "los", "--freq-ghz", "2", "--dist-m", "100",
     "--hbs", "inf"),
    ("breakpoint-curve", "--fmin", "nan"),
    ("breakpoint-curve", "--fmax", "inf"),
    ("breakpoint-curve", "--hbs", "nan"),
    ("coverage", "--max-pl", "nan", "--ple", "2.16", "--freq-ghz", "73.5"),
    ("coverage", "--max-pl", "190", "--ple", "inf", "--freq-ghz", "73.5"),
    ("coverage", "--max-pl", "190", "--ple", "2.16", "--freq-ghz", "nan"),
])
def test_non_finite_input_is_one_line_domain_error(capsys, argv):
    status, out, err = run(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# 10**15 float64 values are 7.11 PiB, and simulate's block of four rows of
# 9 * 10**15 is 256 PiB, past the address space, so numpy's allocation fails
# at once, before any memory is touched.
@pytest.mark.parametrize("argv,size", [
    (("simulate", "--env", "los", "--samples", str(10**15)), "256. PiB"),
    (("breakpoint-curve", "--steps", str(10**15)), "7.11 PiB"),
], ids=["simulate", "breakpoint-curve"])
def test_allocation_past_the_memory_is_one_line_domain_error(capsys, tmp_path, argv, size):
    out_path = tmp_path / "x.csv"
    status, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (status, out) == (1, "")
    assert err.startswith(f"error: Unable to allocate {size}") and err.count("\n") == 1
    assert not out_path.exists()


def test_a_sample_count_past_a_numpy_dimension_names_the_field(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    status, out, err = run(capsys, "simulate", "--env", "los", "--samples", str(10**23),
                           "--out", str(out_path))
    most = np.iinfo(np.intp).max // (32 * 9)
    assert (status, out) == (1, "")
    assert err == f"error: samples_per_frequency must be at most {most} for 9 frequencies\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv,message", [
    (("--fmax", "inf"), "--fmax must be finite and positive"),
    (("--fmin", "10", "--fmax", "5"), "--fmax must be >= --fmin"),
    (("--hut", "0"), "--hut must be finite and positive"),
    (("--hbs", "-1"), "--hbs must be finite and positive"),
    (("--hbs", "nan", "--steps", str(10**15)), "--hbs must be finite and positive"),
])
def test_bad_breakpoint_curve_span_is_one_line_domain_error(capsys, argv, message):
    status, out, err = run(capsys, "breakpoint-curve", *argv)
    assert (status, out, err) == (1, "", f"error: {message}\n")


def test_overflowing_coverage_is_one_line_domain_error(capsys):
    status, out, err = run(capsys, "coverage", "--max-pl", "1e6", "--ple", "0.01",
                           "--freq-ghz", "28")
    assert (status, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,message", [
    (("coverage", "--max-pl", "1e308", "--ple", "0.001", "--freq-ghz", "1"),
     "the result overflows a float"),
    (("predict", "--model", "ci", "--env", "los", "--freq-ghz", "1", "--dist-m", "1e300",
      "--ple", "1e307"), "the result overflows a float"),
    (("predict", "--model", "3gpp-rma", "--env", "nlos", "--freq-ghz", "1e306",
      "--dist-m", "100"), "the result overflows a float"),
    (("predict", "--model", "3gpp-rma", "--env", "nlos", "--freq-ghz", "10", "--dist-m", "100",
      "--h", "1e300"), "the result overflows a float"),
    (("breakpoint-curve", "--fmin", "1e300", "--fmax", "1e300", "--steps", "1",
      "--hbs", "1e10"), "the result overflows a float"),
    (("fit", "--input", str(bundled_campaign_path()), "--tx-power-dbm", "1e308",
      "--tx-gain-dbi", "1e308"), "the result overflows a float"),
    (("fit", "--input", str(bundled_campaign_path()), "--tx-power-dbm=-1e308",
      "--tx-gain-dbi=-1e308"), "the result overflows a float"),
])
def test_infinite_result_is_one_line_domain_error(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_huge_building_height_gives_a_finite_los_loss(capsys):
    status, out, err = run(capsys, "predict", "--model", "3gpp-rma", "--env", "los",
                           "--freq-ghz", "10", "--dist-m", "100", "--h", "1e300")
    expected = rma_los(RmaParams(h=1e300), distance_3d(100.0, 35.0, 1.5), 10.0)
    assert (status, out) == (0, f"{expected:.2f} dB\n")
    assert err.startswith("warning: ")  # h is outside its applicability range


PREDICT_PAST_THE_CI_SPAN = ("predict", "--model", "ci", "--env", "los",
                            "--freq-ghz", "150", "--dist-m", "100")
CI_SPAN_WARNING = ("frequency outside the 0.5-100 GHz span the CI RMa coefficients "
                   "were validated over")


@pytest.mark.parametrize("flags,expected", [
    ((), (0, "119.12 dB\n", f"warning: {CI_SPAN_WARNING}\n")),
    (("-W", "error"), (1, "", f"error: {CI_SPAN_WARNING}\n")),
])
def test_a_library_warning_is_one_line(flags, expected):
    done = subprocess.run([sys.executable, *flags, "-m", "rmapath.cli", *PREDICT_PAST_THE_CI_SPAN],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_geometry_defaults_are_the_rma_params_defaults():
    parser = build_parser()
    predict = parser.parse_args(["predict", "--model", "3gpp-rma", "--env", "los",
                                 "--freq-ghz", "2", "--dist-m", "100"])
    curve = parser.parse_args(["breakpoint-curve"])
    assert RmaParams(predict.hbs, predict.hut, predict.w, predict.h) == RmaParams()
    assert (curve.hbs, curve.hut) == (RmaParams().h_bs, RmaParams().h_ut)


class TestBreakpointCurve:
    def test_single_point(self, capsys):
        status, out, _ = run(capsys, "breakpoint-curve", "--fmin", "9.1",
                             "--fmax", "9.1", "--steps", "1")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "fc_ghz,dbp_m"
        fc, dbp = lines[1].split(",")
        assert float(fc) == 9.1
        assert float(dbp) == pytest.approx(10005.972601683492)

    def test_strictly_increasing(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        status, _, _ = run(capsys, "breakpoint-curve", "--fmin", "0.5",
                           "--fmax", "100", "--steps", "50", "--hbs", "25",
                           "--hut", "3", "--out", str(out_file))
        assert status == 0
        rows = [r.split(",") for r in out_file.read_text().splitlines()[1:]]
        fc = [float(f) for f, _ in rows]
        dbp = [float(d) for _, d in rows]
        assert len(dbp) == 50
        assert all(a < b for a, b in zip(dbp, dbp[1:]))
        assert fc[0] == 0.5 and fc[-1] == pytest.approx(100.0, rel=1e-12)
        # per-point oracle: each row's value is the scalar formula at its frequency
        assert dbp == [2 * math.pi * 25.0 * 3.0 * f * 1e9 / 3e8 for f in fc]

    def test_linear_spacing(self, capsys):
        status, out, err = run(capsys, "breakpoint-curve", "--spacing", "linear", "--fmin", "1",
                               "--fmax", "3", "--steps", "3")
        assert (status, err) == (0, "")
        assert out == ("fc_ghz,dbp_m\n1.0,1099.5574287564277\n2.0,2199.1148575128555\n"
                       "3.0,3298.672286269283\n")

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    @pytest.mark.parametrize("argv", [
        *[("--steps", str(steps), "--hbs", "40", "--hut", "2")
          for steps in (1, 8191, 8192, 8193, 20_000)],  # either side of one 8192-row block
        # repr's exponent form, from subnormal to near the float ceiling
        ("--fmin", "5e-324", "--fmax", "1e308", "--steps", "300", "--hbs", "1e-5",
         "--hut", "1e-5"),
    ], ids=["1", "8191", "8192", "8193", "20000", "exponents"])
    def test_rows_are_the_csv_writers_rows(self, capsys, tmp_path, spacing, argv):
        args = build_parser().parse_args(["breakpoint-curve", "--spacing", spacing, *argv])
        grid = np.geomspace if spacing == "log" else np.linspace
        fcs = grid(args.fmin, args.fmax, args.steps)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("fc_ghz", "dbp_m"))
        writer.writerows(zip(fcs.tolist(), breakpoint_distance(args.hbs, args.hut, fcs).tolist()))
        out_file = tmp_path / "curve.csv"
        assert run(capsys, "breakpoint-curve", "--spacing", spacing, *argv) == (
            0, expected.getvalue(), "")
        assert run(capsys, "breakpoint-curve", "--spacing", spacing, *argv,
                   "--out", str(out_file)) == (0, "", "")
        assert out_file.read_bytes() == expected.getvalue().encode()

    def test_bad_steps_is_domain_error(self, capsys):
        status, _, _ = run(capsys, "breakpoint-curve", "--steps", "0")
        assert status == 1


class TestSimulate:
    def test_writes_expected_rows(self, capsys, tmp_path):
        out = tmp_path / "data.csv"
        status, _, err = run(capsys, "simulate", "--env", "nlos", "--seed", "3",
                             "--samples", "10", "--out", str(out))
        assert status == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9 * 10
        assert "90 samples" in err

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    def test_every_sampling_mode_is_a_choice(self, capsys, tmp_path, mode):
        out = tmp_path / "data.csv"
        status, _, err = run(capsys, "simulate", "--env", "los", "--samples", "2",
                             "--sampling", mode, "--out", str(out))
        assert (status, err) == (0, f"wrote 18 samples to {out}\n")
        assert out.read_text().splitlines()[1].endswith(f",0,{mode}")

    def test_byte_identical_for_same_seed(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["simulate", "--env", "los", "--seed", "11",
                         "--samples", "100", "--out", str(path)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.csv"
        by_env = tmp_path / "env.csv"
        assert main(["simulate", "--env", "los", "--seed", "21",
                     "--samples", "20", "--out", str(by_flag)]) == 0
        monkeypatch.setenv("RMA_SEED", "21")
        assert main(["simulate", "--env", "los",
                     "--samples", "20", "--out", str(by_env)]) == 0
        capsys.readouterr()
        assert by_flag.read_bytes() == by_env.read_bytes()

    def test_flag_wins_over_env(self, capsys, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.csv"
        reference = tmp_path / "ref.csv"
        assert main(["simulate", "--env", "los", "--seed", "5",
                     "--samples", "20", "--out", str(reference)]) == 0
        monkeypatch.setenv("RMA_SEED", "99")
        assert main(["simulate", "--env", "los", "--seed", "5",
                     "--samples", "20", "--out", str(by_flag)]) == 0
        capsys.readouterr()
        assert by_flag.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("key,value", [("RMA_SEED", "abc"), ("RMA_ENV", "bogus"),
                                           ("RMA_SAMPLES", "1.5")])
    def test_env_var_of_another_subcommand_is_not_read(self, capsys, monkeypatch,
                                                       key, value):
        monkeypatch.setenv(key, value)
        status, out, _ = run(capsys, "coverage", "--max-pl", "190", "--ple", "2.16",
                             "--freq-ghz", "73.5")
        assert (status, out) == (0, "370043.23 m\n")

    def test_invalid_env_var_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RMA_SEED", "not-a-number")
        status, _, err = run(capsys, "simulate", "--env", "los",
                             "--out", str(tmp_path / "x.csv"))
        assert status == 2
        assert "RMA_SEED" in err

    def test_env_var_outside_its_choices_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("RMA_ENV", "bogus")
        out = tmp_path / "x.csv"
        status, stdout, err = run(capsys, "simulate", "--out", str(out))
        assert (status, stdout) == (2, "")
        assert err == "error: invalid value for RMA_ENV: 'bogus' (choose from ('los', 'nlos'))\n"
        assert not out.exists()


class TestFit:
    def test_fit_simulated_dataset(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["simulate", "--env", "nlos", "--seed", "4",
                     "--samples", "2000", "--out", str(data)]) == 0
        capsys.readouterr()
        status, out, _ = run(capsys, "fit", "--input", str(data))
        assert status == 0
        report = json.loads(out)
        assert report["environment"] == "NLOS"
        assert report["count"] == 9 * 2000
        assert report["seed"] == 4
        assert report["sampling_mode"] == "linear"
        assert 2.9 <= report["n"] <= 3.1

    def test_fit_campaign_fixture(self, capsys, tmp_path):
        out_file = tmp_path / "fits.json"
        status, _, err = run(capsys, "fit", "--input", str(bundled_campaign_path()),
                             "--out", str(out_file))
        assert status == 0
        assert "31 of 38 records fitted" in err
        reports = json.loads(out_file.read_text())
        assert [r["environment"] for r in reports] == ["LOS", "NLOS"]
        los, nlos = reports
        assert los["n"] == pytest.approx(2.16, abs=0.25)
        assert nlos["n"] == pytest.approx(2.75, abs=0.35)
        assert los["count"] == 14 and nlos["count"] == 17
        assert los["seed"] is None

    def test_dataset_with_both_environments_gives_los_then_nlos(self, capsys, tmp_path):
        los, nlos, data = tmp_path / "los.csv", tmp_path / "nlos.csv", tmp_path / "both.csv"
        for env, path in (("los", los), ("nlos", nlos)):
            assert main(["simulate", "--env", env, "--seed", "6",
                         "--samples", "30", "--out", str(path)]) == 0
        capsys.readouterr()
        data.write_text(nlos.read_text() + los.read_text().split("\n", 1)[1])
        status, out, _ = run(capsys, "fit", "--input", str(data))
        assert status == 0
        reports = json.loads(out)
        assert [r["environment"] for r in reports] == ["LOS", "NLOS"]
        assert [r["count"] for r in reports] == [270, 270]
        assert all(r["seed"] == 6 and r["sampling_mode"] == "linear" for r in reports)

    def test_short_dataset_row_names_its_line(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["simulate", "--env", "los", "--seed", "1",
                     "--samples", "2", "--out", str(data)]) == 0
        capsys.readouterr()
        lines = data.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]
        data.write_text("\n".join(lines) + "\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert status == 1
        assert out == ""
        assert err == "error: line 4: expected 7 fields, got 6\n"

    def test_non_integer_dataset_seed_names_its_line(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("fc_ghz,d2d_m,d3d_m,env,pl_db,seed,sampling_mode\n"
                        "1.0,100.0,105.0,LOS,80.0,7,linear\n"
                        "2.0,200.0,203.0,LOS,90.0,x,linear\n"
                        "3.0,300.0,302.0,LOS,95.0,x,linear\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out) == (1, "")
        assert err == ("error: line 3: seed must be an integer, got 'x'\n"
                       "line 4: seed must be an integer, got 'x'\n")

    @pytest.mark.parametrize("field,value", [("pl_db", "nan"), ("d2d_m", "inf")])
    def test_non_finite_campaign_row_is_domain_error(self, capsys, tmp_path, field, value):
        lines = bundled_campaign_path().read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index(field)] = value
        lines[1] = ",".join(row)
        data = tmp_path / "campaign.csv"
        data.write_text("\n".join(lines) + "\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert status == 1
        assert "NaN" not in out and "Infinity" not in out
        assert f"line 2: {field} must be finite" in err

    def test_non_utf8_campaign_is_one_line_domain_error(self, capsys, tmp_path):
        lines = bundled_campaign_path().read_bytes().split(b"\n")
        lines[20] = b"\xff" + lines[20]
        data = tmp_path / "campaign.csv"
        data.write_bytes(b"\n".join(lines))
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out, err) == (
            1, "", "error: line 21: 'utf-8' codec can't decode byte 0xff: invalid start byte\n")

    def test_non_utf8_dataset_is_one_line_domain_error(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        assert main(["simulate", "--env", "los", "--seed", "5", "--samples", "20",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        lines = data.read_bytes().split(b"\n")
        lines[20] = lines[20].replace(b"LOS", b"L\xffS")
        data.write_bytes(b"\n".join(lines))
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out, err) == (
            1, "", "error: line 21: 'utf-8' codec can't decode byte 0xff: invalid start byte\n")

    @pytest.mark.parametrize("source", ["campaign", "dataset"])
    def test_quoted_copy_fits_as_the_plain_file(self, capsys, tmp_path, source):
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        if source == "campaign":
            plain.write_bytes(bundled_campaign_path().read_bytes())
        else:
            assert main(["simulate", "--env", "nlos", "--seed", "8", "--samples", "40",
                         "--out", str(plain)]) == 0
            capsys.readouterr()
        with plain.open(newline="") as f, quoted.open("w", newline="") as g:
            csv.writer(g, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(csv.reader(f))
        assert quoted.read_text().startswith('"')
        plain_run, quoted_run = (run(capsys, "fit", "--input", str(path))
                                 for path in (plain, quoted))
        assert plain_run[0] == quoted_run[0] == 0
        assert plain_run[1] == quoted_run[1].replace('"quoted.csv"', '"plain.csv"')
        assert plain_run[2] == quoted_run[2]

    def test_all_outage_campaign_has_nothing_to_fit(self, capsys, tmp_path):
        lines = bundled_campaign_path().read_text().splitlines()
        data = tmp_path / "campaign.csv"
        data.write_text("\n".join([lines[0]] + [line for line in lines
                                                 if line.endswith(",true")]) + "\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out) == (1, "")
        assert err == ("0 of 5 records fitted (5 outage, 0 diffraction dropped)\n"
                       f"error: {data}: no fittable samples\n")

    def test_an_environment_too_small_to_fit_is_named(self, capsys, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_text(",".join(CAMPAIGN_CSV_HEADER) + "\n"
                        + "".join(f"L{i},LOS,{100 + i},110,1.8,73.5,,120.0,false\n"
                                  for i in range(10))
                        + "N0,NLOS,100,110,1.8,73.5,,150.0,false\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out) == (1, "")
        assert err == ("11 of 11 records fitted (0 outage, 0 diffraction dropped)\n"
                       "error: need at least 2 NLOS samples to fit an exponent\n")

    @pytest.mark.filterwarnings("error")
    def test_header_only_dataset_has_nothing_to_fit(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(",".join(DATASET_CSV_HEADER) + "\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out, err) == (1, "", f"error: {data}: no fittable samples\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_slant_distance_names_its_line(self, capsys, tmp_path):
        # row C's received power is past the ceiling: a rejected file warns of nothing
        data = tmp_path / "campaign.csv"
        data.write_text(",".join(CAMPAIGN_CSV_HEADER) + "\n"
                        "A,LOS,100,110,1.8,73.5,,120.0,false\n"
                        "B,LOS,1e200,110,1.8,73.5,,120.0,false\n"
                        "C,NLOS,100,110,1.8,73.5,-200,,false\n"
                        "D,NLOS,1e300,110,1.8,73.5,,150.0,false\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out) == (1, "")
        assert err == ("error: line 3: slant distance overflows a float\n"
                       "line 5: slant distance overflows a float\n")

    def test_non_utf8_header_is_unrecognized_input(self, capsys, tmp_path):
        data = tmp_path / "campaign.csv"
        data.write_bytes(b"\xff" + bundled_campaign_path().read_bytes())
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {data}: unrecognized input;") and err.count("\n") == 1

    def test_unrecognized_file_is_domain_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        status, _, err = run(capsys, "fit", "--input", str(bad))
        assert status == 1
        assert "unrecognized" in err

    @pytest.mark.parametrize("flag,field", [
        ("--tx-power-dbm", "tx_power_dbm"), ("--tx-gain-dbi", "tx_gain_dbi"),
        ("--rx-gain-dbi", "rx_gain_dbi"), ("--max-pl-db", "max_measurable_pl_db")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_budget_is_one_line_domain_error(self, capsys, flag, field, value):
        status, out, err = run(capsys, "fit", "--input", str(bundled_campaign_path()),
                               f"{flag}={value}")
        assert (status, out) == (1, "")
        assert err == f"error: {field} must be finite\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields,message", [
        ("-1.0,100.0,105.0", "fc_ghz must be finite and positive"),
        ("0.0,100.0,105.0", "fc_ghz must be finite and positive"),
        ("1.0,0.5,0.7", "CI fit requires all distances >= 1 m"),
    ])
    def test_unfittable_dataset_row_is_one_line_domain_error(self, capsys, tmp_path,
                                                            fields, message):
        data = tmp_path / "data.csv"
        data.write_text("fc_ghz,d2d_m,d3d_m,env,pl_db,seed,sampling_mode\n"
                        "1.0,100.0,105.0,LOS,80.0,7,linear\n"
                        f"{fields},LOS,90.0,7,linear\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_overflowing_fit_is_one_line_domain_error(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("fc_ghz,d2d_m,d3d_m,env,pl_db,seed,sampling_mode\n"
                        "1.0,10.0,34.0,LOS,1e308,7,linear\n"
                        "1.0,100.0,105.0,LOS,1e308,7,linear\n")
        status, out, err = run(capsys, "fit", "--input", str(data))
        assert (status, out) == (1, "")
        assert err == "error: the result overflows a float\n"

    @pytest.mark.parametrize("header,good,bad,message", [
        (DATASET_CSV_HEADER, "1.0,100.0,105.0,LOS,80.0,7,linear",
         "1.0,100.0,105.0,LOS," + "1" * 200_000 + ",7,linear",
         "line 3: field larger than field limit (131072)"),
        (DATASET_CSV_HEADER, "1.0,100.0,105.0,LOS,80.0,7,linear",
         '1.0,200.0,205.0,LOS,90.0,7,"linear', "line 3: unexpected end of data"),
        (CAMPAIGN_CSV_HEADER, "A,LOS,100,110,1.8,73.5,,120.0,false",
         "B,LOS,100,110,1.8,73.5,," + "1" * 200_000 + ",false",
         "line 3: field larger than field limit (131072)"),
        (CAMPAIGN_CSV_HEADER, "A,LOS,100,110,1.8,73.5,,120.0,false",
         'B,LOS,200,110,1.8,73.5,,130.0,"false', "line 3: unexpected end of data"),
    ], ids=["dataset-oversized", "dataset-unclosed", "campaign-oversized", "campaign-unclosed"])
    def test_malformed_csv_is_one_line_domain_error(self, capsys, tmp_path, header, good,
                                                    bad, message):
        data = tmp_path / "data.csv"
        data.write_text(f"{','.join(header)}\n{good}\n{bad}\n")
        assert run(capsys, "fit", "--input", str(data)) == (1, "", f"error: {message}\n")

    def test_missing_file_is_domain_error(self, capsys, tmp_path):
        status, _, _ = run(capsys, "fit", "--input", str(tmp_path / "absent.csv"))
        assert status == 1


class TestCoverage:
    def test_los_range_at_system_ceiling(self, capsys):
        status, out, _ = run(capsys, "coverage", "--max-pl", "190",
                             "--ple", "2.16", "--freq-ghz", "73.5")
        assert status == 0
        assert out == "370043.23 m\n"

    def test_no_coverage_is_domain_error(self, capsys):
        status, _, _ = run(capsys, "coverage", "--max-pl", "50",
                           "--ple", "2.16", "--freq-ghz", "73.5")
        assert status == 1


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        status, _, _ = run(capsys, "predict", "--bogus", "1")
        assert status == 2

    def test_missing_required_flag(self, capsys):
        status, _, _ = run(capsys, "predict", "--model", "ci", "--env", "los")
        assert status == 2

    def test_no_subcommand(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0


class TestValidate:
    def test_all_criteria_pass(self, capsys):
        status, out, _ = run(capsys, "validate")
        assert status == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 9
        assert all(l.startswith("PASS") for l in lines)
        assert "9/9 acceptance checks passed" in out


def test_budget_flags_change_fit_conversion(capsys, tmp_path):
    # halving the RX gain shifts every converted path loss by -13.5 dB but
    # leaves the fitted exponent structure intact; just check it parses and
    # reports through
    status, out, _ = run(capsys, "fit", "--input", str(bundled_campaign_path()),
                         "--rx-gain-dbi", "13.5")
    assert status == 0
    reports = json.loads(out)
    nlos = [r for r in reports if r["environment"] == "NLOS"][0]
    shift = DEFAULT_BUDGET.rx_gain_dbi - 13.5
    assert nlos["n"] < 2.75  # losses uniformly lower -> shallower fit
    assert pathloss_from_power(DEFAULT_BUDGET, -88.1) - shift == pytest.approx(
        pathloss_from_power(
            type(DEFAULT_BUDGET)(14.7, 27.0, 13.5, 190.0), -88.1), abs=1e-9)
