#!/usr/bin/env python3
"""The benchmark's own tests: python3 perfbench/selftest.py

Tiny-scale smoke runs of every workload, traced and untraced; output
checks that must catch corrupted outputs; absent layers in the tracer; and
the failing exit outside a checkout. Scratch files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import rmapath.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = inputs.SCALES["tiny"]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return rmapath.cli.main(argv)


class SmokeRuns(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--scale", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     wanted)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)


class Scratch(unittest.TestCase):
    def setUp(self):
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
        self.addCleanup(shutil.rmtree, self.work, True)


class OutsideACheckout(Scratch):
    def test_fails_without_a_checkout(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.work)
        shutil.copytree(HERE, self.work / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "paper-pipeline", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=self.work)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        header = rmapath.CAMPAIGN_CSV_HEADER
        self.assertEqual(inputs.campaign_csv(4, 500, header), inputs.campaign_csv(4, 500, header))
        self.assertNotEqual(inputs.campaign_csv(4, 500, header)[0],
                            inputs.campaign_csv(5, 500, header)[0])
        a, b = inputs.query_stream(4, 100), inputs.query_stream(4, 100)
        self.assertTrue(all(np.array_equal(a[k], b[k]) for k in a))

    def test_campaign_mix(self):
        text, expected = inputs.campaign_csv(9, 20_000, rmapath.CAMPAIGN_CSV_HEADER)
        records = rmapath.parse_campaign_csv(text)
        self.assertEqual(len(records), 20_000)
        self.assertAlmostEqual(expected["outage"] / 20_000, 0.10, delta=0.01)
        self.assertAlmostEqual(expected["diffraction"] / 20_000, 0.05, delta=0.01)
        self.assertTrue(all(r.pl_db is None or r.pl_db < 190.0 for r in records))
        self.assertTrue(any(r.p_rx_dbm is not None for r in records))


class CorruptedOutputs(Scratch):
    def simulate_and_fit(self, env="los", seed=3):
        csv_path, json_path = self.work / "d.csv", self.work / "f.json"
        self.assertEqual(cli(["simulate", "--env", env, "--seed", str(seed), "--samples",
                              str(TINY.samples_per_frequency), "--out", str(csv_path)]), 0)
        self.assertEqual(cli(["fit", "--input", str(csv_path), "--out", str(json_path)]), 0)
        return csv_path, json_path

    def check(self, csv_path, text):
        return reference.check_dataset_fit(csv_path, text, "LOS", 3, "linear",
                                           TINY.samples_per_frequency)

    def test_correct_dataset_fit_passes(self):
        csv_path, json_path = self.simulate_and_fit()
        self.assertEqual(self.check(csv_path, json_path.read_text()), [])

    def test_perturbed_n_is_caught(self):
        csv_path, json_path = self.simulate_and_fit()
        report = json.loads(json_path.read_text())
        report["n"] *= 1.0 + 1e-9
        self.assertTrue(self.check(csv_path, json.dumps(report)))

    def test_truncated_csv_is_caught(self):
        csv_path, json_path = self.simulate_and_fit()
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-5]))
        self.assertTrue(self.check(csv_path, json_path.read_text()))
        csv_path.write_text("".join(lines)[:-7])
        self.assertTrue(self.check(csv_path, json_path.read_text()))

    def test_published_band_at_paper_scale(self):
        fit = {"n": 2.31 + 0.11, "sigma_db": 5.9}
        self.assertTrue(reference.published_band(fit, "LOS", 50_000))
        self.assertEqual(reference.published_band({"n": 3.0, "sigma_db": 8.8}, "NLOS", 50_000),
                         [])

    def test_wrong_query_value_is_caught(self):
        stream = inputs.query_stream(2, 40)
        stream = {k: v.tolist() for k, v in stream.items()}
        params = [rmapath.RmaParams(h_bs=b, h_ut=u) for b, u in inputs.QUERY_HEIGHTS_M]
        results = []
        for i in range(40):
            p, fc = params[stream["heights"][i]], inputs.QUERY_FREQS_GHZ[stream["freq"][i]]
            ple = inputs.QUERY_PLE["NLOS" if stream["nlos"][i] else "LOS"]
            d3d = rmapath.distance_3d(stream["d2d"][i], p.h_bs, p.h_ut)
            pl = (rmapath.rma_nlos if stream["nlos"][i] else rmapath.rma_los)(p, d3d, fc)
            results.append((d3d, pl, rmapath.ci_pathloss(fc, d3d, ple),
                            rmapath.max_range(fc, ple, pl)))
        state = {"hard": set(), "mismatch": set()}
        self.assertEqual(workloads.check_queries(stream, params, results, state), {})
        for field in range(4):
            bad = list(results)
            bad[17] = tuple(v + 1e-6 if j == field else v for j, v in enumerate(bad[17]))
            self.assertEqual(set(workloads.check_queries(stream, params, bad, state)), {17})

    def test_wrong_curve_is_caught(self):
        path = self.work / "curve.csv"
        argv = ["breakpoint-curve", "--steps", "50", "--hbs", "40", "--hut", "2",
                "--fmin", "0.5", "--fmax", "100", "--out", str(path)]
        self.assertEqual(cli(argv), 0)
        self.assertEqual(reference.check_curve(path, 50, 0.5, 100.0, 40.0, 2.0), [])
        self.assertTrue(reference.check_curve(path, 50, 0.5, 100.0, 40.0, 2.5))
        self.assertTrue(reference.check_curve(path, 51, 0.5, 100.0, 40.0, 2.0))

    def test_wrong_campaign_fit_or_counts_are_caught(self):
        text, expected = inputs.campaign_csv(6, 3_000, rmapath.CAMPAIGN_CSV_HEADER)
        csv_path, json_path = self.work / "c.csv", self.work / "c.json"
        csv_path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            self.assertEqual(rmapath.cli.main(["fit", "--input", str(csv_path),
                                               "--out", str(json_path)]), 0)
        good = json_path.read_text()
        self.assertEqual(reference.check_campaign_fit(good, err.getvalue(), expected), [])
        wrong_counts = err.getvalue().replace(f"({expected['outage']} outage",
                                              f"({expected['outage'] + 1} outage")
        self.assertTrue(reference.check_campaign_fit(good, wrong_counts, expected))
        reports = json.loads(good)
        reports[1]["sigma_db"] += 1e-6
        self.assertTrue(reference.check_campaign_fit(json.dumps(reports), err.getvalue(),
                                                     expected))


class Tracing(Scratch):
    def test_absent_layer_is_reported_not_fatal(self):
        targets = tracing.TARGETS + (("rmapath.cli", "no_such_function", "gone.layer"),
                                     ("rmapath.no_such_module", "f", "gone.module"))
        ctx = workloads.Context(work=self.work, seed=1, seconds=0.2, scale=TINY,
                                tracer=tracing.Tracer(targets))
        workloads.recalibration_sweep(ctx, {})
        self.assertEqual(ctx.tracer.absent_layers, ["gone.layer", "gone.module"])
        self.assertEqual(ctx.failed, 0)
        self.assertIn("simulate.generate_3gpp_dataset", ctx.tracer.layers())

    def test_wrappers_are_removed_after_each_operation(self):
        tracer = tracing.Tracer()
        original = rmapath.cli.read_dataset_csv
        with tracer.tracing(0):
            self.assertIsNot(rmapath.cli.read_dataset_csv, original)
        self.assertIs(rmapath.cli.read_dataset_csv, original)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer(())
        with tracer.tracing(0):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    sum(range(100_000))
        layers = tracer.layers()
        outer = layers["outer"]
        self.assertAlmostEqual(outer["self_s"] + layers["inner"]["total_s"], outer["total_s"])
        self.assertEqual(outer["children_s"], {"inner": layers["inner"]["total_s"]})


if __name__ == "__main__":
    unittest.main()
