"""Command line front end.

Subcommands: predict, breakpoint-curve, simulate, fit, coverage, validate.
Exit status is 0 on success, 1 on a domain error (bad value, unreadable
file, failed validation), 2 on a usage error. Every flag can also be set
through an environment variable named RMA_<FLAG> (dashes as underscores,
e.g. --freq-ghz -> RMA_FREQ_GHZ); an explicit flag wins. A variable is read
only when its subcommand runs.

Numeric output on stdout uses fixed 2-decimal formatting; files written by
simulate/fit/breakpoint-curve keep full float precision.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .campaign import (
    CAMPAIGN_CSV_HEADER,
    DEFAULT_BUDGET,
    LinkBudget,
    max_range,
    read_campaign_csv,
)
from .fitting import fit_ci, fit_report_dict
from .models import (
    RURAL_73GHZ_LOS_PLE,
    RURAL_73GHZ_NLOS_PLE,
    ApplicabilityError,
    Environment,
    RmaParams,
    breakpoint_distance,
    ci_pathloss,
    distance_3d,
    finite_positive,
    rma_los,
    rma_nlos,
    validate_applicability,
)
from .simulate import (
    DATASET_CSV_HEADER,
    DEFAULT_SAMPLES_PER_FREQUENCY,
    SimulationConfig,
    generate_3gpp_dataset,
    read_dataset_csv,
)


class _EnvVarError(Exception):
    """An RMA_* environment variable held an unusable value."""


class _EnvDefault:
    """A flag's set RMA_* variable; ``main`` casts it for the chosen subcommand only."""

    def __init__(self, key: str, cast, choices):
        self.key, self.cast, self.choices = key, cast, choices

    def resolve(self):
        raw = os.environ[self.key]
        try:
            value = self.cast(raw)
        except (TypeError, ValueError) as exc:
            raise _EnvVarError(f"invalid value for {self.key}: {raw!r}") from exc
        if self.choices is not None and value not in self.choices:
            raise _EnvVarError(
                f"invalid value for {self.key}: {raw!r} (choose from {self.choices})")
        return value


def _add(parser, flag: str, *, cast=str, default=None, required=False,
         choices=None, help=None):
    key = "RMA_" + flag.lstrip("-").upper().replace("-", "_")
    if key in os.environ:
        default = _EnvDefault(key, cast, choices)
        required = False
    parser.add_argument(flag, type=cast, default=default, required=required,
                        choices=choices, help=help)


def _add_params(parser):
    _add(parser, "--hbs", cast=float, default=RmaParams.h_bs, help="base station height m")
    _add(parser, "--hut", cast=float, default=RmaParams.h_ut, help="user terminal height m")
    _add(parser, "--w", cast=float, default=RmaParams.w, help="average street width m")
    _add(parser, "--h", cast=float, default=RmaParams.h, help="average building height m")


def _add_budget(parser):
    _add(parser, "--tx-power-dbm", cast=float, default=DEFAULT_BUDGET.tx_power_dbm)
    _add(parser, "--tx-gain-dbi", cast=float, default=DEFAULT_BUDGET.tx_gain_dbi)
    _add(parser, "--rx-gain-dbi", cast=float, default=DEFAULT_BUDGET.rx_gain_dbi)
    _add(parser, "--max-pl-db", cast=float,
         default=DEFAULT_BUDGET.max_measurable_pl_db,
         help="maximum measurable path loss dB")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmapath",
        description="Rural macrocell mmWave path loss modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="mean path loss for one link")
    _add(p, "--model", choices=("ci", "3gpp-rma"), required=True)
    _add(p, "--env", choices=("los", "nlos"), required=True)
    _add(p, "--freq-ghz", cast=float, required=True)
    _add(p, "--dist-m", cast=float, required=True,
         help="T-R separation m (2D ground distance for 3gpp-rma, which "
              "converts to the 3D slant distance internally)")
    _add(p, "--ple", cast=float,
         help="CI path loss exponent; defaults to the 73.5 GHz rural "
              f"coefficients ({RURAL_73GHZ_LOS_PLE} LOS / {RURAL_73GHZ_NLOS_PLE} NLOS)")
    _add_params(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("breakpoint-curve",
                       help="CSV of LOS breakpoint distance vs frequency")
    _add(p, "--fmin", cast=float, default=0.5, help="start frequency GHz")
    _add(p, "--fmax", cast=float, default=100.0, help="end frequency GHz")
    _add(p, "--steps", cast=int, default=200, help="number of grid points")
    _add(p, "--spacing", choices=("log", "linear"), default="log")
    _add(p, "--hbs", cast=float, default=RmaParams.h_bs)
    _add(p, "--hut", cast=float, default=RmaParams.h_ut)
    _add(p, "--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_breakpoint_curve)

    p = sub.add_parser("simulate", help="Monte Carlo RMa dataset as CSV")
    _add(p, "--env", choices=("los", "nlos"), required=True)
    _add(p, "--seed", cast=int, default=0)
    _add(p, "--samples", cast=int, default=DEFAULT_SAMPLES_PER_FREQUENCY,
         help="samples per frequency")
    _add(p, "--sampling", choices=("linear", "log"), default="linear",
         help="2D distance sampling distribution")
    _add(p, "--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the CI model to a dataset or campaign CSV")
    _add(p, "--input", required=True)
    _add(p, "--out", help="output file (default: stdout)")
    _add_budget(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("coverage", help="range at which CI loss reaches a budget")
    _add(p, "--max-pl", cast=float, required=True, help="loss budget dB")
    _add(p, "--ple", cast=float, required=True)
    _add(p, "--freq-ghz", cast=float, required=True)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("validate", help="run the acceptance checks")
    p.set_defaults(func=cmd_validate)

    return parser


def cmd_predict(args) -> int:
    environment = Environment(args.env.upper())
    if args.model == "ci":
        ple = args.ple
        if ple is None:
            ple = (RURAL_73GHZ_LOS_PLE if environment is Environment.LOS
                   else RURAL_73GHZ_NLOS_PLE)
        pl = ci_pathloss(args.freq_ghz, args.dist_m, ple)
    else:
        params = RmaParams(h_bs=args.hbs, h_ut=args.hut, w=args.w, h=args.h)
        findings = validate_applicability(params, args.dist_m, args.freq_ghz,
                                          environment)
        hard = [f for f in findings if f.severity == "hard"]
        if hard:
            raise ApplicabilityError("; ".join(f.message for f in hard))
        d3d = distance_3d(args.dist_m, params.h_bs, params.h_ut)
        model = rma_los if environment is Environment.LOS else rma_nlos
        pl = model(params, d3d, args.freq_ghz)
        # Warn only once the model has evaluated, so a bad value is one error line.
        for finding in findings:
            print(f"warning: {finding.message}", file=sys.stderr)
    print(f"{pl:.2f} dB")
    return 0


def cmd_breakpoint_curve(args) -> int:
    finite_positive("--fmin", args.fmin)
    if not args.fmin <= args.fmax < math.inf:
        raise ValueError("--fmax must be finite and >= --fmin")
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    if args.spacing == "log":
        fcs = np.geomspace(args.fmin, args.fmax, args.steps)
    else:
        fcs = np.linspace(args.fmin, args.fmax, args.steps)
    dbp = breakpoint_distance(args.hbs, args.hut, fcs)
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as f:
        # csv.writer streams the rows; one joined string cost 11.6 MB more peak RSS at 100k points.
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("fc_ghz", "dbp_m"))
        writer.writerows(zip(map(repr, fcs.tolist()), map(repr, dbp.tolist())))
    return 0


def cmd_simulate(args) -> int:
    config = SimulationConfig(
        environment=Environment(args.env.upper()),
        samples_per_frequency=args.samples,
        seed=args.seed,
        distance_sampling=args.sampling,
    )
    dataset = generate_3gpp_dataset(config)
    dataset.write_csv(args.out)
    print(f"wrote {len(dataset)} samples to {args.out}", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    path = Path(args.input)
    with path.open() as f:
        first_line = f.readline().strip()
    source = path.name
    if first_line == ",".join(DATASET_CSV_HEADER):
        datasets = read_dataset_csv(path)
    elif first_line == ",".join(CAMPAIGN_CSV_HEADER):
        budget = LinkBudget(args.tx_power_dbm, args.tx_gain_dbi, args.rx_gain_dbi,
                            args.max_pl_db)
        datasets, summary = read_campaign_csv(path, budget)
        print(f"{summary.converted} of {summary.total} records fitted "
              f"({summary.outage_dropped} outage, "
              f"{summary.diffraction_dropped} diffraction dropped)", file=sys.stderr)
    else:
        raise ValueError(
            f"{path}: unrecognized input; expected a dataset CSV "
            f"({DATASET_CSV_HEADER[0]},...) or campaign CSV "
            f"({CAMPAIGN_CSV_HEADER[0]},...) header")
    reports = [fit_report_dict(fit_ci(ds), source, ds.seed, ds.sampling_mode)
               for ds in datasets.values()]
    if not reports:
        raise ValueError(f"{path}: no fittable samples")
    payload = reports[0] if len(reports) == 1 else reports
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as f:
        f.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def cmd_coverage(args) -> int:
    meters = max_range(args.freq_ghz, args.ple, args.max_pl)
    print(f"{meters:.2f} m")
    return 0


def cmd_validate(args) -> int:
    from .acceptance import ALL_CHECKS

    failed = 0
    for check in ALL_CHECKS:
        result = check()
        failed += not result.passed
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}",
              flush=True)
    print(f"{len(ALL_CHECKS) - failed}/{len(ALL_CHECKS)} acceptance checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, _EnvDefault):
                setattr(args, name, value.resolve())
    except _EnvVarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
