"""Monte Carlo path loss dataset generation from the TR 38.900 RMa models.

Draws random 2D distances per frequency, evaluates the RMa mean model at
the corresponding 3D distance, and adds lognormal (Gaussian-in-dB) shadow
fading. Output is deterministic for a fixed config: every frequency gets
its own random substream derived from (seed, frequency index), and within
a substream distances are drawn before shadow fading.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .models import (
    Environment,
    RmaParams,
    ApplicabilityError,
    RMA_LOS_D2D_RANGE_M,
    RMA_NLOS_D2D_RANGE_M,
    distance_3d,
    los_second_slope,
    rma_los,
    rma_nlos,
)

# Recalibration defaults: nine carrier frequencies spanning 1-100 GHz with
# 50 000 instances each (450 000 samples per environment).
DEFAULT_FREQUENCIES_GHZ = (1.0, 2.0, 6.0, 15.0, 28.0, 38.0, 60.0, 73.0, 100.0)
DEFAULT_SAMPLES_PER_FREQUENCY = 50_000

# Shadow fading standard deviations of the RMa models (dB).
SIGMA_LOS_PRE_BP_DB = 4.0
SIGMA_LOS_POST_BP_DB = 6.0
SIGMA_NLOS_DB = 8.0

SAMPLING_MODES = ("linear", "log")

DATASET_CSV_HEADER = ("fc_ghz", "d2d_m", "d3d_m", "env", "pl_db", "seed", "sampling_mode")
_ENVIRONMENT_VALUES = tuple(env.value for env in Environment)
_DATASET_FLOAT_FIELDS = ("fc_ghz", "d2d_m", "d3d_m", "pl_db")
_WRITE_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one Monte Carlo dataset.

    Defaults reproduce the recalibration setup: nine frequencies, 50 000
    samples each, default RMa geometry, 2D distances drawn uniformly over
    the environment's full span (10 m to 10 km LOS, 10 m to 5 km NLOS).

    ``distance_sampling`` selects uniform-linear ("linear") or uniform in
    log-distance ("log"); the mode is recorded in exported datasets since
    it changes the fitted CI coefficients. ``include_shadow_fading=False``
    emits the mean model only, which is useful for oracle checks.
    """

    environment: Environment
    frequencies_ghz: tuple[float, ...] = DEFAULT_FREQUENCIES_GHZ
    samples_per_frequency: int = DEFAULT_SAMPLES_PER_FREQUENCY
    d2d_min_m: float = 10.0
    d2d_max_m: float | None = None
    params: RmaParams = field(default_factory=RmaParams)
    seed: int = 0
    distance_sampling: str = "linear"
    include_shadow_fading: bool = True

    def __post_init__(self):
        if not isinstance(self.environment, Environment):
            object.__setattr__(self, "environment", Environment(self.environment))
        span = (RMA_LOS_D2D_RANGE_M if self.environment is Environment.LOS
                else RMA_NLOS_D2D_RANGE_M)
        if self.d2d_max_m is None:
            object.__setattr__(self, "d2d_max_m", span[1])
        if not self.frequencies_ghz:
            raise ValueError("frequencies_ghz must not be empty")
        if any(fc <= 0 for fc in self.frequencies_ghz):
            raise ValueError("frequencies must be positive")
        if self.samples_per_frequency <= 0:
            raise ValueError("samples_per_frequency must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.distance_sampling not in SAMPLING_MODES:
            raise ValueError(f"distance_sampling must be one of {SAMPLING_MODES}")
        if not self.d2d_min_m < self.d2d_max_m:
            raise ValueError("d2d_min_m must be less than d2d_max_m")
        if self.d2d_min_m < span[0] or self.d2d_max_m > span[1]:
            raise ApplicabilityError(
                f"d2d bounds [{self.d2d_min_m:g}, {self.d2d_max_m:g}] m outside the "
                f"[{span[0]:g}, {span[1]:g}] m RMa {self.environment.value} span"
            )


@dataclass(frozen=True)
class SimulatedDataset:
    """Path loss samples of one environment, held as parallel columns.

    The one sample type of the package: generated, read back from a
    dataset CSV, or converted from campaign records. CI fits run against
    ``d3d_m``. ``seed`` and ``sampling_mode`` are None when not known
    (campaign data) or not constant across the rows of a dataset CSV.
    """

    environment: Environment
    fc_ghz: np.ndarray
    d2d_m: np.ndarray
    d3d_m: np.ndarray
    pl_db: np.ndarray
    seed: int | None
    sampling_mode: str | None

    def __len__(self) -> int:
        return self.pl_db.size

    def write_csv(self, path) -> None:
        """Write the dataset with full float precision (repr round-trip)."""
        env = self.environment.value
        seed = self.seed  # the writer turns None into an empty field
        mode = self.sampling_mode
        columns = (self.fc_ghz, self.d2d_m, self.d3d_m, self.pl_db)
        # Rows stream to the file, converted to Python floats a block at a time.
        rows = ((repr(fc), repr(d2d), repr(d3d), env, repr(pl), seed, mode)
                for start in range(0, len(self), _WRITE_BLOCK_ROWS)
                for fc, d2d, d3d, pl in zip(*(c[start:start + _WRITE_BLOCK_ROWS].tolist()
                                              for c in columns)))
        with open(path, "w", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(DATASET_CSV_HEADER)
            writer.writerows(rows)


def _frequency_rng(seed: int, freq_index: int) -> np.random.Generator:
    # Independent substream per (seed, frequency index): draws for one
    # frequency never move when another frequency's sample count changes.
    return np.random.default_rng([seed, freq_index])


def generate_3gpp_dataset(config: SimulationConfig) -> SimulatedDataset:
    """Generate one Monte Carlo dataset from the RMa models.

    Per frequency: draw 2D distances, convert to 3D, evaluate the mean
    model, then add a shadow fading draw (LOS: 4 dB before the breakpoint,
    6 dB after, 4 dB throughout when the breakpoint exceeds the 10 km
    ceiling; NLOS: 8 dB). The 2D span was validated against the model's
    applicability range at config construction; ``rma_los``/``rma_nlos``
    admit the 3D distances that span maps to.
    """
    params = config.params
    n = config.samples_per_frequency
    log_bounds = (np.log10(config.d2d_min_m), np.log10(config.d2d_max_m))
    los = config.environment is Environment.LOS

    blocks = []  # (fc, d2d, d3d, pl) columns of each frequency
    for index, fc in enumerate(config.frequencies_ghz):
        rng = _frequency_rng(config.seed, index)
        if config.distance_sampling == "linear":
            d2d = rng.uniform(config.d2d_min_m, config.d2d_max_m, n)
        else:
            d2d = 10.0 ** rng.uniform(log_bounds[0], log_bounds[1], n)
        d3d = distance_3d(d2d, params.h_bs, params.h_ut)
        if los:
            mean_pl = rma_los(params, d3d, fc)
            sigma = np.where(los_second_slope(params, d3d, fc),
                             SIGMA_LOS_POST_BP_DB, SIGMA_LOS_PRE_BP_DB)
        else:
            mean_pl = rma_nlos(params, d3d, fc)
            sigma = SIGMA_NLOS_DB
        pl = mean_pl + rng.normal(0.0, sigma, n) if config.include_shadow_fading else mean_pl
        blocks.append((np.full(n, float(fc)), d2d, d3d, pl))
    return SimulatedDataset(config.environment, *map(np.concatenate, zip(*blocks)),
                            seed=config.seed, sampling_mode=config.distance_sampling)


def _parse_dataset_row(row: list[str]):
    """(env, (fc, d2d, d3d, pl), seed, mode) of one dataset CSV row."""
    if len(row) != len(DATASET_CSV_HEADER):
        raise ValueError(f"expected {len(DATASET_CSV_HEADER)} fields, got {len(row)}")
    fc, d2d, d3d, env, pl, seed, mode = row
    if env not in _ENVIRONMENT_VALUES:
        raise ValueError(f"env must be LOS or NLOS, got {env!r}")
    values = (float(fc), float(d2d), float(d3d), float(pl))
    if not all(map(math.isfinite, values)):  # cheap test first; find the field on failure
        for name, value in zip(_DATASET_FLOAT_FIELDS, values):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
    return env, values, seed, mode


def read_dataset_csv(path) -> dict[Environment, SimulatedDataset]:
    """Read a dataset CSV back into one dataset per environment, LOS first.

    Rows stream into growable float columns, so no per-row object is kept.
    Each dataset carries the file's seed and sampling mode, or None where
    that column is not constant across rows. Raises ValueError on a wrong
    header, and with one line-numbered message per malformed row (the
    header is line 1).
    """
    columns = {env: tuple(array("d") for _ in range(4)) for env in _ENVIRONMENT_VALUES}
    seeds: dict[str, int] = {}  # each distinct seed field and its first line
    modes = set()
    errors: list[str] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or tuple(header) != DATASET_CSV_HEADER:
            raise ValueError(
                f"not a dataset CSV: expected header {','.join(DATASET_CSV_HEADER)}"
            )
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                env, values, seed, mode = _parse_dataset_row(row)
            except ValueError as exc:
                errors.append(f"line {line}: {exc}")
                continue
            fc, d2d, d3d, pl = columns[env]
            fc.append(values[0])
            d2d.append(values[1])
            d3d.append(values[2])
            pl.append(values[3])
            seeds.setdefault(seed, line)
            modes.add(mode)
    for seed, line in seeds.items():
        try:
            int(seed or 0)
        except ValueError:
            errors.append(f"line {line}: seed must be an integer, got {seed!r}")
    if errors:
        raise ValueError("\n".join(errors))
    # An empty field is a dataset written without a seed or sampling mode.
    seed = next(iter(seeds)) if len(seeds) == 1 else ""
    mode = next(iter(modes)) if len(modes) == 1 else ""
    return {env: SimulatedDataset(env, *map(np.frombuffer, columns[env.value]),
                                  int(seed) if seed else None, mode or None)
            for env in Environment if columns[env.value][0]}
