"""Monte Carlo path loss dataset generation from the TR 38.900 RMa models.

Draws random 2D distances per frequency, evaluates the RMa mean model at
the corresponding 3D distance, and adds lognormal (Gaussian-in-dB) shadow
fading. Output is deterministic for a fixed config: every frequency gets
its own random substream derived from (seed, frequency index), and within
a substream distances are drawn before shadow fading.

Datasets go to and from the dataset CSV format, whose row rules are one
table here (``_DATASET_FORMAT``), read by the shared ``_csv`` reader.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csv import BLOCK_ROWS, CsvFormat, finite_rule, read_csv_file
from .models import (
    Environment,
    RmaParams,
    ApplicabilityError,
    RMA_LOS_D2D_RANGE_M,
    RMA_NLOS_D2D_RANGE_M,
    distance_3d,
    finite_positive,
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
_DATASET_HEADER_LINE = ",".join(DATASET_CSV_HEADER) + "\n"
# Each text field is one character wider than its longest accepted value
# (NLOS, a 20-digit seed, linear), so a longer value, cut to that width,
# never passes the row rules.
_DATASET_BLOCK_DTYPE = np.dtype([
    ("fc_ghz", "f8"), ("d2d_m", "f8"), ("d3d_m", "f8"), ("env", "U5"), ("pl_db", "f8"),
    ("seed", "U21"), ("sampling_mode", "U7")])


def _seed_and_mode_error(seed: str | None = None, sampling_mode: str | None = None) -> str:
    """Why ``seed`` or ``sampling_mode`` is not None or a field ``write_csv``
    writes, or '' where both are.

    A seed is the plain decimal of an integer in [0, 2**64), so at most 20
    characters; a mode is linear or log. None is written as an empty field.
    """
    if seed is not None and not (len(seed) <= 20 and seed.isascii() and seed.isdigit()
                                 and int(seed) < 2**64 and str(int(seed)) == seed):
        try:
            int(seed)
        except ValueError:
            return f"seed must be an integer, got {seed!r}"
        return f"seed must be a plain decimal integer in [0, 2**64), got {seed!r}"
    if sampling_mode is not None and sampling_mode not in SAMPLING_MODES:
        return f"sampling_mode must be linear or log, got {sampling_mode!r}"
    return ""


def _distinct(column: np.ndarray) -> set[str]:
    first = str(column[0])
    return {first} if (column == first).all() else set(column.tolist())


def _dataset_view(block) -> dict:
    """A dataset block's columns by name, the floats copied out of it once, with
    a mask per environment (``view["env", "LOS"]``) and the distinct seeds and
    modes (``view["seeds"]``, ``view["modes"]``)."""
    view = {name: block[name] for name in DATASET_CSV_HEADER}
    view.update(zip(_DATASET_FLOAT_FIELDS, np.stack([block[n] for n in _DATASET_FLOAT_FIELDS])))
    view.update((("env", env), block["env"] == env) for env in _ENVIRONMENT_VALUES)
    view["seeds"], view["modes"] = _distinct(block["seed"]), _distinct(block["sampling_mode"])
    return view


def _bad_seed_or_mode(view) -> np.ndarray:
    """The rows whose seed or mode breaks its rule; each distinct value is checked once."""
    bad = np.zeros(len(view["seed"]), dtype=bool)
    for name, texts in (("seed", view["seeds"]), ("sampling_mode", view["modes"])):
        rejected = [text for text in texts if _seed_and_mode_error(**{name: text or None})]
        if rejected:  # as objects: numpy drops the NULs that end a text it converts
            bad |= np.isin(view[name], np.array(rejected, dtype=object))
    return bad


# The dataset row rules in report order, after the field count and the float parses.
_DATASET_FORMAT = CsvFormat(
    _DATASET_BLOCK_DTYPE, ValueError,
    f"not a dataset CSV: expected header {','.join(DATASET_CSV_HEADER)}", (
        (lambda view: ~(view["env", "LOS"] | view["env", "NLOS"]),
         lambda row: f"env must be LOS or NLOS, got {row['env']!r}"),
        *map(finite_rule, _DATASET_FLOAT_FIELDS),
        (_bad_seed_or_mode,
         lambda row: _seed_and_mode_error(row["seed"] or None, row["sampling_mode"] or None)),
    ), _dataset_view)


def _seed_text(seed) -> str:
    """The text ``write_csv`` writes for an integer seed; a str is no integer."""
    if isinstance(seed, str):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return str(seed)


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
        frequencies = finite_positive("frequencies", self.frequencies_ghz)
        if frequencies.ndim != 1:
            raise ValueError("frequencies_ghz must be a flat sequence of numbers")
        if not frequencies.size:
            raise ValueError("frequencies_ghz must not be empty")
        # Floats in a tuple, so that equal configs compare equal and hash.
        object.__setattr__(self, "frequencies_ghz", tuple(frequencies.tolist()))
        count = self.samples_per_frequency  # an integer, numpy's too, but not a bool
        if isinstance(count, bool) or not hasattr(count, "__index__") or count <= 0:
            raise ValueError("samples_per_frequency must be a positive integer")
        if error := _seed_and_mode_error(_seed_text(self.seed), str(self.distance_sampling)):
            raise ValueError(error)
        for name in ("d2d_min_m", "d2d_max_m"):
            if finite_positive(name, getattr(self, name)).ndim:
                raise ValueError(f"{name} must be a number")
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

    def __post_init__(self):
        if {np.shape(c) for c in (self.fc_ghz, self.d2d_m, self.d3d_m, self.pl_db)} != {
                (np.size(self.pl_db),)}:
            raise ValueError("fc_ghz, d2d_m, d3d_m and pl_db must be 1-D and of one length")
        seed = None if self.seed is None else _seed_text(self.seed)
        if error := _seed_and_mode_error(seed, self.sampling_mode):
            raise ValueError(error)

    def __len__(self) -> int:
        return self.pl_db.size

    def write_csv(self, path) -> None:
        """Write the dataset with full float precision (repr round-trip)."""
        env = self.environment.value
        # No env, seed or mode the rules admit needs quoting; None is an empty field.
        tail = f"{'' if self.seed is None else self.seed},{self.sampling_mode or ''}\n"
        columns = (self.fc_ghz, self.d2d_m, self.d3d_m, self.pl_db)
        with open(path, "w", newline="") as f:
            f.write(_DATASET_HEADER_LINE)
            # One string and one write per block of rows, converted to Python floats.
            for start in range(0, len(self), BLOCK_ROWS):
                block = (c[start:start + BLOCK_ROWS].tolist() for c in columns)
                f.write("".join([f"{fc!r},{d2d!r},{d3d!r},{env},{pl!r},{tail}"
                                 for fc, d2d, d3d, pl in zip(*block)]))


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


def _take_dataset_blocks(views, rows: int):
    """``(columns, nlos, seeds, modes)`` of checked dataset views, in columns sized once."""
    values = np.empty((len(_DATASET_FLOAT_FIELDS), rows))
    nlos = np.empty(rows, dtype=bool)
    n = 0
    seeds, modes = set(), set()
    for view in views:
        end = n + len(view["env"])
        nlos[n:end] = view["env", "NLOS"]
        for column, name in zip(values, _DATASET_FLOAT_FIELDS):
            column[n:end] = view[name]
        seeds |= view["seeds"]
        modes |= view["modes"]
        n = end
    return values[:, :n], nlos[:n], seeds, modes


def read_dataset_csv(path) -> dict[Environment, SimulatedDataset]:
    """Read a dataset CSV back into one dataset per environment, LOS first.

    A file in the shape ``write_csv`` writes is split into fields a block of
    rows at a time by ``np.loadtxt``, any other file one row at a time by the
    csv module; both hold the rows to one rule table. Either way the columns
    are sized once and no per-row object is kept. Each dataset carries the
    file's seed and sampling mode, or None where that column is not constant
    across rows. Raises ValueError on a wrong header, and with one message
    per malformed row naming the physical line it starts on (the header is
    line 1).
    """
    columns, nlos, seeds, modes = read_csv_file(path, _DATASET_FORMAT, _take_dataset_blocks)
    # An empty field is a dataset written without a seed or sampling mode.
    seed = next(iter(seeds)) if len(seeds) == 1 else ""
    mode = next(iter(modes)) if len(modes) == 1 else ""
    return datasets_by_environment(columns, nlos, int(seed) if seed else None, mode or None)


def datasets_by_environment(columns, nlos, seed=None, sampling_mode=None
                            ) -> dict[Environment, SimulatedDataset]:
    """One dataset per environment in a reader's rows, LOS first, rows in file order.

    ``columns`` are the rows' fc_ghz, d2d_m, d3d_m and pl_db float arrays and
    ``nlos`` their NLOS mask, a bool array; the columns of a one-environment
    source are used in place.
    """
    return {env: SimulatedDataset(env, *(columns if mask.all() else [c[mask] for c in columns]),
                                  seed, sampling_mode)
            for env, mask in ((Environment.LOS, ~nlos), (Environment.NLOS, nlos)) if mask.any()}
