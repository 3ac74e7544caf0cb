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

from ._csv import CsvFormat, column_block, finite_rule, read_csv_file, write_blocks
from .models import (
    Environment,
    RmaParams,
    RMA_LOS_D2D_RANGE_M,
    RMA_NLOS_D2D_RANGE_M,
    distance_3d,
    finite,
    los_second_slope,
    rma_los,
    rma_nlos,
)

# The recalibration's nine carrier frequencies, 1-100 GHz, each dataset draws
# at; 50 000 instances each by default (450 000 samples per environment).
DEFAULT_FREQUENCIES_GHZ = (1.0, 2.0, 6.0, 15.0, 28.0, 38.0, 60.0, 73.0, 100.0)
DEFAULT_SAMPLES_PER_FREQUENCY = 50_000
# The most samples per frequency whose generator block (four float64 rows) fits one array.
_MOST_SAMPLES_PER_FREQUENCY = np.iinfo(np.intp).max // (32 * len(DEFAULT_FREQUENCIES_GHZ))

# Shadow fading standard deviations of the RMa models (dB).
SIGMA_LOS_PRE_BP_DB = 4.0
SIGMA_LOS_POST_BP_DB = 6.0
SIGMA_NLOS_DB = 8.0

SAMPLING_MODES = ("linear", "log")

_ENVIRONMENT_VALUES = tuple(env.value for env in Environment)
_DATASET_FLOAT_FIELDS = ("fc_ghz", "d2d_m", "d3d_m", "pl_db")
# Each text field is one character wider than its longest accepted value
# (NLOS, a 20-digit seed, linear), so a longer value, cut to that width,
# never passes the row rules.
_DATASET_BLOCK_DTYPE = np.dtype([
    ("fc_ghz", "f8"), ("d2d_m", "f8"), ("d3d_m", "f8"), ("env", "U5"), ("pl_db", "f8"),
    ("seed", "U21"), ("sampling_mode", "U7")])
DATASET_CSV_HEADER = _DATASET_BLOCK_DTYPE.names


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
        return f"sampling_mode must be {' or '.join(SAMPLING_MODES)}, got {sampling_mode!r}"
    return ""


def _distinct(column: np.ndarray) -> set[str]:
    first = str(column[0])
    return {first} if (column == first).all() else set(column.tolist())


def _dataset_view(block) -> dict:
    """A dataset block's columns by name, with a mask per environment
    (``view["env", "LOS"]``), the rows a reader keeps (``view["kept"]``: all of them)
    and the distinct seeds and modes (``view["tally"]``, keyed ``(name, text)``)."""
    view = {name: block[name] for name in DATASET_CSV_HEADER}
    view.update((("env", env), block["env"] == env) for env in _ENVIRONMENT_VALUES)
    view["kept"], view["tally"] = slice(None), {
        (name, text): 1 for name in ("seed", "sampling_mode") for text in _distinct(block[name])}
    return view


def _bad_seed_or_mode(view) -> np.ndarray:
    """The rows whose seed or mode breaks its rule; each distinct value is checked once."""
    bad = np.zeros(len(view["seed"]), dtype=bool)
    for name, text in view["tally"]:
        if _seed_and_mode_error(**{name: text or None}):
            # As an object: numpy drops the NULs that end a text it converts.
            bad |= np.isin(view[name], np.array([text], dtype=object))
    return bad


# The dataset row rules in report order, after the field count and the float parses.
_DATASET_FORMAT = CsvFormat(_DATASET_BLOCK_DTYPE, ValueError, (
    (lambda view: ~(view["env", "LOS"] | view["env", "NLOS"]),
     lambda row: f"env must be LOS or NLOS, got {row['env']!r}"),
    *map(finite_rule, _DATASET_FLOAT_FIELDS),
    (_bad_seed_or_mode,
     lambda row: _seed_and_mode_error(row["seed"] or None, row["sampling_mode"] or None)),
), _dataset_view, (*((name, float) for name in _DATASET_FLOAT_FIELDS), (("env", "NLOS"), bool)))


def _seed_text(seed) -> str:
    """The text ``write_csv`` writes for an integer seed; a str is no integer."""
    if isinstance(seed, str):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return str(seed)


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one Monte Carlo dataset.

    A dataset draws ``samples_per_frequency`` samples at each of the nine
    ``DEFAULT_FREQUENCIES_GHZ`` over the environment's full 2D span. Defaults
    reproduce the recalibration setup: 50 000 samples each, default geometry.

    ``distance_sampling`` selects uniform-linear ("linear") or uniform in
    log-distance ("log"); the mode is recorded in exported datasets since
    it changes the fitted CI coefficients. The mean model at a dataset's
    samples is ``rma_los``/``rma_nlos(params, ds.d3d_m, ds.fc_ghz)``.
    """

    environment: Environment
    samples_per_frequency: int = DEFAULT_SAMPLES_PER_FREQUENCY
    params: RmaParams = field(default_factory=RmaParams)
    seed: int = 0
    distance_sampling: str = "linear"

    def __post_init__(self):
        object.__setattr__(self, "environment", Environment(self.environment))
        count = self.samples_per_frequency  # an integer, numpy's too, but not a bool or array
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count <= 0:
            raise ValueError("samples_per_frequency must be a positive integer")
        if count > _MOST_SAMPLES_PER_FREQUENCY:
            raise ValueError(f"samples_per_frequency must be at most {_MOST_SAMPLES_PER_FREQUENCY} "
                             f"for {len(DEFAULT_FREQUENCIES_GHZ)} frequencies")
        if error := _seed_and_mode_error(_seed_text(self.seed), str(self.distance_sampling)):
            raise ValueError(error)
        if not isinstance(self.params, RmaParams):
            raise ValueError(f"params must be an RmaParams, got {type(self.params).__name__}")


@dataclass(frozen=True)
class SimulatedDataset:
    """Path loss samples of one environment, held as parallel columns.

    The one sample type of the package: generated, read back from a
    dataset CSV, or read from a campaign CSV. CI fits run against
    ``d3d_m``. ``seed`` and ``sampling_mode`` are None when not known
    (campaign data) or not constant across the rows of a dataset CSV. The
    columns may be rows of one block (``generate_3gpp_dataset``) or views
    of a reader's arrays; their values are checked when written.
    """

    environment: Environment
    fc_ghz: np.ndarray
    d2d_m: np.ndarray
    d3d_m: np.ndarray
    pl_db: np.ndarray
    seed: int | None
    sampling_mode: str | None

    def __post_init__(self):
        object.__setattr__(self, "environment", Environment(self.environment))
        if {np.shape(c) for c in (self.fc_ghz, self.d2d_m, self.d3d_m, self.pl_db)} != {
                (np.size(self.pl_db),)}:
            raise ValueError("fc_ghz, d2d_m, d3d_m and pl_db must be 1-D and of one length")
        seed = None if self.seed is None else _seed_text(self.seed)
        if error := _seed_and_mode_error(seed, self.sampling_mode):
            raise ValueError(error)

    def __len__(self) -> int:
        return self.pl_db.size

    def write_csv(self, path) -> None:
        """Write the dataset with full float precision (repr round-trip).

        Raises ValueError (``pl_db must be finite``), before the file is
        opened, on a column holding text or a value that is not finite, so
        that every file written is one ``read_dataset_csv`` reads.
        """
        columns = [finite(name, getattr(self, name)) for name in _DATASET_FLOAT_FIELDS]
        env = self.environment.value
        # No env, seed or mode the rules admit needs quoting; None is an empty field.
        tail = f"{'' if self.seed is None else self.seed},{self.sampling_mode or ''}\n"
        with open(path, "w", encoding="utf-8", newline="") as f:
            write_blocks(f, DATASET_CSV_HEADER, columns,
                         lambda *block: "".join([f"{fc!r},{d2d!r},{d3d!r},{env},{pl!r},{tail}"
                                                 for fc, d2d, d3d, pl in zip(*block)]))


def _frequency_rng(seed: int, freq_index: int) -> np.random.Generator:
    # Independent substream per (seed, frequency index): a frequency's first
    # m distances are the same at any sample count of m or more.
    return np.random.default_rng([seed, freq_index])


def generate_3gpp_dataset(config: SimulationConfig) -> SimulatedDataset:
    """Generate one Monte Carlo dataset from the RMa models.

    Per frequency of ``DEFAULT_FREQUENCIES_GHZ``: draw 2D distances over
    the environment's span (``RMA_LOS_D2D_RANGE_M`` or
    ``RMA_NLOS_D2D_RANGE_M``), convert to 3D, evaluate the mean model, then
    add a shadow fading draw (LOS: 4 dB before the breakpoint, 6 dB after,
    4 dB throughout when the breakpoint exceeds the 10 km ceiling; NLOS:
    8 dB). ``rma_los``/``rma_nlos`` admit the 3D distances the span maps to.

    The dataset's four columns are the rows of one ``(4, N)`` float block,
    each frequency's samples one slice of it.
    """
    params = config.params
    n = config.samples_per_frequency
    los = config.environment is Environment.LOS
    d2d_min, d2d_max = RMA_LOS_D2D_RANGE_M if los else RMA_NLOS_D2D_RANGE_M

    block = column_block(4, n * len(DEFAULT_FREQUENCIES_GHZ), float)  # fc, d2d, d3d, pl rows
    for index, fc in enumerate(DEFAULT_FREQUENCIES_GHZ):
        rng = _frequency_rng(config.seed, index)
        fc_column, d2d, d3d, pl = block[:, index * n:(index + 1) * n]
        fc_column.fill(fc)
        # Generator.uniform, not random(out=) and arithmetic, whose rounding a
        # compiler may change by fusing the multiply and add.
        if config.distance_sampling == "linear":
            d2d[:] = rng.uniform(d2d_min, d2d_max, n)
        else:
            np.power(10.0, rng.uniform(np.log10(d2d_min), np.log10(d2d_max), n), out=d2d)
        d3d[:] = distance_3d(d2d, params.h_bs, params.h_ut)
        mean_pl = (rma_los if los else rma_nlos)(params, d3d, fc)
        sigma = SIGMA_NLOS_DB
        if los:
            second = los_second_slope(params, d3d, fc)
            sigma = (np.where(second, SIGMA_LOS_POST_BP_DB, SIGMA_LOS_PRE_BP_DB)
                     if second.any() else SIGMA_LOS_PRE_BP_DB)
        # normal(0, sigma) draws sigma * standard_normal(), draw for draw.
        rng.standard_normal(out=pl)
        pl *= sigma
        pl += mean_pl
    return SimulatedDataset(config.environment, *block,
                            seed=config.seed, sampling_mode=config.distance_sampling)


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
    (*columns, nlos), tally = read_csv_file(path, _DATASET_FORMAT)
    seeds, modes = ([text for key, text in tally if key == name]
                    for name in ("seed", "sampling_mode"))
    # An empty field is a dataset written without a seed or sampling mode.
    seed = seeds[0] if len(seeds) == 1 else ""
    mode = modes[0] if len(modes) == 1 else ""
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
