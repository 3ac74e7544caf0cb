"""Monte Carlo path loss dataset generation from the TR 38.900 RMa models.

Draws random 2D distances per frequency, evaluates the RMa mean model at
the corresponding 3D distance, and adds lognormal (Gaussian-in-dB) shadow
fading. Output is deterministic for a fixed config: every frequency gets
its own random substream derived from (seed, frequency index), and within
a substream distances are drawn before shadow fading.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
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
_CSV_BLOCK_ROWS = 8192
# Each text field is one character wider than its longest accepted value
# (NLOS, a 20-digit seed, linear), so a longer value, cut to that width,
# never passes the row rules.
_DATASET_BLOCK_DTYPE = np.dtype([
    ("fc_ghz", "f8"), ("d2d_m", "f8"), ("d3d_m", "f8"), ("env", "U5"), ("pl_db", "f8"),
    ("seed", "U21"), ("sampling_mode", "U7")])


def _check_seed_and_mode(seed: str | None, mode: str | None) -> None:
    """Raise ValueError unless ``seed`` and ``mode`` are None or fields ``write_csv`` writes.

    A seed is the plain decimal of an integer in [0, 2**64), so at most 20
    characters; a mode is linear or log. None is written as an empty field.
    """
    if seed is not None and not (len(seed) <= 20 and seed.isascii() and seed.isdigit()
                                 and int(seed) < 2**64 and str(int(seed)) == seed):
        try:
            int(seed)
        except ValueError:
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        raise ValueError(f"seed must be a plain decimal integer in [0, 2**64), got {seed!r}")
    if mode is not None and mode not in SAMPLING_MODES:
        raise ValueError(f"sampling_mode must be linear or log, got {mode!r}")


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
        if not self.frequencies_ghz:
            raise ValueError("frequencies_ghz must not be empty")
        if finite_positive("frequencies", self.frequencies_ghz).ndim != 1:
            raise ValueError("frequencies_ghz must be a flat sequence of numbers")
        count = self.samples_per_frequency  # an integer, numpy's too, but not a bool
        if isinstance(count, bool) or not hasattr(count, "__index__") or count <= 0:
            raise ValueError("samples_per_frequency must be a positive integer")
        _check_seed_and_mode(_seed_text(self.seed), str(self.distance_sampling))
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
        _check_seed_and_mode(None if self.seed is None else _seed_text(self.seed),
                             self.sampling_mode)

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
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                block = (c[start:start + _CSV_BLOCK_ROWS].tolist() for c in columns)
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
    _check_seed_and_mode(seed or None, mode or None)
    return env, values, seed, mode


def checked_csv_rows(f, header: tuple[str, ...], header_error: Exception, parse_row):
    """Yield ``parse_row(row)`` for each non-blank row after ``header``.

    Raises ``header_error`` on a wrong header, and after the last row one
    error of its type with a ``line N: <message>`` per row ``parse_row``
    rejects with ValueError, N the physical line the row starts on (the
    header is line 1). A ``csv.Error`` (bad quoting, an oversized field) is
    one such line too, and the last: its place in a quoted field is lost.
    """
    reader = csv.reader(f, strict=True)
    try:
        first = next(reader, ())
    except csv.Error:
        first = ()
    if tuple(first) != header:
        raise header_error
    errors = []
    line = reader.line_num + 1
    try:
        for row in reader:
            if row:
                try:
                    yield parse_row(row)
                except ValueError as exc:
                    errors.append(f"line {line}: {exc}")
            line = reader.line_num + 1
    except csv.Error as exc:
        errors.append(f"line {line}: {exc}")
    if errors:
        raise type(header_error)("\n".join(errors))


# The count lets the block reader allocate once; one-pass readers cost 12-16 MB more peak RSS.
def _row_bound(path) -> int | None:
    """The newline count of a file the block reader may parse, else None.

    ``np.loadtxt`` drops the NULs that end a text field and reads a float of
    any length, where the csv module keeps the NULs and rejects a field over
    its limit; a newline in every chunk of half the limit keeps each line
    under it. A file with a CR is left to the csv module too, so that every
    row ends in a newline and the count bounds the rows, and so is one with a
    quote, which ``np.loadtxt`` (``quotechar=None``) would keep in the field.
    """
    size = csv.field_size_limit() // 2
    newlines = 0
    with open(path, "rb") as f:
        while chunk := f.read(size):
            if (b"\0" in chunk or b"\r" in chunk or b'"' in chunk
                    or (len(chunk) == size and b"\n" not in chunk)):
                return None
            newlines += chunk.count(b"\n")
    return newlines


def read_csv_file(path, header: tuple[str, ...], dtype: np.dtype, take_blocks, read_rows,
                  encoding: str | None = None):
    """What a CSV file reads as: ``take_blocks`` of a plain file, else ``read_rows(f)``.

    A plain file has ``header`` as its exact first line, and neither CR, quote
    nor NUL. ``take_blocks(blocks, rows)`` gets its rows as ``dtype`` arrays of
    up to 8192 rows, one ``np.loadtxt`` call each, and ``rows``, a bound on
    their count; it raises ValueError where a row may break a row rule. Then,
    or when ``loadtxt`` rejects or warns of a line (a blank one), the row loop
    ``read_rows`` reads the file, and it alone raises the row errors.
    """
    with open(path, encoding=encoding, newline="") as f:
        rows = _row_bound(path)
        if rows is not None and f.readline() == ",".join(header) + "\n":
            # Peeking at each block's first line means loadtxt never meets an
            # empty input, which it warns of.
            blocks = (np.loadtxt(itertools.chain((first,), f), dtype=dtype, delimiter=",",
                                 comments=None, quotechar=None, max_rows=_CSV_BLOCK_ROWS, ndmin=1)
                      for first in iter(f.readline, ""))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    return take_blocks(blocks, rows)
                except (ValueError, Warning):
                    pass
        f.seek(0)
        return read_rows(f)


def _distinct(column: np.ndarray) -> set[str]:
    first = str(column[0])
    return {first} if (column == first).all() else set(column.tolist())


def _take_dataset_blocks(blocks, rows: int):
    """``_read_dataset_rows``'s result for blocks of dataset rows, in columns sized once."""
    values = np.empty((len(_DATASET_FLOAT_FIELDS), rows))
    nlos = np.empty(rows, dtype=bool)
    n = 0
    seeds, modes = set(), set()
    for block in blocks:
        end = n + len(block)
        nlos[n:end] = block["env"] == "NLOS"
        for column, name in zip(values, _DATASET_FLOAT_FIELDS):
            column[n:end] = block[name]
        if not ((nlos[n:end] | (block["env"] == "LOS")).all()
                and np.isfinite(values[:, n:end]).all()):
            raise ValueError("a row breaks a row rule")
        seeds |= _distinct(block["seed"])
        modes |= _distinct(block["sampling_mode"])
        n = end
    for seed, mode in itertools.zip_longest(seeds, modes, fillvalue=""):
        _check_seed_and_mode(seed or None, mode or None)
    return values[:, :n], nlos[:n], seeds, modes


def _read_dataset_rows(f):
    """``(columns, nlos, seeds, modes)`` of any dataset CSV, one row at a time.

    Raises ValueError on a wrong header, and with one message per malformed
    row naming the physical line it starts on.
    """
    floats, nlos = array("d"), bytearray()
    seeds, modes = set(), set()
    header_error = ValueError(
        f"not a dataset CSV: expected header {','.join(DATASET_CSV_HEADER)}")
    for env, values, seed, mode in checked_csv_rows(
            f, DATASET_CSV_HEADER, header_error, _parse_dataset_row):
        floats.extend(values)
        nlos.append(env == "NLOS")
        seeds.add(seed)
        modes.add(mode)
    return np.reshape(floats, (-1, len(_DATASET_FLOAT_FIELDS))).T.copy(), nlos, seeds, modes


def read_dataset_csv(path) -> dict[Environment, SimulatedDataset]:
    """Read a dataset CSV back into one dataset per environment, LOS first.

    A file in the shape ``write_csv`` writes is parsed a block of rows at a
    time by ``np.loadtxt`` into float columns sized once; any other file is
    read one row at a time by the csv module into growable float columns,
    with the same result. Either way no per-row object is kept, and only
    the row loop builds error messages. Each dataset carries the
    file's seed and sampling mode, or None where that column is not constant
    across rows. Raises ValueError on a wrong header, and with one message
    per malformed row naming the physical line it starts on (the header is
    line 1).
    """
    columns, nlos, seeds, modes = read_csv_file(path, DATASET_CSV_HEADER, _DATASET_BLOCK_DTYPE,
                                                _take_dataset_blocks, _read_dataset_rows)
    # An empty field is a dataset written without a seed or sampling mode.
    seed = next(iter(seeds)) if len(seeds) == 1 else ""
    mode = next(iter(modes)) if len(modes) == 1 else ""
    return datasets_by_environment(columns, nlos, int(seed) if seed else None, mode or None)


def datasets_by_environment(columns, nlos, seed=None, sampling_mode=None
                            ) -> dict[Environment, SimulatedDataset]:
    """One dataset per environment in a reader's rows, LOS first, rows in file order.

    ``columns`` are the rows' fc_ghz, d2d_m, d3d_m and pl_db floats and ``nlos``
    their NLOS mask; the columns of a one-environment source are used in place.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    nlos = np.asarray(nlos, dtype=bool)
    return {env: SimulatedDataset(env, *(columns if mask.all() else [c[mask] for c in columns]),
                                  seed, sampling_mode)
            for env, mask in ((Environment.LOS, ~nlos), (Environment.NLOS, nlos)) if mask.any()}
