"""The one reader and writer of the package's CSV formats (dataset, campaign, curve): it
reads UTF-8, a header is the first record as the csv module reads it (``first_record``),
and ``write_blocks`` writes floats as their ``repr``, a block of rows to one string.
A byte that is not UTF-8 is a ``line N:`` error, found as the file is first scanned,
before any row is parsed.

A format (``CsvFormat``) writes each row rule once, in an ordered table of
``(test, message)``: ``test(view)`` marks the rows of a block that break the
rule, and ``message(row)`` names the fault of one of them. ``np.loadtxt``
splits a plain file a block of rows at a time, and a bad row sends the file
to the row loop. There the csv module splits one row at a time, so that each
row's physical line is known: its field count and float parses are checked
as it is read, and the table holds blocks of the rows that parse. Both formats
feed one column builder, ``_take``: a format names the columns a reader keeps,
and each view the rows kept (``view["kept"]``) and its counts (``view["tally"]``).
The builder, like the dataset generator, allocates its columns as the rows of
one ``column_block``.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import warnings
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

BLOCK_ROWS = 8192


class CsvFormat(NamedTuple):
    """A CSV format: the ``np.loadtxt`` dtype of a block, whose names are the
    header (the row loop keeps each text field whole, as an object; the block
    path keeps whole those the dtype makes ``object``); the type
    of its errors; the rule table, run in report order after the field count
    and the float parses; ``view(block)``, what the rules and the column builder
    read, each value parsed once; the ``(view key, dtype)`` of each column a reader
    keeps, filled from ``view[key][view["kept"]]``, while the builder sums each view's
    ``view["tally"]`` (a mapping of counts); and the text fields that hold a float or nothing."""

    dtype: np.dtype
    error: type[ValueError]
    rules: tuple
    view: Callable
    columns: tuple
    optional: tuple[str, ...] = ()


def finite_rule(name: str) -> tuple:
    """The rule that a row's float ``name`` is finite."""
    return (lambda view: ~np.isfinite(view[name]),
            lambda row: f"{name} must be finite, got {row[name]!r}")


def _views(fmt: CsvFormat, blocks, errors: list | None = None):
    """Yield the view of the good rows of each ``(lines, block)``.

    A bad row raises ValueError, or, given ``errors``, is left out and goes
    there as ``(line, message)``, the message of the first rule it breaks.
    """
    for lines, block in blocks:
        view = fmt.view(block)
        broken = [test(view) for test, _ in fmt.rules]
        bad = np.logical_or.reduce(broken)
        if bad.any():
            if errors is None:
                raise ValueError("a row breaks a row rule")
            for i in np.flatnonzero(bad):
                message = next(message for (_, message), mask in zip(fmt.rules, broken) if mask[i])
                errors.append((lines[i], message(dict(zip(block.dtype.names, block[i].item())))))
            block = block[~bad]
            if not len(block):
                continue
            view = fmt.view(block)
        yield view


def first_record(reader) -> tuple:
    """A csv reader's next record, or ``()`` at the end of the file or on a ``csv.Error``."""
    try:
        return tuple(next(reader, ()))
    except csv.Error:
        return ()


def checked_csv_rows(f, fmt: CsvFormat):
    """Yield the views of an open CSV file's good rows, up to 8192 at a time.

    Raises ``fmt.error`` on a wrong header, and after the last row with a
    ``line N: <message>`` per bad row in line order, N the physical line it
    starts on (the header is line 1). A ``csv.Error`` (bad quoting, an
    oversized field) is one such line too, and the last: its place in a
    quoted field is lost.
    """
    header = fmt.dtype.names
    reader = csv.reader(f, strict=True)
    if first_record(reader) != header:
        raise fmt.error(f"missing or invalid header; expected {','.join(header)}")
    dtype = np.dtype([(name, "f8" if fmt.dtype[name].kind == "f" else "O") for name in header])
    floats = [(i, name not in fmt.optional) for i, name in enumerate(header)
              if dtype[i] != object or name in fmt.optional]
    errors = []

    def parsed():  # (line, fields) of each row whose field count and floats pass
        line = reader.line_num + 1
        try:
            for row in reader:
                if row:
                    try:
                        if len(row) != len(header):
                            raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                        for i, required in floats:
                            if required or row[i]:  # an empty optional float stays ""
                                row[i] = float(row[i])
                        yield line, tuple(row)
                    except ValueError as exc:
                        errors.append((line, str(exc)))
                line = reader.line_num + 1
        except csv.Error as exc:
            errors.append((line, str(exc)))

    rows = parsed()
    while chunk := list(itertools.islice(rows, BLOCK_ROWS)):
        lines, fields = zip(*chunk)
        yield from _views(fmt, [(lines, np.fromiter(fields, dtype, len(fields)))], errors)
    if errors:
        raise fmt.error("\n".join(f"line {line}: {message}" for line, message in sorted(errors)))


def write_blocks(f, header, columns, rows) -> None:
    """Write ``header``, then each block of up to 8192 rows of the float arrays ``columns``
    as the one string ``rows(*lists)`` makes of the block's columns as lists of floats."""
    f.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        f.write(rows(*(c[start:start + BLOCK_ROWS].tolist() for c in columns)))


def _breaks(data: bytes, after_cr: bool) -> int:
    """The line breaks in ``data``, which follows a CR where ``after_cr``: LF, CR and
    CRLF each end one line for the csv module and ``np.loadtxt``, also a CRLF split
    across two chunks."""
    lines = data.count(b"\n") - (after_cr and data[:1] == b"\n")
    if b"\r" in data:  # counted only where present: an LF file's scan costs no more
        lines += data.count(b"\r") - data.count(b"\r\n")
    return lines


# The count lets both paths allocate once; one-pass readers cost 12-16 MB more peak RSS.
def _row_bound(path, error: type[ValueError]) -> tuple[bool, int]:
    """Whether the block reader may parse a file, and its count of line breaks,
    which bounds the rows.

    Each chunk is decoded as it is counted, so a byte that is not UTF-8 raises
    ``error`` as ``line N: <the decoder's reason>`` before any row is parsed.
    ``np.loadtxt`` drops the NULs that end a text field, keeps quotes
    (``quotechar=None``) and reads a float of any length, where the csv module
    keeps the NULs, strips quotes and rejects a field over its limit; a line
    break in every chunk of half the limit keeps each line under it.
    """
    size = csv.field_size_limit() // 2
    plain, breaks, after_cr = True, 0, False
    decode = codecs.getincrementaldecoder("utf-8")().decode
    with open(path, "rb") as f:
        while True:
            chunk = f.read(size)
            try:
                decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # The decoder holds back only the start of a character, never a line
                # break, so the breaks before the fault are those of this chunk.
                line = breaks + _breaks(exc.object[:exc.start], after_cr) + 1
                raise error(f"line {line}: 'utf-8' codec can't decode byte "
                            f"0x{exc.object[exc.start]:02x}: {exc.reason}") from exc
            if not chunk:
                return plain, breaks
            lines = _breaks(chunk, after_cr)
            plain = plain and not (b"\0" in chunk or b'"' in chunk
                                   or (len(chunk) == size and not lines))
            breaks, after_cr = breaks + lines, chunk.endswith(b"\r")


def column_block(count: int, rows: int, dtype) -> np.ndarray:
    """An uninitialised ``(count, rows)`` array whose rows are ``count`` columns."""
    # One 2-D block, not an allocation per column: one per column made a 200 000-row
    # campaign read take ~3 700 more page faults (glibc heap trims).
    return np.empty((count, rows), dtype)


def _take(views, rows: int, fmt: CsvFormat) -> tuple[list[np.ndarray], Counter]:
    """The kept rows of checked views, one array per ``(key, dtype)`` of ``fmt.columns``,
    each sized once from the row bound ``rows``, a ``column_block`` row per column of a
    dtype; and the sum of the views' tallies."""
    blocks = {dtype: iter(column_block(count, rows, dtype))
              for dtype, count in Counter(dtype for _, dtype in fmt.columns).items()}
    taken = [next(blocks[dtype]) for _, dtype in fmt.columns]
    n, tally = 0, Counter()
    for view in views:
        for column, (key, _) in zip(taken, fmt.columns):
            values = view[key][view["kept"]]
            column[n:n + len(values)] = values
        n += len(values)
        tally.update(view["tally"])
    return [column[:n] for column in taken], tally


def read_csv_file(path, fmt: CsvFormat) -> tuple[list[np.ndarray], Counter]:
    """The kept columns (``fmt.columns``) and summed tally of a CSV file's good rows.

    The row bound sizes each column once. A plain file (``_row_bound``) with
    the header first is split by ``np.loadtxt``, one call per block of 8192
    rows. When a row breaks a rule there, or ``loadtxt`` or ``fmt.view``
    rejects or warns of a block, the row loop (``checked_csv_rows``) reads
    the file; it raises the header error or the row errors once the good rows
    have been taken.
    """
    plain, rows = _row_bound(path, fmt.error)
    with open(path, encoding="utf-8", newline="") as f:
        if plain and first_record(csv.reader(f)) == fmt.dtype.names:
            # Peeking at each block's first line means loadtxt never meets an
            # empty input, which it warns of.
            blocks = (np.loadtxt(itertools.chain((first,), f), dtype=fmt.dtype, delimiter=",",
                                 comments=None, quotechar=None, max_rows=BLOCK_ROWS, ndmin=1)
                      for first in iter(f.readline, ""))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    return _take(_views(fmt, ((None, block) for block in blocks)), rows, fmt)
                except (ValueError, Warning):
                    pass
        f.seek(0)
        return _take(checked_csv_rows(f, fmt), rows, fmt)
