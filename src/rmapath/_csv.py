"""The one reader of the package's CSV formats, dataset and campaign CSVs.

A format (``CsvFormat``) writes each row rule once, in an ordered table of
``(test, message)``: ``test(view)`` marks the rows of a block that break the
rule, and ``message(row)`` names the fault of one of them. ``np.loadtxt``
splits a plain file a block of rows at a time, and a bad row sends the file
to the row loop. There the csv module splits one row at a time, so that each
row's physical line is known: its field count and float parses are checked
as it is read, and the table holds blocks of the rows that parse.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from typing import Callable, NamedTuple

import numpy as np

BLOCK_ROWS = 8192


class CsvFormat(NamedTuple):
    """A CSV format: the ``np.loadtxt`` dtype of a block, whose names are the
    header (the row loop keeps each text field whole, as an object); the type
    of its errors and the text of the header error; the rule table, run in
    report order after the field count and the float parses; ``view(block)``,
    what the rules and the column builder read, each value parsed once; and
    the text fields that hold a float or nothing."""

    dtype: np.dtype
    error: type[ValueError]
    header_message: str
    rules: tuple
    view: Callable
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
        with np.errstate(all="ignore"):  # a bad row's floats may overflow a rule's sum
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
    try:
        first = next(reader, ())
    except csv.Error:
        first = ()
    if tuple(first) != header:
        raise fmt.error(fmt.header_message)
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


# The count lets both paths allocate once; one-pass readers cost 12-16 MB more peak RSS.
def _row_bound(path) -> tuple[bool, int]:
    """Whether the block reader may parse a file, and its count of line breaks.

    LF, CR and CRLF each end a line for the csv module and ``np.loadtxt``, so
    the count bounds the rows; a CRLF split across two chunks counts twice.
    ``np.loadtxt`` drops the NULs that end a text field, keeps quotes
    (``quotechar=None``) and reads a float of any length, where the csv module
    keeps the NULs, strips quotes and rejects a field over its limit; a line
    break in every chunk of half the limit keeps each line under it.
    """
    size = csv.field_size_limit() // 2
    plain, breaks = True, 0
    with open(path, "rb") as f:
        while chunk := f.read(size):
            lines = chunk.count(b"\n")
            if b"\r" in chunk:  # counted only where present: an LF file's scan costs no more
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            plain = plain and not (b"\0" in chunk or b'"' in chunk
                                   or (len(chunk) == size and not lines))
            breaks += lines
    return plain, breaks


def read_csv_file(path, fmt: CsvFormat, take_blocks, encoding: str | None = None):
    """``take_blocks(views, rows)`` of a CSV file: the views of its good rows, 8192 at a time.

    ``rows`` bounds their count, so that columns are sized once. A plain file
    (``_row_bound``) with the header first is split by ``np.loadtxt``, one
    call per block. When a row breaks a rule there, or ``loadtxt`` or
    ``fmt.view`` rejects or warns of a block, the row loop
    (``checked_csv_rows``) reads the file; it raises the header error or the
    row errors once the good rows have been taken.
    """
    plain, rows = _row_bound(path)
    with open(path, encoding=encoding, newline="") as f:
        if plain and f.readline().rstrip("\r\n") == ",".join(fmt.dtype.names):
            # Peeking at each block's first line means loadtxt never meets an
            # empty input, which it warns of.
            blocks = (np.loadtxt(itertools.chain((first,), f), dtype=fmt.dtype, delimiter=",",
                                 comments=None, quotechar=None, max_rows=BLOCK_ROWS, ndmin=1)
                      for first in iter(f.readline, ""))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    return take_blocks(_views(fmt, ((None, block) for block in blocks)), rows)
                except (ValueError, Warning):
                    pass
        f.seek(0)
        return take_blocks(checked_csv_rows(f, fmt), rows)
