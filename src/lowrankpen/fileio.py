"""CSV readers and writers for dense matrices and entry triplets, and the
JSON writer of the result documents.

Dense files carry one matrix row per line, comma separated, no header.
Triplet files carry lines ``j,k,value`` with 0-based integer indices and an
optional ``j,k,value`` header.  Blank lines are skipped, and every value
must be finite.  :func:`read_triplets` parses a plain file in one vectorised
pass and any other file with the row parser; the file contract, the values
read and every error message and line number are the row parser's.  Floats
are written with ``repr`` so files round-trip exactly and repeated runs are
byte identical.  JSON documents are written indented by two, with sorted
keys and a final newline.
"""

from __future__ import annotations

import csv
import json

import numpy as np


class InputFormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _fmt(x: float) -> str:
    return repr(float(x))


def _records(path):
    """(1-based line number, fields) of every nonblank CSV row of ``path``."""
    with open(path, newline="") as fh:
        for lineno, record in enumerate(csv.reader(fh), start=1):
            if record and (len(record) > 1 or record[0].strip()):
                yield lineno, record


def write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_dense_matrix(path, a: np.ndarray) -> None:
    """One line per row, each value its ``repr``.  Rows are converted to
    Python floats one at a time: converting the whole matrix at once would
    hold a Python float per entry (about 1.3 MB more at 200 x 200)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    with open(path, "w", newline="") as fh:
        for row in a:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def _finite(values: np.ndarray, lines) -> np.ndarray:
    """``values``, after rejecting its first row that holds a NaN or an
    infinity by its line number in ``lines``."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise InputFormatError("values must be finite", int(lines[bad[0]]))
    return values


def read_dense_matrix(path) -> np.ndarray:
    rows: list[list[float]] = []
    lines: list[int] = []
    width = None
    for lineno, record in _records(path):
        try:
            values = [float(field) for field in record]
        except ValueError as exc:
            raise InputFormatError(f"not a numeric row ({exc})", lineno) from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise InputFormatError(f"expected {width} columns, found {len(values)}", lineno)
        rows.append(values)
        lines.append(lineno)
    if not rows:
        raise InputFormatError("file contains no data rows")
    return _finite(np.asarray(rows, dtype=float), lines)


def _is_header(record: list[str]) -> bool:
    return [field.strip().lower() for field in record] == ["j", "k", "value"]


def _triplet(record: list[str], lineno: int) -> tuple[float, float, float]:
    """(j, k, value) of one ``j,k,value`` row as floats (the indices must be
    integers), or an error naming ``lineno``."""
    if len(record) != 3:
        raise InputFormatError(f"expected 3 fields (j,k,value), found {len(record)}", lineno)
    try:
        return float(int(record[0])), float(int(record[1])), float(record[2])
    except (ValueError, OverflowError) as exc:
        raise InputFormatError(f"bad triplet ({exc})", lineno) from None


_TRIPLET_DTYPE = np.dtype([("j", np.int64), ("k", np.int64), ("value", np.float64)])
# bytes of a plain file: printable ASCII except the quote, plus tab and line
# feed (np.loadtxt strips \x1c-\x1f as blanks, int and float reject them)
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"


def _read_plain_triplets(path):
    """(triplets, line numbers) of a plain ``j,k,value`` file by one
    ``np.loadtxt`` pass, or None unless the row parser would read the same.

    Plain means made of _PLAIN_BYTES, with no blank line, and every row
    parsed: then each line is one CSV record, ``np.loadtxt`` accepts a
    subset of what ``int`` and ``float`` accept and converts it to the same
    numbers, and the row count confirms that it skipped no line.
    A negative index or a non-finite value is left to the row parser, which
    names its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data or data.translate(None, _PLAIN_BYTES) or data.startswith(b"\n") or b"\n\n" in data:
        return None
    lines = data.count(b"\n") + (not data.endswith(b"\n"))
    first = data[: data.find(b"\n")] if b"\n" in data else data
    skip = int(_is_header(first.decode().split(",")))
    # np.loadtxt reads a path in C but an open file line by line in Python
    del data
    if lines == skip:
        return None
    try:
        rows = np.loadtxt(
            path, dtype=_TRIPLET_DTYPE, delimiter=",", comments=None, skiprows=skip, ndmin=1
        )
    except ValueError:
        return None
    if (
        rows.size != lines - skip
        or (rows["j"] < 0).any()
        or (rows["k"] < 0).any()
        or not np.isfinite(rows["value"]).all()
    ):
        return None
    out = np.empty((rows.size, 3))
    for col, name in enumerate(_TRIPLET_DTYPE.names):
        out[:, col] = rows[name]
    return out, np.arange(1 + skip, 1 + lines, dtype=np.int64)


def read_triplets(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse ``j,k,value`` rows; returns (triplets, 1-based line numbers).

    A plain file takes one vectorised pass (:func:`_read_plain_triplets`);
    any other, or one that pass declines, is parsed row by row."""
    plain = _read_plain_triplets(path)
    if plain is not None:
        return plain
    rows: list[tuple[int, int, float]] = []
    lines: list[int] = []
    for lineno, record in _records(path):
        if lineno == 1 and _is_header(record):
            continue
        j, k, value = _triplet(record, lineno)
        if j < 0 or k < 0:
            raise InputFormatError("indices must be nonnegative", lineno)
        rows.append((j, k, value))
        lines.append(lineno)
    if not rows:
        raise InputFormatError("file contains no data rows")
    out = _finite(np.array(rows, dtype=float), lines)
    return out, np.array(lines, dtype=np.int64)


def write_triplets(path, triplets: np.ndarray) -> None:
    triplets = np.asarray(triplets, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("j,k,value\n")
        for j, k, value in triplets:
            fh.write(f"{int(j)},{int(k)},{_fmt(value)}\n")


def detect_format(path) -> str:
    """Return ``"triplets"`` when the first data row parses as (int, int, float),
    otherwise ``"dense"``."""
    for lineno, record in _records(path):
        if lineno == 1 and _is_header(record):
            return "triplets"
        try:
            _triplet(record, lineno)
        except InputFormatError:
            return "dense"
        return "triplets"
    raise InputFormatError("file contains no data rows")
