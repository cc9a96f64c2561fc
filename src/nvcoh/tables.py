"""Numeric CSV tables in; CSV and JSON result files out.

Every command reads its input tables through `read_numeric_csv` and writes
its results through `write_csv` and `write_json`, so one set of input checks
and one cell format hold for recordings, cohort tables and every output file.
"""
from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

__all__ = ["DataError", "read_numeric_csv", "write_csv", "write_json"]


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def read_numeric_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header labels and the rows-by-columns values of a numeric CSV.

    Rejects a missing, unreadable, non-UTF-8 or empty file, duplicate
    labels, ragged rows, no data rows, cells longer than the csv module's
    field limit and unparsable or non-finite cells, pointing at the
    offending row and column.  A leading UTF-8 byte-order mark is dropped,
    not read into the first label.

    `csv.reader` reads the header.  The data rows take one of two paths
    with one result.  The fast path hands chunks of about `_CHUNK_CHARS`
    characters to numpy's C parser, `np.loadtxt`, whose numbers have the
    bits `float` gives, and copies each into one array sized from the
    file's bytes per line, so the data are held once.  Any chunk it cannot
    take as it stands sends the whole file to the per-row path,
    `csv.reader` and `float` cell by cell: a cell loadtxt refuses
    (``1_000``, Unicode digits, an empty or ``#`` cell), a row count other
    than the chunk's line count (loadtxt skips blank lines), a ``"``
    (quoting), an ASCII separator ``\\x1c``-``\\x1f`` (loadtxt strips
    them as whitespace, `float` refuses them), a line longer than the field
    limit, or a non-finite value.  So the accepted files, their values and
    every message are those of the per-row path.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        labels, data = _read_rows(path, _parse_chunks)
        if data is None:
            labels, data = _read_rows(path, _parse_each_row)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise DataError(f"{path}: {exc}") from exc
    if not data.shape[0]:
        raise DataError(f"{path}: no data rows")
    return labels, data


# text handed to np.loadtxt at once: small enough that its UCS-4 copy of a
# chunk stays near 1 MiB, large enough to amortise the call
_CHUNK_CHARS = 2**18
# characters the per-row path must see: quoting, and the ASCII separators
# that loadtxt strips around a number but `float` refuses
_PER_ROW_ONLY = '"\x1c\x1d\x1e\x1f'


def _read_rows(path: Path, parse_rows):
    """Labels and ``parse_rows(fh, path, labels)`` after the header of ``path``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        labels = tuple(c.strip() for c in header)
        if len(set(labels)) != len(labels):
            dupes = sorted({c for c in labels if labels.count(c) > 1})
            raise DataError(f"{path}: duplicate column labels {dupes}")
        return labels, parse_rows(fh, path, labels)


def _parse_chunks(fh, path: Path, labels) -> np.ndarray | None:
    """The data rows parsed by `np.loadtxt`, or None where the per-row path must decide.

    Chunks are copied into one array, sized from the file's bytes and the
    characters per line read so far, plus one chunk's lines of slack, and
    grown when it falls short; rows past the last one read are never
    written, so they take no memory.
    """
    data, used, chars = np.empty((0, len(labels))), 0, 0
    try:
        while lines := fh.readlines(_CHUNK_CHARS):
            text = "".join(lines)
            # all blank (loadtxt would warn of no data), or what only the
            # per-row path reads as the csv module and `float` do
            if (text.isspace() or any(c in text for c in _PER_ROW_ONLY)
                    or max(map(len, lines)) > csv.field_size_limit()):
                return None
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if rows.shape != (len(lines), len(labels)) or not np.isfinite(rows).all():
                return None
            chars += len(text)
            if used + len(rows) > len(data):
                estimate = _file_bytes(fh) * (used + len(rows)) // chars + len(lines)
                grown = np.empty((max(used + len(rows), 2 * len(data), estimate),
                                  len(labels)))
                grown[:used] = data[:used]
                data = grown
            data[used:used + len(rows)] = rows
            used += len(rows)
    except ValueError:  # a cell loadtxt refuses, or bytes that are not UTF-8
        return None
    return data[:used]


def _file_bytes(fh) -> int:
    """The size of the file behind ``fh``; 0 for a stream that has none."""
    try:
        return os.fstat(fh.fileno()).st_size
    except (OSError, ValueError):  # io.StringIO has no file descriptor
        return 0


def _parse_each_row(fh, path: Path, labels) -> np.ndarray:
    """The data rows parsed cell by cell with `float`, naming the first bad cell."""
    rows: list[list[float]] = []
    for i, row in enumerate(csv.reader(fh), start=2):
        if len(row) != len(labels):
            raise DataError(
                f"{path}: ragged row {i} has {len(row)} cells, expected {len(labels)}")
        try:
            rows.append([float(c) for c in row])
        except ValueError:
            bad = next(j for j, c in enumerate(row) if not _is_float(c))
            raise DataError(
                f"{path}: row {i}, column {labels[bad]}: "
                f"cannot parse {row[bad]!r}") from None
    data = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"{path}: non-finite value at row {r + 2}, column {labels[c]}")
    return data


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _cell(value) -> str:
    """None and NaN become empty cells; floats keep their shortest repr."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _finite_or_null(value):
    """The payload with every non-finite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(path, payload) -> None:
    """Strict JSON: non-finite floats are written as null.

    Sorted keys and two-space indent, so equal payloads give equal bytes.
    """
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")
