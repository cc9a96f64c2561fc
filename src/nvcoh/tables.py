"""Numeric CSV tables in; CSV and JSON result files out.

Every command reads its input tables through `read_numeric_csv` and writes
its results through `write_csv` and `write_json`, so one set of input checks
and one cell format hold for recordings, cohort tables and every output file.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["DataError", "read_numeric_csv", "write_csv", "write_json"]


class DataError(ValueError):
    """Malformed or inconsistent input data."""


def read_numeric_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header labels and the rows-by-columns values of a numeric CSV.

    Rejects a missing or empty file, duplicate labels, ragged rows, no data
    rows and unparsable or non-finite cells, pointing at the offending row
    and column.  A leading UTF-8 byte-order mark is dropped, not read into
    the first label.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        labels = [c.strip() for c in header]
        if len(set(labels)) != len(labels):
            dupes = sorted({c for c in labels if labels.count(c) > 1})
            raise DataError(f"{path}: duplicate column labels {dupes}")
        n_cols = len(labels)
        rows: list[list[float]] = []
        for i, row in enumerate(reader, start=2):
            if len(row) != n_cols:
                raise DataError(
                    f"{path}: ragged row {i} has {len(row)} cells, expected {n_cols}")
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                bad = next(j for j, c in enumerate(row) if not _is_float(c))
                raise DataError(
                    f"{path}: row {i}, column {labels[bad]}: "
                    f"cannot parse {row[bad]!r}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    if not np.isfinite(data).all():
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"{path}: non-finite value at row {r + 2}, column {labels[c]}")
    return tuple(labels), data


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
