"""Text-format plumbing: CSV event logs, TSV series, JSON configs,
manifests and reports. Every text file the package reads or writes is
opened here; each format has one reader and one writer.

TSV and JSON emission is canonical (fixed column order, sorted keys,
shortest-round-trip floats), so byte-identical inputs and seeds produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re

import numpy as np

from .errors import DataError, MalformedRowError
from .events import LogColumns, parse_timestamp

ADOPTIONS_HEADER = ["user_id", "tag_id", "timestamp"]
FOLLOWS_HEADER = ["src_id", "dst_id"]
FOLLOWS_HEADER_TIMED = ["src_id", "dst_id", "since"]

_DURATION_RE = re.compile(r"^\s*(\d+)\s*(ms|s|m|h|d)?\s*$", re.ASCII)  # digits 0-9 only
_DURATION_MS = {"ms": 1, "s": 1000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}


def _open_input(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def parse_duration_ms(text) -> int:
    """Duration like '500ms', '10s', '5m', '2h', '1d', or bare integer ms in
    ASCII digits, positive and below 2^63 ms."""
    m = _DURATION_RE.match(str(text))
    if not m:
        raise DataError(f"unparsable duration: {text!r}")
    value = int(m.group(1)) * _DURATION_MS[m.group(2) or "ms"]
    if value < 1:
        raise DataError("duration must be positive")
    if value >= 2**63:
        raise DataError(f"duration {text!r} is not below 2^63 ms")
    return value


def _read_log(path, headers, time_unit, on_bad):
    """(LogColumns, dropped) of a CSV log whose header is one of `headers`.
    The header sets the row width. A third field is a timestamp, parsed here
    once; under the follows `since` header it may be empty, which gives None.
    A bad row adds to no column. An error names the physical line a bad row
    ends on, counting line breaks inside quoted fields."""
    first: list = []
    second: list = []
    times: list = []
    dropped = 0
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in headers:
            expected = " or ".join(map(str, headers))
            raise MalformedRowError(1, f"expected header {expected}, got {header}")
        width = len(header)
        may_be_empty = header == FOLLOWS_HEADER_TIMED
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                if width == 3:
                    cell = row[2]
                    times.append(None if may_be_empty and cell == ""
                                 else parse_timestamp(cell, time_unit))
            except ValueError as exc:
                if on_bad == "drop":
                    dropped += 1
                    continue
                raise MalformedRowError(reader.line_num, str(exc)) from None
            first.append(row[0])
            second.append(row[1])
    return LogColumns(first, second, times if width == 3 else None), dropped


def read_adoptions(path, *, time_unit: str = "ms", on_bad: str = "raise"):
    """Parse an adoptions CSV into (rows, dropped_count).

    `rows` is a LogColumns of users, tags and times in ms; iterating it
    yields (user, tag, time_ms). With on_bad='drop', malformed rows are
    counted instead of raising.
    """
    return _read_log(path, (ADOPTIONS_HEADER,), time_unit, on_bad)


def read_follows(path, *, time_unit: str = "ms", on_bad: str = "raise"):
    """Parse a follows CSV into (rows, dropped_count).

    `rows` is a LogColumns of sources, destinations and, for a file with a
    `since` column, since times in ms or None; iterating it yields (src, dst)
    or (src, dst, since_ms or None).
    """
    return _read_log(path, (FOLLOWS_HEADER, FOLLOWS_HEADER_TIMED), time_unit, on_bad)


def _write_log(path, header, rows: list) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def write_adoptions_csv(path, rows) -> int:
    """Write (user, tag, time_ms) rows in the ingestion format; returns the
    row count."""
    return _write_log(path, ADOPTIONS_HEADER, list(rows))


def write_follows_csv(path, rows) -> int:
    """Write (src, dst[, since]) rows in the ingestion format; returns the
    row count. If any row has a `since`, every row gets the column, empty
    where it is missing or None."""
    rows = list(rows)
    timed = 3 in map(len, rows)
    if timed:
        # csv.writer writes None as an empty field
        rows = [r if len(r) == 3 else (r[0], r[1], None) for r in rows]
    return _write_log(path, FOLLOWS_HEADER_TIMED if timed else FOLLOWS_HEADER, rows)


_TSV_BLOCK = 4096  # rows rendered per write: write_tsv's memory stays bounded


def _cells(block) -> list:
    """The TSV cells of one block of a column: None is an empty cell, a float
    its shortest round-trip repr, anything else str()."""
    if isinstance(block, np.ndarray) and block.dtype.kind in "biuf":
        return list(map(repr if block.dtype.kind == "f" else str, block.tolist()))
    return ["" if v is None else repr(v) if isinstance(v, float) else str(v) for v in block]


def write_tsv(path, header: list[str], columns) -> int:
    """Write equal-length columns (numpy arrays or lists) under `header` as
    canonical TSV; returns the row count."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for start in range(0, n, _TSV_BLOCK):
            cells = [_cells(column[start:start + _TSV_BLOCK]) for column in columns]
            fh.write("\n".join(map("\t".join, zip(*cells))) + "\n")
    return n


def _sanitize(obj):
    """Replace NaN/inf (invalid in strict JSON) with None, recursively."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} is out of range for a float")
    return value


def read_json_object(path, invalid) -> dict:
    """The JSON object in `path`. A file that cannot be read raises
    DataError; text that is not JSON, JSON that is not an object, or a
    number no float holds (NaN, Infinity, 1e309) raises `invalid`."""
    with _open_input(path) as fh:
        try:
            obj = json.load(fh, parse_constant=_refuse_constant, parse_float=_finite_float)
        except ValueError as exc:
            raise invalid(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise invalid(f"{path} must be a JSON object, got {type(obj).__name__}")
    return obj


def dump_json(obj, path=None) -> str:
    text = json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def file_digest(path) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return h.hexdigest()
