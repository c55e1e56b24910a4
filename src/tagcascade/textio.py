"""Text-format plumbing: CSV event logs, TSV series, JSON reports.

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

from .errors import DataError, MalformedRowError
from .events import parse_timestamp

ADOPTIONS_HEADER = ["user_id", "tag_id", "timestamp"]
FOLLOWS_HEADER = ["src_id", "dst_id"]
FOLLOWS_HEADER_TIMED = ["src_id", "dst_id", "since"]

_DURATION_RE = re.compile(r"^\s*(\d+)\s*(ms|s|m|h|d)?\s*$")
_DURATION_MS = {"ms": 1, "s": 1000, "m": 60_000, "h": 3_600_000, "d": 86_400_000}


def _open_input(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def parse_duration_ms(text) -> int:
    """Duration like '500ms', '10s', '5m', '2h', '1d', or bare integer ms."""
    if isinstance(text, int):
        value = text
    else:
        m = _DURATION_RE.match(str(text))
        if not m:
            raise DataError(f"unparsable duration: {text!r}")
        value = int(m.group(1)) * _DURATION_MS[m.group(2) or "ms"]
    if value < 1:
        raise DataError("duration must be positive")
    return value


def read_adoptions(path, *, time_unit: str = "ms", on_bad: str = "raise"):
    """Parse an adoptions CSV into (rows, dropped_count).

    Rows come back as (user, tag, time_ms). With on_bad='drop', malformed
    rows are counted instead of raising.
    """
    rows = []
    dropped = 0
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ADOPTIONS_HEADER:
            raise MalformedRowError(1, f"expected header {ADOPTIONS_HEADER}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                if on_bad == "drop":
                    dropped += 1
                    continue
                raise MalformedRowError(lineno, f"expected 3 fields, got {len(row)}")
            try:
                t = parse_timestamp(row[2], unit=time_unit)
            except ValueError as exc:
                if on_bad == "drop":
                    dropped += 1
                    continue
                raise MalformedRowError(lineno, str(exc)) from None
            rows.append((row[0], row[1], t))
    return rows, dropped


def read_follows(path, *, time_unit: str = "ms", on_bad: str = "raise"):
    """Parse a follows CSV into (rows, dropped_count).

    Rows come back as (src, dst) or (src, dst, since_ms or None).
    """
    rows = []
    dropped = 0
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (FOLLOWS_HEADER, FOLLOWS_HEADER_TIMED):
            raise MalformedRowError(
                1, f"expected header {FOLLOWS_HEADER} or {FOLLOWS_HEADER_TIMED}, got {header}"
            )
        timed = header == FOLLOWS_HEADER_TIMED
        want = 3 if timed else 2
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != want:
                if on_bad == "drop":
                    dropped += 1
                    continue
                raise MalformedRowError(lineno, f"expected {want} fields, got {len(row)}")
            if timed:
                since = None
                if row[2] != "":
                    try:
                        since = parse_timestamp(row[2], unit=time_unit)
                    except ValueError as exc:
                        if on_bad == "drop":
                            dropped += 1
                            continue
                        raise MalformedRowError(lineno, str(exc)) from None
                rows.append((row[0], row[1], since))
            else:
                rows.append((row[0], row[1]))
    return rows, dropped


def write_adoptions_csv(path, rows) -> int:
    """Write (user, tag, time_ms) rows in the ingestion format; returns the
    row count."""
    rows = list(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ADOPTIONS_HEADER)
        writer.writerows(rows)
    return len(rows)


def write_follows_csv(path, rows) -> int:
    """Write (src, dst[, since]) rows in the ingestion format; returns the
    row count. If any row has a `since`, every row gets the column, empty
    where it is missing or None."""
    rows = list(rows)
    timed = 3 in map(len, rows)
    if timed:
        # csv.writer writes None as an empty field
        rows = [r if len(r) == 3 else (r[0], r[1], None) for r in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(FOLLOWS_HEADER_TIMED if timed else FOLLOWS_HEADER)
        writer.writerows(rows)
    return len(rows)


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_tsv(path, columns: list[str], rows) -> int:
    """Write rows of cells as canonical TSV; returns the row count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(format_cell(v) for v in row) + "\n")
            n += 1
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
