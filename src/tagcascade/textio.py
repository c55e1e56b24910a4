"""Text-format plumbing: CSV event logs, TSV series, JSON configs,
manifests and reports. Every text file the package reads or writes is
opened here; each format has one reader and one writer.

TSV and JSON emission is canonical (fixed column order, sorted keys,
shortest-round-trip floats), so byte-identical inputs and seeds produce
byte-identical outputs. The TSV and CSV writers share one renderer: each
block of rows is one uint8 matrix of cell bytes and a mask of the bytes
written (`_column_cells`, `_block_bytes`); they differ only in separator,
line end and CSV quoting.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import re
from functools import cache

import numpy as np

from .errors import DataError, MalformedRowError
from .events import (
    _MS_PER_UNIT,
    SINCE_ALWAYS,
    Labels,
    LogColumns,
    _column_list,
    _encoded,
    _is_words,
    _padded,
    parse_timestamp,
)

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


_READ_BYTES = 1 << 20  # bytes per read of a CSV log: a block's temporaries stay bounded
_MAX_DIGITS = 18  # a time cell of at most this many digits is below 2^63 ms as it is


def _blocks(fh, sha):
    """The bytes of `fh` in blocks of whole lines, each read of _READ_BYTES
    added to `sha` as it is read. A block ends after the last line feed of a
    read, or, in a read without one, after the last carriage return that
    another byte follows, so no block splits a CRLF; the rest of the read
    opens the next block. The last block may end without a line break."""
    parts: list = []
    while chunk := fh.read(_READ_BYTES):
        sha.update(chunk)
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, -1) + 1
        if cut:
            parts.append(memoryview(chunk)[:cut])
            yield b"".join(parts)
            parts = [chunk[cut:]]
        else:
            parts.append(chunk)
    tail = b"".join(parts)
    if tail:
        yield tail


def _clean_header(block: bytes):
    """The header in the first line of `block` when that line is plain
    UTF-8 text ended by a line feed, with no quote, NUL or other carriage
    return; else None."""
    end = block.find(b"\n")
    if end < 0:
        return None
    head = block[:end].removesuffix(b"\r")
    if b'"' in head or b"\r" in head or b"\0" in head:
        return None
    try:
        return head.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None


# A block is parsed from a zero-padded copy of its bytes: _PAD zero bytes
# before it, room for the three 8-byte words that end with an 18-digit time
# cell, and 8 after it, room for the word of its last byte.
_PAD = 24
_HEAD_BYTES = np.array([2**64 - 2**(64 - 8 * k) for k in range(9)], dtype=np.uint64)
_TAIL_BYTES = np.array([2**(8 * k) - 1 for k in range(9)], dtype=np.uint64)
_ZEROS = 0x3030303030303030  # b"00000000" as a word
_HIGH_NIBBLES = 0xF0F0F0F0F0F0F0F0


def _label_words(words, starts, stops):
    """The label words (see events.LogColumns) of the cells from `starts` to
    `stops` of a padded block, whose `words[i]` is the big-endian word of its
    bytes from i - _PAD on; None if a cell is longer than 8 bytes."""
    sizes = stops - starts
    if sizes.max() > 8:
        return None
    return words[starts + _PAD].astype(np.uint64) & _HEAD_BYTES[sizes]


def _time_values(words, stops, sizes):
    """The int64 values of the time cells of at most 18 bytes that end at
    `stops` of a padded block (as for _label_words), an empty one 0; None if
    a byte of one is not an ASCII digit. Each 8-byte word of a cell, read
    from its end, has the bytes before the cell set to b"0", is checked to
    hold only b"0"-b"9", and is summed pairwise to its 8-digit value."""
    values = np.zeros(len(stops), dtype=np.int64)
    for k in range(-(-int(sizes.max()) // 8)):
        kept = _TAIL_BYTES[np.clip(sizes - 8 * k, 0, 8)]
        word = words[stops + (_PAD - 8 * k - 8)].astype(np.uint64) & kept | _ZEROS & ~kept
        # a byte is a digit when its high nibble is 3 and adding 6 keeps it so
        if ((word & _HIGH_NIBBLES != _ZEROS).any()
                or ((word + 0x0606060606060606) & _HIGH_NIBBLES != _ZEROS).any()):
            return None
        word -= _ZEROS
        word = (word & 0x00FF00FF00FF00FF) + (word >> 8 & 0x00FF00FF00FF00FF) * 10
        word = (word & 0x0000FFFF0000FFFF) + (word >> 16 & 0x0000FFFF0000FFFF) * 100
        word = (word & 0xFFFFFFFF) + (word >> 32) * 10000
        values += word.astype(np.int64) * 10**(8 * k)
    return values


def _clean_rows(block: bytes, width: int, may_be_empty: bool, scale: int, limit: int):
    """(first, second, times, line count) of a block of whole lines that is
    clean, else None; `times` is None for two-field rows. A clean block is
    UTF-8 with no quote, no NUL and no carriage return outside a CRLF; each
    of its lines has exactly width - 1 commas (so none is empty) and at most
    `limit` bytes; and each time cell is 1 to 18 ASCII digits (or empty,
    under the `since` header) whose milliseconds stay below 2^63. csv.reader
    reads such a block as these rows, and parse_timestamp reads its times as
    int() does.

    No cell becomes a str unless its column has a label longer than 8
    bytes: a label column is label words read off the block's bytes (see
    events.LogColumns), or else the list of its cells; times are an int64
    array parsed from their digits, SINCE_ALWAYS for an empty `since`."""
    if b'"' in block or b"\0" in block:
        return None
    if b"\r" in block:
        if block.count(b"\r") != block.count(b"\r\n"):
            return None
        block = block.replace(b"\r\n", b"\n")
    if not block.endswith(b"\n"):
        block += b"\n"
    if not block.isascii():
        try:
            block.decode("utf-8")
        except UnicodeDecodeError:
            return None
    padded = np.zeros(_PAD + len(block) + 8, dtype=np.uint8)
    data = padded[_PAD:-8]
    data[:] = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    commas = np.flatnonzero(data == ord(","))
    n, seps = len(ends), width - 1
    last = commas[seps - 1::seps]  # each line's last comma, once each line has `seps`
    if (len(commas) != seps * n or (last > ends).any() or (commas[seps::seps] < ends[:-1]).any()
            or np.diff(ends, prepend=-1).max() > limit + 1):
        return None
    words = np.ndarray((len(padded) - 7,), ">u8", padded, 0, (1,))
    times = None
    if width == 3:
        sizes = ends - last - 1
        if sizes.max() > _MAX_DIGITS or not may_be_empty and sizes.min() == 0:
            return None
        times = _time_values(words, ends, sizes)
        if times is None:
            return None
        if scale != 1:
            if times.max() > (2**63 - 1) // scale:
                return None
            times *= scale
        if may_be_empty:
            times[sizes == 0] = SINCE_ALWAYS
    firsts = commas[::seps]  # each line's first comma
    labels = [_label_words(words, np.concatenate(([0], ends[:-1] + 1)), firsts),
              _label_words(words, firsts + 1, last if width == 3 else ends)]
    if any(column is None for column in labels):
        cells = block.decode("utf-8").replace("\n", ",").split(",")
        labels = [cells[i:-1:width] if column is None else column
                  for i, column in enumerate(labels)]
    return labels[0], labels[1], times, n


def _joined(parts: list):
    """One column of a log from the parts of it its blocks gave: one array
    when every part is an array, else one list (see events.LogColumns)."""
    if len(parts) == 1:
        return parts[0]
    if parts and all(isinstance(part, np.ndarray) for part in parts):
        return np.concatenate(parts)
    return list(itertools.chain.from_iterable(map(_column_list, parts)))


def _texts(blocks):
    """csv.reader's input for `blocks`, one text stream per block, split
    into lines as a file opened with newline="" is. Each block is decoded
    once. At a byte that is not UTF-8 the lines before its line are given,
    and then its UnicodeDecodeError is raised."""
    for block in blocks:
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = block[:exc.start]
            head = head[:max(head.rfind(b"\n"), head.rfind(b"\r")) + 1]
            yield io.StringIO(head.decode("utf-8"), newline="")
            raise
        yield io.StringIO(text, newline="")


def _read_rows(columns, blocks, line: int, headers, header, time_unit, on_bad):
    """Parse `blocks` with csv.reader into `columns` (first, second, times);
    returns (header, dropped). `line` is the number of lines before the
    first block, and `header` the header those lines held, or None when the
    blocks open with it. A byte that is not UTF-8 is named on the line
    after the last one csv.reader took, which holds it."""
    reader = csv.reader(itertools.chain.from_iterable(_texts(blocks)))
    first, second, times = columns
    dropped = 0
    try:
        if header is None:
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
                raise MalformedRowError(line + reader.line_num, str(exc)) from None
            first.append(row[0])
            second.append(row[1])
    except csv.Error as exc:
        raise MalformedRowError(line + reader.line_num, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise MalformedRowError(line + reader.line_num + 1,
                                f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 text "
                                f"({exc.reason})") from None
    return header, dropped


def _read_log(path, headers, time_unit, on_bad):
    """(LogColumns, dropped) of a CSV log whose header is one of `headers`.
    The header sets the row width. A third field is a timestamp, parsed here
    once; under the follows `since` header it may be empty, which gives None.
    A bad row adds to no column. An error names the physical line a bad row
    ends on, counting line breaks inside quoted fields. A byte that is not
    UTF-8, or a field longer than csv.field_size_limit(), fails the read on
    its line whatever `on_bad` says.

    The file is read once, in blocks of whole lines, and every byte read
    goes to one SHA-256, whose digest the LogColumns carries. Blocks that
    are clean (see _clean_rows) are parsed whole from their bytes. From the
    first block that is not, csv.reader parses the rest of the file row by
    row, so that block and every later one give the row loop's own results.
    A column whose every part is an array stays one; else it is a list."""
    sha = hashlib.sha256()
    parts = ([], [], [])  # per column, the part each clean block gave
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        blocks = _blocks(fh, sha)
        block = next(blocks, b"")
        header = _clean_header(block)
        if header in headers:
            width, may_be_empty = len(header), header == FOLLOWS_HEADER_TIMED
            scale, limit = _MS_PER_UNIT[time_unit], csv.field_size_limit()
            line, block = 1, block[block.index(b"\n") + 1:]
            for block in itertools.chain([block], blocks):
                rows = _clean_rows(block, width, may_be_empty, scale, limit)
                if rows is None:
                    break
                for part, cells in zip(parts, rows):
                    part.append(cells)
                line += rows[3]
            else:
                block = b""
        else:
            line, header = 0, None
        rest = ([], [], [])
        header, dropped = _read_rows(rest, itertools.chain([block], blocks), line, headers,
                                     header, time_unit, on_bad)
    for part, cells in zip(parts, rest):
        if cells:
            part.append(cells)
    first, second, times = parts
    return LogColumns(_joined(first), _joined(second), _joined(times) if len(header) == 3 else None,
                      sha256=sha.hexdigest()), dropped


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


_BLOCK = 4096  # rows rendered per write: the text writers' memory stays bounded


class LabelColumn:
    """A column of labels given as handles into a Labels table, such as a
    Dataset's `user_table`: the table's cells are made once, however many
    columns and files render it."""

    __slots__ = ("table", "handles")

    def __init__(self, table: Labels, handles):
        self.table = table
        self.handles = np.asarray(handles)

    def __len__(self) -> int:
        return len(self.handles)


_DIGITS4 = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(
    np.uint32).ravel()  # the four ASCII digits of 0..9999 as one word each
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_BREAKS = np.frombuffer(b"\t\r\n", dtype=np.uint8)


def _int_cells(values: np.ndarray, empty=None) -> tuple:
    """(cells, valid) of an integer array: each value in decimal, as str()
    writes it, right-aligned; a value equal to `empty` is an empty cell.
    Digits come four at a time from the magnitude as uint64, so int64 min
    and uint64 max are exact."""
    mag = values.astype(np.uint64)  # a negative value wraps to 2^64 + value
    neg = values < 0
    if empty is not None:
        blank = values == empty
        mag[blank] = 0
        neg &= ~blank
    signed = neg.any()
    if signed:
        np.negative(mag, out=mag, where=neg)
    digits = len(str(int(mag.max(initial=0))))
    sizes = np.searchsorted(_POW10[:digits - 1], mag, "right") + 1
    if signed:
        sizes += neg
    if empty is not None:
        sizes[blank] = 0
    width = int(sizes.max(initial=0))
    groups = -(-width // 4) or 1
    quads = np.empty((len(mag), groups), dtype=np.intp)
    for g in range(groups - 1, 0, -1):
        high = mag // 10_000  # floor_divide by a scalar is far faster than divmod
        quads[:, g] = mag - high * 10_000
        mag = high
    quads[:, 0] = mag  # below 10^4: `groups` quads hold every digit
    cells = np.take(_DIGITS4, quads).view(np.uint8)[:, 4 * groups - width:]
    if signed:
        rows = np.flatnonzero(neg & (sizes > 0))
        cells[rows, width - sizes[rows]] = ord("-")
    return cells, None if sizes.min() == width else np.take(_right_aligned(width), sizes, axis=0)


@cache
def _right_aligned(width: int) -> np.ndarray:
    """Row s: the valid bytes of a cell of s bytes right-aligned in `width`."""
    return np.arange(width) >= width - np.arange(width + 1)[:, None]


def _text(value) -> str:
    """A cell's text: None is empty, a float its shortest round-trip repr,
    anything else str()."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _needs_quotes(text: str) -> bool:
    """Whether csv.writer's QUOTE_MINIMAL quotes a cell holding `text`: a
    separator, a quote or a line break."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _quoted(texts: list) -> list:
    """Cell texts as csv.writer writes them: a text holding a separator, a
    quote or a line break quoted, its quotes doubled."""
    if not _needs_quotes("".join(texts)):
        return texts
    return ['"' + t.replace('"', '""') + '"' if _needs_quotes(t) else t for t in texts]


def _column_cells(column, quote: bool, words: bool = False, empty=None):
    """A function of (start, stop) that gives the (cells, valid) of those
    rows of a column. Integer arrays are written by _int_cells, a value
    equal to `empty` as an empty cell. A LabelColumn gathers its table's
    cells. Label words (when `words`, for CSV) are their own bytes unless
    one needs quotes, when they are taken as their labels. A float array of
    up to 64 bits is rendered once per distinct bit pattern (so -0.0 stays
    apart from 0.0), by repr, then gathered. Any other sequence is rendered
    cell by cell, by _text; Python ints that fit int64 as an int64 array.
    With `quote`, texts are quoted as csv.writer quotes them; without it
    (TSV), a text cell that holds a tab, CR or LF raises DataError naming
    the first one."""
    if words:
        raw = column.astype(">u8").view(np.uint8).reshape(-1, 8)
        data = raw.tobytes()
        if not any(char in data for char in (b",", b'"', b"\r", b"\n")):
            return lambda start, stop: (raw[start:stop], _unless_all(raw[start:stop] != 0))
        column = _column_list(column)  # labels that need quotes
    name = None  # of the texts to check for breaks: a float's repr holds none
    if isinstance(column, LabelColumn):
        table, codes = column.table, column.handles
        (cells, valid), texts, name = table.cells, table.labels, f"{table.kind} label"
    elif isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return lambda start, stop: _int_cells(column[start:stop], empty)
    elif isinstance(column, np.ndarray) and column.dtype.kind == "f" and column.itemsize <= 8:
        bits, codes = np.unique(np.asarray(column, dtype=np.float64).view(np.uint64),
                                return_inverse=True)
        reprs = list(map(float.__repr__, bits.view(np.float64).tolist()))
        cells, valid = _padded(*_encoded(reprs))
    else:
        values = (column.tolist() if isinstance(column, np.ndarray) and column.dtype.kind == "b"
                  else list(column))
        kinds = set(map(type, values))
        if kinds == {int}:  # Python ints that fit int64 are written as an int64 array
            try:
                return _column_cells(np.array(values, dtype=np.int64), quote)
            except OverflowError:
                pass
        texts, name = values if kinds <= {str} else list(map(_text, values)), "text"
        cells, valid = _padded(*_encoded(_quoted(texts) if quote else texts))
        codes = np.arange(len(values))
    if name is not None and not quote:
        broken = np.flatnonzero(np.isin(cells, _BREAKS).any(axis=1)[codes])
        if len(broken):
            raise DataError(f"{name} {texts[codes[broken[0]]]!r} holds a tab or a line break, "
                            f"which a TSV cell cannot hold")
    if valid.all():  # cells of one length
        return lambda start, stop: (cells.take(codes[start:stop], axis=0), None)
    return lambda start, stop: (cells.take(codes[start:stop], axis=0),
                                valid.take(codes[start:stop], axis=0))


def _unless_all(valid: np.ndarray):
    """`valid`, or None when all of it is True."""
    return None if valid.all() else valid


def _block_bytes(parts: list, sep: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The bytes of rows whose cells are `parts`, (cells, valid) per column
    (valid None when every byte is): one uint8 matrix of the rows' cells,
    separators and line ends, and a mask of the bytes written, whose masked
    bytes are the text in order; with no mask, the whole matrix."""
    width = sum(cells.shape[1] for cells, _ in parts) + len(sep) * (len(parts) - 1) + len(end)
    text = np.empty((len(parts[0][0]), width), dtype=np.uint8)
    masked = any(valid is not None for _, valid in parts)
    mask = np.ones(text.shape, dtype=bool) if masked else None
    at = 0
    for i, (cells, valid) in enumerate(parts):
        text[:, at:at + cells.shape[1]] = cells
        if valid is not None:
            mask[:, at:at + cells.shape[1]] = valid
        at += cells.shape[1]
        tail = end if i == len(parts) - 1 else sep
        text[:, at:at + len(tail)] = tail
        at += len(tail)
    if not masked:
        return text.ravel()
    return np.compress(mask.ravel(), text.ravel())  # faster than text[mask]


def _write_rows(path, header: list[str], n: int, columns: list, sep: str, end: str) -> int:
    """Write `header` and the n rows of `columns`, each a function of
    (start, stop) as _column_cells makes them, with `sep` between cells and
    `end` after each line; returns n. Rows are rendered _BLOCK at a time."""
    sep_bytes, end_bytes = (np.frombuffer(text.encode(), dtype=np.uint8) for text in (sep, end))
    with open(path, "wb") as fh:
        fh.write((sep.join(header) + end).encode("utf-8"))
        for start in range(0, n, _BLOCK):
            parts = [column(start, start + _BLOCK) for column in columns]
            fh.write(_block_bytes(parts, sep_bytes, end_bytes))
    return n


def _log_columns(rows) -> LogColumns:
    """Rows, or their LogColumns, as LogColumns: a third column when any row
    has a third field, holding None where a row has none."""
    if isinstance(rows, LogColumns):
        return rows
    rows = list(rows)
    third = [r[2] if len(r) == 3 else None for r in rows] if 3 in map(len, rows) else None
    return LogColumns([r[0] for r in rows], [r[1] for r in rows], third)


def _write_log(path, header, log: LogColumns) -> int:
    """Write a log's columns under `header` in csv.writer's dialect (comma
    separated, CRLF line ends, minimal quoting); returns the row count.
    Label words are written from their bytes, and an int64 time column's
    SINCE_ALWAYS as an empty cell."""
    columns = [_column_cells(labels, True, words=_is_words(labels)) for labels in log.columns[:2]]
    if log.columns[2] is not None:
        columns.append(_column_cells(log.columns[2], True, empty=SINCE_ALWAYS))
    return _write_rows(path, header, len(log), columns, ",", "\r\n")


def write_adoptions_csv(path, rows) -> int:
    """Write (user, tag, time_ms) rows, or their LogColumns, in the
    ingestion format; returns the row count."""
    return _write_log(path, ADOPTIONS_HEADER, _log_columns(rows))


def write_follows_csv(path, rows) -> int:
    """Write (src, dst[, since]) rows, or their LogColumns, in the ingestion
    format; returns the row count. If any row has a `since`, every row gets
    the column, empty where it is missing or None."""
    log = _log_columns(rows)
    timed = log.columns[2] is not None
    return _write_log(path, FOLLOWS_HEADER_TIMED if timed else FOLLOWS_HEADER, log)


def write_tsv(path, header: list[str], columns) -> int:
    """Write equal-length columns under `header` as canonical TSV; returns
    the row count. A column is a numpy array, a sequence (list, tuple,
    range) or a LabelColumn. Cells are written as _text writes them: an
    integer as str(), a float as its shortest round-trip repr, None as an
    empty cell. A text or label cell that holds a tab, CR or LF, which no
    TSV cell can hold, raises DataError before the file is opened, naming
    the first such cell of the first column that has one."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError(f"columns of unequal lengths {[len(c) for c in columns]}")
    return _write_rows(path, header, n, [_column_cells(c, False) for c in columns], "\t", "\n")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} is out of range for a float")
    return value


def _holds_inf(value) -> bool:
    """Whether a parsed JSON value holds an infinite float anywhere."""
    if isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, list):
        return isinstance(value, float) and math.isinf(value)
    if math.inf in value or -math.inf in value:
        return True
    kinds = set(map(type, value))
    return (dict in kinds or list in kinds) and any(map(_holds_inf, value))


def read_json_object(path, invalid) -> dict:
    """The JSON object in `path`. A file that cannot be read raises
    DataError; text that is not JSON, JSON that is not an object, or a
    number no float holds (NaN, Infinity, 1e309) raises `invalid`.

    Floats go through the C parser. With NaN and Infinity refused, an
    infinite float can only come from a literal past the largest float, so
    only a result holding one is parsed again, with a hook that names it."""
    with _open_input(path) as fh:
        try:
            text = fh.read()
            obj = json.loads(text, parse_constant=_refuse_constant)
            if _holds_inf(obj):
                obj = json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)
        except ValueError as exc:
            raise invalid(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise invalid(f"{path} must be a JSON object, got {type(obj).__name__}")
    return obj


def _json(obj, indent: str) -> str:
    """`obj` as json.dumps(obj, indent=2, sort_keys=True) lays it out, at
    the nesting whose line break and indentation is `indent`, with NaN and
    infinities written as null. Scalars other than floats go through
    json.dumps itself; a float is written as json writes it, by
    float.__repr__ (repr of a numpy float names its type)."""
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join(
            json.dumps(_json_key(key)) + ": " + _json(value, inner)
            for key, value in sorted(obj.items())) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        try:  # a list of floats in one join; "nan" and "inf" hold an n
            body = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:
            body = "n"
        if "n" in body:
            body = ("," + inner).join([_json(value, inner) for value in obj])
        return "[" + inner + body + indent + "]"
    return json.dumps(obj)


def _json_key(key) -> str:
    """A dict key as json writes it: a str as it is, an int, float, bool or
    None as its JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key, allow_nan=False)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dump_json(obj, path=None) -> str:
    """The canonical JSON text of `obj` (2-space indent, sorted keys, NaN
    and infinities as null), written to `path` if given."""
    text = _json(obj, "\n") + "\n"
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
