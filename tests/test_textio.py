from __future__ import annotations

import csv
import hashlib
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagcascade import textio
from tagcascade.errors import DataError, MalformedRowError, UsageError
from tagcascade.events import SINCE_ALWAYS, Labels, LogColumns, build_dataset
from tagcascade.snapshot import save_snapshot
from tagcascade.textio import (
    _BLOCK,
    ADOPTIONS_HEADER,
    FOLLOWS_HEADER,
    FOLLOWS_HEADER_TIMED,
    LabelColumn,
    dump_json,
    file_digest,
    parse_duration_ms,
    read_adoptions,
    read_follows,
    read_json_object,
    write_adoptions_csv,
    write_follows_csv,
    write_tsv,
)

from oracles import (
    build_dataset_reference,
    dump_json_reference,
    read_log_reference,
    write_tsv_reference,
    writerow_reference,
)


def test_parse_duration_units():
    assert parse_duration_ms("500ms") == 500
    assert parse_duration_ms("10s") == 10_000
    assert parse_duration_ms("5m") == 300_000
    assert parse_duration_ms("2h") == 7_200_000
    assert parse_duration_ms("1d") == 86_400_000
    assert parse_duration_ms("750") == 750
    assert parse_duration_ms(42) == 42
    assert parse_duration_ms("9223372036854775807") == 2**63 - 1
    assert parse_duration_ms(" 3 s ") == 3000


def test_parse_duration_rejects_garbage():
    for bad in ("", "fast", "-5s", "1.5h", 0, True, "9223372036854775808",
                "99999999999999999999d", "1_000", "\u0661\u0660s", "\uff11\uff10s"):
        with pytest.raises(DataError):
            parse_duration_ms(bad)


def test_file_digest_of_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read .*absent.csv"):
        file_digest(tmp_path / "absent.csv")


def test_quoted_commas_in_labels_round_trip(tmp_path):
    path = tmp_path / "a.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "tag_id", "timestamp"])
        w.writerow(["user,with,commas", "tag,too", 123])
    rows, dropped = read_adoptions(path)
    assert dropped == 0
    assert list(rows) == [("user,with,commas", "tag,too", 123)]

    out = tmp_path / "b.csv"
    write_adoptions_csv(out, rows)
    rows2, _ = read_adoptions(out)
    assert list(rows2) == list(rows)


def test_adoptions_header_enforced(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("user,tag,when\n")
    with pytest.raises(MalformedRowError, match="header"):
        read_adoptions(path)


def test_follows_since_column_optional_per_row(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("src_id,dst_id,since\na,b,100\nc,d,\n")
    rows, dropped = read_follows(path)
    assert dropped == 0
    assert list(rows) == [("a", "b", 100), ("c", "d", None)]


def test_read_on_bad_drop_counts(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("user_id,tag_id,timestamp\na,x,1\nb,y\nc,z,soon\n")
    rows, dropped = read_adoptions(path, on_bad="drop")
    assert len(rows) == 1
    assert dropped == 2
    with pytest.raises(MalformedRowError, match="line 3"):
        read_adoptions(path, on_bad="raise")
    # timestamps whose milliseconds do not fit int64 are malformed rows too
    path.write_text("user_id,tag_id,timestamp\na,x,1\nb,y,99999999999999999999\n"
                    "c,z,-9223372036854775809\nd,w,9223372036854775807\n")
    rows, dropped = read_adoptions(path, on_bad="drop")
    assert list(rows) == [("a", "x", 1), ("d", "w", 2**63 - 1)] and dropped == 2
    with pytest.raises(MalformedRowError, match="line 3"):
        read_adoptions(path, on_bad="raise")
    path.write_text("src_id,dst_id,since\na,b,1\nc,d,9223372036854776\ne,f,\n")
    rows, dropped = read_follows(path, time_unit="s", on_bad="drop")
    assert list(rows) == [("a", "b", 1000), ("e", "f", None)] and dropped == 1
    with pytest.raises(MalformedRowError, match="line 3"):
        read_follows(path, time_unit="s", on_bad="raise")


# (reader, file text, rows and dropped count under on_bad="drop", line of the
# first bad row under on_bad="raise" or None). A blank line is skipped, not
# counted, but it still takes a line number. Rows of None: the read fails on
# that line whatever on_bad says. A lone surrogate in the text is written as
# the byte it escapes, so "\udcff" is a byte 0xff, which is not UTF-8.
_A, _F, _FT = ("user_id,tag_id,timestamp\n", "src_id,dst_id\n", "src_id,dst_id,since\n")
_READER_CASES = [
    (read_follows, _F + "a,b\nc,d\n", [("a", "b"), ("c", "d")], 0, None),
    (read_follows, _FT + "a,b,5\nc,d,\n", [("a", "b", 5), ("c", "d", None)], 0, None),
    (read_adoptions, _A + "a,x,1\na,x\na,x,2,3\n", [("a", "x", 1)], 2, 3),
    (read_follows, _F + "a\na,b\na,b,1\n", [("a", "b")], 2, 2),
    (read_follows, _FT + "a,b,1\na,b\na,b,1,2\n", [("a", "b", 1)], 2, 3),
    (read_follows, _FT + "a,b,soon\nc,d,7\n", [("c", "d", 7)], 1, 2),
    (read_adoptions, _A + "a,x,\nb,y,4\n", [("b", "y", 4)], 1, 2),
    (read_follows, _FT + "a,b,\n", [("a", "b", None)], 0, None),
    (read_adoptions, _A + "\na,x,1\n\n\nb,y\n", [("a", "x", 1)], 1, 6),
    (read_follows, _FT + "\n\na,b,1\n\nc,d,x\n", [("a", "b", 1)], 1, 6),
    # a quoted line break: the bad row is on physical line 4, the third record
    (read_adoptions, _A + '"a\nb",x,1\nc,x,notatime\n', [("a\nb", "x", 1)], 1, 4),
    # integer text is ASCII digits, a sign and whitespace: no '_', no other digits
    (read_adoptions, _A + "a,x, +7 \nb,y,1_000\nc,z,\uff11\uff15\nd,w,\u0663\ne,v,-2\n",
     [("a", "x", 7), ("e", "v", -2)], 3, 3),
    (read_follows, _FT + "a,b,\u0661\u0660\nc,d,-12\n", [("c", "d", -12)], 1, 2),
    # bytes that are not UTF-8: in a plain file, after a quoted line break and
    # a lone CR, and in the header
    (read_adoptions, _A + "a,x,1\nb,y,2\nc\udcff,z,3\nd,w,4\n", None, None, 4),
    (read_follows, _F + '"a\nb",c\rd,e\r\nf,\udcff\n', None, None, 5),
    (read_adoptions, "\udcff" + _A + "a,x,1\n", None, None, 1),
]


@pytest.mark.parametrize("read_bytes", [None, 8])
@pytest.mark.parametrize("reader,text,rows,dropped,bad_line", _READER_CASES)
def test_readers_drop_and_raise_table(tmp_path, monkeypatch, reader, text, rows, dropped,
                                      bad_line, read_bytes):
    if read_bytes:  # many blocks, most of them whole lines
        monkeypatch.setattr(textio, "_READ_BYTES", read_bytes)
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    if rows is None:
        for on_bad in ("drop", "raise"):
            with pytest.raises(MalformedRowError, match=rf"^line {bad_line}: byte 0xff is not"):
                reader(path, on_bad=on_bad)
        return
    got, got_dropped = reader(path, on_bad="drop")
    assert (list(got), got_dropped) == (rows, dropped)
    if bad_line is None:
        got, got_dropped = reader(path, on_bad="raise")
        assert (list(got), got_dropped) == (rows, 0)
    else:
        with pytest.raises(MalformedRowError, match=rf"^line {bad_line}: "):
            reader(path, on_bad="raise")


# Bad rows of each kind, each with the message it raises, under
# time_unit="s": 9223372036854776 s is past int64 once made milliseconds.
_BAD_ROWS = {
    "wrong width": ("q,r", "expected 3 fields, got 2"),
    "unparsable": ("q,r,soon", "unparsable timestamp: 'soon'"),
    "leaves int64": ("q,r,9223372036854776", "outside signed 64-bit milliseconds"),
}


@pytest.mark.parametrize("reader,header", [(read_adoptions, _A), (read_follows, _FT)])
@pytest.mark.parametrize("first_bad", sorted(_BAD_ROWS))
def test_bad_rows_leave_columns_aligned(tmp_path, reader, header, first_bad):
    others = [row for kind, (row, _) in sorted(_BAD_ROWS.items()) if kind != first_bad]
    lines = ["a,x,1", "b,y,2", _BAD_ROWS[first_bad][0], "c,z,1970-01-01T00:00:03Z",
             others[0], "d,w, 4 ", others[1], "e,v,5"]
    path = tmp_path / "log.csv"
    path.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")
    rows, dropped = reader(path, time_unit="s", on_bad="drop")
    assert dropped == 3 and len(rows) == 5
    assert rows.first == ["a", "b", "c", "d", "e"]
    assert rows.second == ["x", "y", "z", "w", "v"]
    assert rows.times == [1000, 2000, 3000, 4000, 5000]
    assert list(rows) == list(zip(rows.first, rows.second, rows.times))
    # The first bad row is on physical line 4, after the header and two rows.
    with pytest.raises(MalformedRowError, match=rf"^line 4: .*{_BAD_ROWS[first_bad][1]}"):
        reader(path, time_unit="s", on_bad="raise")


def test_a_field_past_the_csv_field_limit_fails_the_read(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text(_A + "a,x,1\n" + "u" * 131_073 + ",y,2\n")
    for on_bad in ("drop", "raise"):
        with pytest.raises(MalformedRowError,
                           match=r"^line 3: field larger than field limit \(131072\)$"):
            read_adoptions(path, on_bad=on_bad)
    # Lines past the limit whose fields are within it read as csv.reader
    # reads them, up to the field that is not.
    limit = csv.field_size_limit(8)
    try:
        path.write_text(_A + "abcd,wxyz,12\nab,cd,123456789\n")
        with pytest.raises(MalformedRowError, match=r"^line 3: field larger than field limit"):
            read_adoptions(path)
        path.write_text(_A + "abcd,wxyz,12\n")
        assert list(read_adoptions(path)[0]) == [("abcd", "wxyz", 12)]
    finally:
        csv.field_size_limit(limit)


def test_follows_header_mismatch_message(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("user_id,tag_id,timestamp\na,x,1\n")
    expected = ("line 1: expected header ['src_id', 'dst_id'] or "
                "['src_id', 'dst_id', 'since'], got ['user_id', 'tag_id', 'timestamp']")
    for on_bad in ("drop", "raise"):
        with pytest.raises(MalformedRowError) as info:
            read_follows(path, on_bad=on_bad)
        assert str(info.value) == expected


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        read_adoptions(tmp_path / "absent.csv")


# Reader files for the reference comparison: lines of plain cells, with
# bad cells and dirty lines (quotes, raw separators, a lone CR, NUL, blank
# lines, wrong widths) mixed in. Time cells cover every integer-text rule:
# signs, spaces, leading zeros, full-width and non-ASCII digits, '_', 18-,
# 19- and 20-digit values, the int64 edges in milliseconds and in seconds,
# empty cells and ISO text.
_TIME_CELLS = st.integers(0, 10**18).map(str) | st.sampled_from([
    "0", "7", "007", "+7", " 7", "7 ", "-5", "\uff11\uff15", "\u0663", "1_000", "", "soon",
    "1970-01-01T00:00:03Z", "999999999999999999", "1000000000000000000",
    "9223372036854775807", "9223372036854775808", "99999999999999999999",
    "9223372036854775", "9223372036854776", "\x00",
])
_PLAIN_CELLS = st.text(st.sampled_from(["a", "b", "1", "é", "標", " "]), min_size=1, max_size=4)
_DIRTY_CELLS = st.text(st.sampled_from(["a", ",", '"', "\r", "\n", "\x00", "\ufeff", " "]),
                       max_size=4)
_HEADERS = {"adoptions": (ADOPTIONS_HEADER,), "follows": (FOLLOWS_HEADER, FOLLOWS_HEADER_TIMED)}


@st.composite
def _raw_logs(draw):
    """(reader kind, file bytes) of a generated CSV log."""
    kind = draw(st.sampled_from(sorted(_HEADERS)))
    header = draw(st.sampled_from(_HEADERS[kind]))
    width = len(header)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    head = draw(st.sampled_from([",".join(header), ",".join(header), '"' + header[0] + '",'
                                 + ",".join(header[1:]), "\ufeff" + ",".join(header),
                                 "user_id,tag_id", ""]))
    plain = st.tuples(_PLAIN_CELLS, _PLAIN_CELLS, _TIME_CELLS).map(lambda r: ",".join(r[:width]))
    dirty = st.one_of(
        st.just(""),
        st.lists(_DIRTY_CELLS, min_size=1, max_size=4).map(",".join),
        st.tuples(_PLAIN_CELLS, _PLAIN_CELLS).map(lambda r: '"' + r[0] + '",' + r[1]
                                                  + ",1" * (width - 2)),
        st.lists(_PLAIN_CELLS, min_size=1, max_size=4).map(",".join),
    )
    # Some files open with many rows of digit times, so that with a small
    # read size their bad lines come only in a later block.
    clean = st.tuples(_PLAIN_CELLS, _PLAIN_CELLS, st.integers(0, 10**18).map(str))
    lines = (draw(st.lists(clean.map(lambda r: ",".join(r[:width])), max_size=3))
             * draw(st.sampled_from([1, 1, 40]))
             + draw(st.lists(st.one_of(plain, plain, plain, dirty), max_size=12)))
    ends = draw(st.lists(st.sampled_from([eol, eol, eol, "\r", "\n", "\r\n"]),
                         min_size=len(lines) + 1, max_size=len(lines) + 1))
    text = "".join(line + end for line, end in zip([head] + lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return kind, text.encode("utf-8")


def _reader_outcome(read, path, **options):
    """(columns, dropped, digest) of a read, or the text of its
    MalformedRowError. The reference's digest is that of the file."""
    try:
        result = read(path, **options)
    except MalformedRowError as exc:
        return str(exc)
    if isinstance(result[0], LogColumns):
        rows, dropped = result
        result = rows.first, rows.second, rows.times, dropped, rows.sha256
    else:
        result += (hashlib.sha256(Path(path).read_bytes()).hexdigest(),)
    assert all(type(t) is int for t in result[2] or [] if t is not None)
    return result


_READERS = {"adoptions": read_adoptions, "follows": read_follows}


@settings(max_examples=300, deadline=None)
@given(log=_raw_logs(), block=st.sampled_from([None, 16, 64]),
       time_unit=st.sampled_from(["ms", "s"]), on_bad=st.sampled_from(["drop", "raise"]))
def test_readers_match_the_row_loop_reference(log, block, time_unit, on_bad):
    kind, data = log
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(textio, "_READ_BYTES", block or textio._READ_BYTES):
        path = Path(tmp) / "log.csv"
        path.write_bytes(data)
        got = _reader_outcome(_READERS[kind], path, time_unit=time_unit, on_bad=on_bad)
        expected = _reader_outcome(read_log_reference, path, headers=_HEADERS[kind],
                                   time_unit=time_unit, on_bad=on_bad)
    assert got == expected


@pytest.mark.parametrize("kind,header,row", [
    ("adoptions", "user_id,tag_id,timestamp", "u{0:07d},t{1},{2}"),
    ("follows", "src_id,dst_id,since", "u{0:07d},u{1:07d},{3}"),
])
def test_a_bad_row_past_the_first_megabyte_reads_as_the_reference(tmp_path, kind, header, row):
    lines = [row.format(i, i % 97, i * 1000, i * 1000 if i % 5 else "") for i in range(60_000)]
    lines[50_000] = '"u,1",t1,5'  # about 1.2 MB in: quoted, a time of 7 ms, a bad time
    lines[55_000] = "u2,t2,+7"
    lines[58_000] = "u3,t3,soon"
    path = tmp_path / "log.csv"
    path.write_bytes(("\r\n".join([header] + lines) + "\r\n").encode("utf-8"))
    for on_bad in ("drop", "raise"):
        got = _reader_outcome(_READERS[kind], path, on_bad=on_bad)
        assert got == _reader_outcome(read_log_reference, path, headers=_HEADERS[kind],
                                      on_bad=on_bad)
    assert got == "line 58002: unparsable timestamp: 'soon'"


# Labels for the read-and-build comparison. Labels of 0-8 UTF-8 bytes sit
# beside labels of 9-12 bytes in one column; some share their first 8 bytes,
# some are prefixes of others, some are digits only, and one is empty.
_INGEST_LABELS = st.sampled_from([
    "", "a", "ab", "b", "ba", "7", "07", "70", "sim", "12345678", "123456789", "u0000001",
    "u0000002", "u00000010", "abcdefgh", "abcdefgi", "abcdefghi", "abcdefghij", "abcdefghijkl",
    "é", "éa", "日本", "日本é", "日本語", "abcdefé", "abcdefgé",
]) | st.text(st.sampled_from(["a", "b", "0", "é", "日"]), max_size=5)
_INGEST_TIMES = st.integers(0, 10**18).map(str) | st.sampled_from(["0", "007", "86400000"])
# Lines no clean block holds: a quoted label, a signed time, a wrong width,
# a blank line, an empty or unparsable time, and times holding a byte
# between b"0" and b"?" that is not a digit, or one of the bytes next to
# that range.
_INGEST_DIRTY = st.sampled_from(['"é,1",b,5', "a,b,+7", "a,b,c,d", "", "a", "a,b,", "a,b,soon",
                                 "a,b,1:0", "a,b,12345678;", "a,b,?", "a,b,/1", "a,b,1@"])


@st.composite
def _ingest_log(draw, header):
    """The bytes of a CSV log under `header` whose label columns mix short
    and long labels, its later lines sometimes dirty."""
    width = len(header)
    times = _INGEST_TIMES | st.just("") if header == FOLLOWS_HEADER_TIMED else _INGEST_TIMES
    row = st.tuples(_INGEST_LABELS, _INGEST_LABELS, times).map(lambda r: ",".join(r[:width]))
    lines = (draw(st.lists(row, max_size=10)) * draw(st.sampled_from([1, 1, 6]))
             + draw(st.lists(st.one_of(row, row, row, row, _INGEST_DIRTY), max_size=8)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([",".join(header)] + lines) + draw(st.sampled_from([eol, ""]))
    return text.encode("utf-8")


def _dataset_fields(ds, path):
    """Every field of a Dataset, array dtypes and warning types included,
    and the bytes of its snapshot."""
    save_snapshot(ds, path)
    g = ds.graph
    arrays = [ds.event_time, ds.event_user, ds.event_tag, ds.event_first, g.indptr, g.dst,
              g.since]
    return (ds.user_labels, ds.tag_labels, ds.sha256, g.n,
            {key: (type(value), value) for key, value in ds.warnings.items()},
            [None if a is None else (a.dtype.str, a.tolist()) for a in arrays],
            path.read_bytes())


def _ingest_outcome(tmp, reference, time_unit, on_bad, **options):
    """(dropped counts, digests, row counts, Dataset fields) of reading the
    two logs in `tmp` and building their Dataset, or the text of the
    MalformedRowError a read raised."""
    paths = tmp / "a.csv", tmp / "f.csv"
    try:
        if reference:
            logs = [read_log_reference(path, _HEADERS[kind], time_unit, on_bad)
                    for path, kind in zip(paths, ("adoptions", "follows"))]
            (users, tags, times, dropped_a), (src, dst, since, dropped_f) = logs
            follow_rows = list(zip(src, dst) if since is None else zip(src, dst, since))
            ds = build_dataset_reference(list(zip(users, tags, times)), follow_rows, **options)
            digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in paths]
            counts = len(users), len(src)
        else:
            adoptions, dropped_a = read_adoptions(paths[0], time_unit=time_unit, on_bad=on_bad)
            follows, dropped_f = read_follows(paths[1], time_unit=time_unit, on_bad=on_bad)
            ds = build_dataset(adoptions, follows, **options)
            digests = [adoptions.sha256, follows.sha256]
            counts = len(adoptions), len(follows)
    except MalformedRowError as exc:
        return str(exc)
    return dropped_a, dropped_f, digests, counts, _dataset_fields(ds, tmp / f"{reference}.cscd")


@settings(max_examples=200, deadline=None)
@given(adoptions=_ingest_log(ADOPTIONS_HEADER),
       follows=st.sampled_from([FOLLOWS_HEADER, FOLLOWS_HEADER_TIMED]).flatmap(_ingest_log),
       block=st.sampled_from([None, 8, 16, 64]), time_unit=st.sampled_from(["ms", "s"]),
       on_bad=st.sampled_from(["drop", "raise"]), reverse_edges=st.booleans(),
       mutual_edges=st.booleans())
def test_read_and_build_match_the_row_loop_references(adoptions, follows, block, time_unit, on_bad,
                                                      reverse_edges, mutual_edges):
    options = {"time_unit": time_unit, "on_bad": on_bad, "reverse_edges": reverse_edges,
               "mutual_edges": mutual_edges}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(textio, "_READ_BYTES", block or textio._READ_BYTES):
        tmp = Path(tmp)
        (tmp / "a.csv").write_bytes(adoptions)
        (tmp / "f.csv").write_bytes(follows)
        got = _ingest_outcome(tmp, False, **options)
        expected = _ingest_outcome(tmp, True, **options)
    assert got == expected


def test_a_clean_log_of_short_labels_takes_the_word_path(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes("user_id,tag_id,timestamp\r\nu0000001,sim,5\r\n日本,é,0070\r\n,x,1\r\n"
                     .encode("utf-8"))
    rows, dropped = read_adoptions(path)
    users, tags, times = rows.columns
    assert (users.dtype, tags.dtype, times.dtype) == (np.uint64, np.uint64, np.int64)
    assert users[0] == int.from_bytes(b"u0000001", "big")
    assert (list(rows), dropped) == ([("u0000001", "sim", 5), ("日本", "é", 70), ("", "x", 1)], 0)
    (tmp_path / "f.csv").write_bytes(b"src_id,dst_id\nu0000001,u0000002\n")
    follows, _ = read_follows(tmp_path / "f.csv")
    ds = build_dataset(rows, follows)
    assert ds.user_labels == ("", "u0000001", "u0000002", "日本")
    assert "_index" not in vars(ds.user_table)  # no label -> handle dict was built


# Labels that need quoting (separators, quotes, line breaks), spaces,
# non-ASCII and empty strings, mixed with plain ones; and simulated node
# labels alone, which never need quoting.
_LABELS = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "b", "é", "標", "😀"])
    | st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    max_size=6,
) | st.just("u0000007")
_PLAIN_LABELS = st.integers(0, 10**7 - 1).map("u%07d".__mod__)
_TIMES = st.integers(0, 2**62)


@st.composite
def _logs(draw):
    """(adoption rows, follow rows), every label from one label strategy.
    Some examples tile their rows past the writers' block boundaries."""
    labels = draw(st.sampled_from([_LABELS, _PLAIN_LABELS]))
    adoptions = draw(st.lists(st.tuples(labels, labels, _TIMES), max_size=30))
    follows = draw(st.lists(
        st.one_of(st.tuples(labels, labels),
                  st.tuples(labels, labels, st.one_of(st.none(), _TIMES))),
        max_size=30,
    ))
    n = draw(st.none() | st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    if n is not None:
        adoptions, follows = _tiled(adoptions, n), _tiled(follows, n)
    return adoptions, follows


@settings(max_examples=100, deadline=None)
@given(logs=_logs(), as_columns=st.booleans())
def test_writers_match_per_row_writerow(logs, as_columns):
    adoptions, follows = logs
    timed = any(len(r) == 3 for r in follows)
    expect_follows = [(r[0], r[1], r[2] if len(r) == 3 and r[2] is not None else "")
                      if timed else r for r in follows]
    if as_columns:  # the LogColumns a reader or a SimRun hands over
        adoptions_in = LogColumns([r[0] for r in adoptions], [r[1] for r in adoptions],
                                  [r[2] for r in adoptions])
        follows_in = LogColumns([r[0] for r in follows], [r[1] for r in follows],
                                [r[2] if len(r) == 3 else None for r in follows]
                                if timed else None)
    else:
        adoptions_in, follows_in = iter(adoptions), iter(follows)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert write_adoptions_csv(tmp / "a.csv", adoptions_in) == len(adoptions)
        assert write_follows_csv(tmp / "f.csv", follows_in) == len(follows)
        writerow_reference(tmp / "ra.csv", ADOPTIONS_HEADER, adoptions)
        writerow_reference(tmp / "rf.csv", FOLLOWS_HEADER_TIMED if timed else FOLLOWS_HEADER,
                            expect_follows)
        assert (tmp / "a.csv").read_bytes() == (tmp / "ra.csv").read_bytes()
        assert (tmp / "f.csv").read_bytes() == (tmp / "rf.csv").read_bytes()

        rows, dropped = read_adoptions(tmp / "a.csv")
        assert (list(rows), dropped) == (adoptions, 0)
        if timed:
            follows = [(r[0], r[1], r[2] if len(r) == 3 else None) for r in follows]
        rows, dropped = read_follows(tmp / "f.csv")
        assert (list(rows), dropped) == (follows, 0)


# Labels that fit a label word (at most 8 UTF-8 bytes, no NUL), with
# separators, quotes and line breaks among them.
_WORD_LABELS = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "b", "é", "標", "😀"])
    | st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    max_size=8,
).filter(lambda label: len(label.encode("utf-8")) <= 8) | _PLAIN_LABELS
_WORD_TIMES = st.integers(-2**63 + 1, 2**63 - 1) | st.sampled_from([0, -1, 2**63 - 1])


def _words(labels: list) -> np.ndarray:
    """The label words (see events.LogColumns) of `labels`."""
    return np.array([int.from_bytes(label.encode("utf-8").ljust(8, b"\0"), "big")
                     for label in labels], dtype=np.uint64)


@st.composite
def _word_logs(draw):
    """(adoption rows, follow rows) whose labels fit label words; every
    follow row has a `since`, None or a time, when `timed`."""
    labels = draw(st.sampled_from([_WORD_LABELS, _PLAIN_LABELS]))
    adoptions = draw(st.lists(st.tuples(labels, labels, _WORD_TIMES), max_size=30))
    timed = draw(st.booleans())
    follow = (st.tuples(labels, labels, st.none() | _WORD_TIMES) if timed
              else st.tuples(labels, labels))
    follows = draw(st.lists(follow, max_size=30))
    n = draw(st.none() | st.sampled_from([_BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3]))
    if n is not None:
        adoptions, follows = _tiled(adoptions, n), _tiled(follows, n)
    return adoptions, follows, timed


@settings(max_examples=100, deadline=None)
@given(logs=_word_logs(), form=st.sampled_from(["words", "lists"]))
def test_csv_writers_match_writerow_on_word_and_str_columns(logs, form):
    adoptions, follows, timed = logs
    columns = list(zip(*adoptions)) or [(), (), ()]
    edges = list(zip(*follows)) or [(), (), ()][:2 + timed]
    if form == "words":  # as a clean read or a SimRun hands them over
        times = np.array(columns[2], dtype=np.int64)
        since = (np.array([SINCE_ALWAYS if t is None else t for t in edges[2]], dtype=np.int64)
                 if timed else None)
        adoptions_in = LogColumns(_words(columns[0]), _words(columns[1]), times)
        follows_in = LogColumns(_words(edges[0]), _words(edges[1]), since)
    else:
        adoptions_in = LogColumns(*map(list, columns))
        follows_in = LogColumns(*map(list, edges[:2]), list(edges[2]) if timed else None)
    expect_follows = [(a, b, "" if t is None else t) for a, b, t in follows] if timed else follows
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert write_adoptions_csv(tmp / "a.csv", adoptions_in) == len(adoptions)
        assert write_follows_csv(tmp / "f.csv", follows_in) == len(follows)
        writerow_reference(tmp / "ra.csv", ADOPTIONS_HEADER, adoptions)
        writerow_reference(tmp / "rf.csv", FOLLOWS_HEADER_TIMED if timed else FOLLOWS_HEADER,
                           expect_follows)
        assert (tmp / "a.csv").read_bytes() == (tmp / "ra.csv").read_bytes()
        assert (tmp / "f.csv").read_bytes() == (tmp / "rf.csv").read_bytes()


# TSV columns: each is drawn as a short base and tiled to the row count, so
# some examples cross the writer's block boundaries. Special floats hold
# -0.0 next to 0.0, NaN and the infinities, subnormals, and both sides of
# the points where repr switches to exponent form (1e16 and 1e-4).
_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310,
                   2.225073858507201e-308, 2.2250738585072014e-308, 0.1, 1e-7,
                   1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16,
                   1e-4, 1e-5, 0.00010000000000000002, 9.999999999999999e-05,
                   1.7976931348623157e308, 123456789.0, -1.5]
_TSV_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_TSV_LABELS = st.text(st.sampled_from(["a", "é", "標", "😀", " ", ",", "\t"])
                      | st.characters(exclude_categories=("Cs",)), max_size=6)
# Labels of a label table, which hold no tab or line break: empty,
# non-ASCII and plain ones.
_TABLE_LABELS = st.text(st.sampled_from(["a", "b", "é", "標", "😀", " ", ",", '"'])
                        | st.characters(exclude_categories=("Cs",),
                                        exclude_characters="\t\r\n"), max_size=6)


def _int_array(dtype):
    info = np.iinfo(dtype)
    edges = sorted({int(info.min), int(info.max), 0, 1, int(info.min) + 1, int(info.max) - 1})
    values = st.integers(int(info.min), int(info.max)) | st.sampled_from(edges)
    return lambda k: st.lists(values, min_size=k, max_size=k).map(
        lambda v: np.array(v, dtype=dtype))


class _Labels:
    """A column of labels as handles into a sorted table of distinct labels."""

    def __init__(self, table: tuple, handles: np.ndarray):
        self.table, self.handles = table, handles

    def __len__(self) -> int:
        return len(self.handles)

    def labels(self) -> list:
        return [self.table[h] for h in self.handles.tolist()]

    def column(self):
        """The column as write_tsv takes a label column."""
        return LabelColumn(Labels.from_text(self.table, "user"), self.handles)


@st.composite
def _label_column(draw, k):
    table = tuple(sorted(set(draw(st.lists(_TABLE_LABELS, min_size=1, max_size=8)))))
    handles = draw(st.lists(st.integers(0, len(table) - 1), min_size=k, max_size=k))
    return _Labels(table, np.array(handles, dtype=np.int32))


_TSV_COLUMNS = {
    "int32": _int_array(np.int32),
    "int64": _int_array(np.int64),
    "uint8": _int_array(np.uint8),
    "uint64": _int_array(np.uint64),
    "bool": lambda k: st.lists(st.booleans(), min_size=k, max_size=k).map(
        lambda v: np.array(v, dtype=bool)),
    "float64": lambda k: st.lists(_TSV_FLOATS, min_size=k, max_size=k).map(
        lambda v: np.array(v, dtype=np.float64)),
    "special_floats": lambda k: st.lists(st.sampled_from(_SPECIAL_FLOATS), min_size=k,
                                         max_size=k).map(lambda v: np.array(v, dtype=np.float64)),
    "ints": lambda k: st.lists(st.integers(-2**70, 2**70), min_size=k, max_size=k),
    "floats_or_none": lambda k: st.lists(_TSV_FLOATS | st.none(), min_size=k, max_size=k),
    "objects_or_none": lambda k: st.lists(_TSV_FLOATS | st.none(), min_size=k, max_size=k).map(
        lambda v: np.array(v, dtype=object)),
    "mixed": lambda k: st.lists(st.sampled_from([0, 0.0, -0.0, False, True, 1, 1.0, None, "1",
                                                 "", -1, -1.0, math.nan]),
                                min_size=k, max_size=k),
    "labels": lambda k: st.lists(_TSV_LABELS, min_size=k, max_size=k),
    "label_handles": _label_column,
}


def _tiled(base, n):
    if isinstance(base, _Labels):
        return _Labels(base.table, np.resize(base.handles, n))
    if isinstance(base, np.ndarray):
        return np.resize(base, n)
    return (base * (n // max(len(base), 1) + 1))[:n]


@st.composite
def _tsv_columns(draw):
    n = draw(st.integers(0, 12) | st.sampled_from(
        [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    kinds = draw(st.lists(st.sampled_from(sorted(_TSV_COLUMNS)), min_size=1, max_size=5))
    return [_tiled(draw(_TSV_COLUMNS[kind](min(n, 12))), n) for kind in kinds]


def _python_rows(columns):
    return zip(*[c.tolist() if isinstance(c, np.ndarray) else
                 c.labels() if isinstance(c, _Labels) else c for c in columns])


@settings(max_examples=150, deadline=None)
@given(columns=_tsv_columns())
def test_write_tsv_matches_per_cell_reference(columns):
    header = [f"c{i}" for i in range(len(columns))]
    n = len(columns[0])
    given_columns = [c.column() if isinstance(c, _Labels) else c for c in columns]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        got = _tsv_outcome(write_tsv, tmp / "out.tsv", header, given_columns)
        expected = _tsv_outcome(write_tsv_reference, tmp / "ref.tsv", header,
                                _python_rows(columns))
    assert got == expected
    assert got[0] in (n, "refused")


def _tsv_outcome(write, path, header, columns):
    """(row count, bytes written) of a TSV writer, or ("refused", message)
    when it raises DataError, which it must do before opening `path`."""
    try:
        n = write(path, header, columns)
    except DataError as exc:
        assert not path.exists()
        return "refused", str(exc)
    return n, path.read_bytes()


@pytest.mark.parametrize("columns,named", [
    ([["x\ty", "p\nq"], [1, 2]], "'x\\ty'"),
    ([[1, 2], ["ok", "p\r"]], "'p\\r'"),
    ([np.arange(2), np.array(["a", "b\nc"], dtype=object)], "'b\\nc'"),
])
def test_write_tsv_refuses_text_no_tsv_cell_can_hold(tmp_path, columns, named):
    path = tmp_path / "out.tsv"
    with pytest.raises(DataError, match=re.escape(f"text {named} holds a tab or a line break")):
        write_tsv(path, ["a", "b"], columns)
    assert not path.exists()


@pytest.mark.parametrize("header,columns", [
    (["a", "b"], [[1, 2], [1]]),
    (["a", "b"], [np.arange(3), ["x", "y"]]),
    (["a", "b"], [[1, 2]]),
    (["a"], [[1, 2], [3, 4]]),
])
def test_write_tsv_refuses_uneven_columns(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_tsv(tmp_path / "out.tsv", header, columns)


@pytest.mark.parametrize("text,named", [
    ("NaN", "NaN"), ("Infinity", "Infinity"), ("-Infinity", "-Infinity"),
    ("1e309", "1e309"), ("-1e309", "-1e309"), ("[1.5, 2e400]", "2e400"),
    # past the largest float without a 3-digit exponent
    pytest.param("1" + "0" * 250 + "e99", "1" + "0" * 250 + "e99", id="1e349"),
    pytest.param("2" + "0" * 308 + ".0", "2" + "0" * 308 + ".0", id="2e308"),
])
def test_read_json_object_refuses_numbers_no_float_holds(tmp_path, text, named):
    path = tmp_path / "c.json"
    path.write_text('{"x": %s}' % text)
    with pytest.raises(UsageError, match="not valid JSON") as info:
        read_json_object(path, UsageError)
    assert named in str(info.value)


def test_read_json_object_keeps_finite_numbers(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"x": [1e308, -0.0, 2.5, 10e-400, %d]}' % 10**400)
    assert read_json_object(path, UsageError) == {"x": [1e308, -0.0, 2.5, 0.0, 10**400]}


# JSON values for the encoder: every float oddity in plain and numpy form,
# ints past 64 bits, and strings (as values and keys) that need escaping or
# are not ASCII.
_JSON_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_JSON_FLOAT_ITEMS = _JSON_FLOATS | _JSON_FLOATS.map(np.float64)
_JSON_TEXT = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "標",
                                      "😀", "a", " "]) | st.characters(), max_size=6)
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | _JSON_FLOAT_ITEMS
                 | _JSON_TEXT)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)
                   | st.lists(_JSON_FLOAT_ITEMS, max_size=8)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(obj=_JSON_VALUES)
def test_dump_json_matches_stock_indented_encoder(obj):
    assert dump_json(obj) == dump_json_reference(obj)


def test_dump_json_writes_what_it_returns(tmp_path):
    obj = {
        "theta": [0.25, -0.0, 5e-324, 1e16, math.nan, np.float64(0.1), np.float64(math.inf)],
        "ints": [2**63, -(2**70), 0], "flags": [True, False, None], "empty": [[], {}, ()],
        "text \u00e9\n\"": "\u6a19\U0001f600\\\t", "nested": {"b": [{"a": [1.5]}], "a": {}},
    }
    text = dump_json(obj, tmp_path / "m.json")
    assert text == dump_json_reference(obj)
    assert (tmp_path / "m.json").read_text(encoding="utf-8") == text
    assert dump_json([]) == "[]\n" and dump_json({}) == "{}\n" and dump_json(1.5) == "1.5\n"
    with pytest.raises(TypeError):
        dump_json({"x": [1, {2, 3}]})
