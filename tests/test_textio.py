from __future__ import annotations

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagcascade.errors import DataError, MalformedRowError
from tagcascade.textio import (
    _TSV_BLOCK,
    ADOPTIONS_HEADER,
    FOLLOWS_HEADER,
    FOLLOWS_HEADER_TIMED,
    file_digest,
    parse_duration_ms,
    read_adoptions,
    read_follows,
    write_adoptions_csv,
    write_follows_csv,
    write_tsv,
)

from oracles import write_tsv_reference


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
# counted, but it still takes a line number.
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
]


@pytest.mark.parametrize("reader,text,rows,dropped,bad_line", _READER_CASES)
def test_readers_drop_and_raise_table(tmp_path, reader, text, rows, dropped, bad_line):
    path = tmp_path / "log.csv"
    path.write_text(text, encoding="utf-8")
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


def _writerow_reference(path, header, rows):
    """One csv.writer.writerow call per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


# Labels that need quoting (separators, quotes, line breaks), spaces,
# non-ASCII and empty strings, mixed with plain ones.
_LABELS = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "a", "b", "é", "標", "😀"])
    | st.characters(exclude_categories=("Cs",), exclude_characters="\x00"),
    max_size=6,
) | st.just("u0000007")
_TIMES = st.integers(0, 2**62)


@settings(max_examples=60, deadline=None)
@given(
    adoptions=st.lists(st.tuples(_LABELS, _LABELS, _TIMES), max_size=30),
    follows=st.lists(
        st.one_of(st.tuples(_LABELS, _LABELS),
                  st.tuples(_LABELS, _LABELS, st.one_of(st.none(), _TIMES))),
        max_size=30,
    ),
)
def test_writers_match_per_row_writerow(adoptions, follows):
    timed = any(len(r) == 3 for r in follows)
    expect_follows = [(r[0], r[1], r[2] if len(r) == 3 and r[2] is not None else "")
                      if timed else r for r in follows]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert write_adoptions_csv(tmp / "a.csv", iter(adoptions)) == len(adoptions)
        assert write_follows_csv(tmp / "f.csv", iter(follows)) == len(follows)
        _writerow_reference(tmp / "ra.csv", ADOPTIONS_HEADER, adoptions)
        _writerow_reference(tmp / "rf.csv", FOLLOWS_HEADER_TIMED if timed else FOLLOWS_HEADER,
                            expect_follows)
        assert (tmp / "a.csv").read_bytes() == (tmp / "ra.csv").read_bytes()
        assert (tmp / "f.csv").read_bytes() == (tmp / "rf.csv").read_bytes()

        rows, dropped = read_adoptions(tmp / "a.csv")
        assert (list(rows), dropped) == (adoptions, 0)
        if timed:
            follows = [(r[0], r[1], r[2] if len(r) == 3 else None) for r in follows]
        rows, dropped = read_follows(tmp / "f.csv")
        assert (list(rows), dropped) == (follows, 0)


# TSV columns: each is drawn as a short base and tiled to the row count, so
# some examples cross the writer's block boundaries.
_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 0.1, 1e16, 1e-7]
_TSV_FLOATS = st.floats() | st.sampled_from(_SPECIAL_FLOATS)
_TSV_LABELS = st.text(st.sampled_from(["a", "é", "標", "😀", " ", ",", "\t"])
                      | st.characters(exclude_categories=("Cs",)), max_size=6)


def _int_array(dtype):
    info = np.iinfo(dtype)
    return lambda k: st.lists(st.integers(int(info.min), int(info.max)), min_size=k,
                              max_size=k).map(lambda v: np.array(v, dtype=dtype))


_TSV_COLUMNS = {
    "int32": _int_array(np.int32),
    "int64": _int_array(np.int64),
    "float64": lambda k: st.lists(_TSV_FLOATS, min_size=k, max_size=k).map(
        lambda v: np.array(v, dtype=np.float64)),
    "ints": lambda k: st.lists(st.integers(-2**70, 2**70), min_size=k, max_size=k),
    "floats_or_none": lambda k: st.lists(_TSV_FLOATS | st.none(), min_size=k, max_size=k),
    "labels": lambda k: st.lists(_TSV_LABELS, min_size=k, max_size=k),
}


def _tiled(base, n):
    if isinstance(base, np.ndarray):
        return np.resize(base, n)
    return (base * (n // max(len(base), 1) + 1))[:n]


@st.composite
def _tsv_columns(draw):
    n = draw(st.integers(0, 12) | st.sampled_from(
        [_TSV_BLOCK - 1, _TSV_BLOCK, _TSV_BLOCK + 1, 2 * _TSV_BLOCK + 3]))
    kinds = draw(st.lists(st.sampled_from(sorted(_TSV_COLUMNS)), min_size=1, max_size=5))
    return [_tiled(draw(_TSV_COLUMNS[kind](min(n, 12))), n) for kind in kinds]


def _python_rows(columns):
    return zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])


@settings(max_examples=80, deadline=None)
@given(columns=_tsv_columns())
def test_write_tsv_matches_per_cell_reference(columns):
    header = [f"c{i}" for i in range(len(columns))]
    n = len(columns[0])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert write_tsv(tmp / "out.tsv", header, columns) == n
        assert write_tsv_reference(tmp / "ref.tsv", header, _python_rows(columns)) == n
        assert (tmp / "out.tsv").read_bytes() == (tmp / "ref.tsv").read_bytes()


@pytest.mark.parametrize("header,columns", [
    (["a", "b"], [[1, 2], [1]]),
    (["a", "b"], [np.arange(3), ["x", "y"]]),
    (["a", "b"], [[1, 2]]),
    (["a"], [[1, 2], [3, 4]]),
])
def test_write_tsv_refuses_uneven_columns(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_tsv(tmp_path / "out.tsv", header, columns)
