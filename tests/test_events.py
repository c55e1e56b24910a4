from __future__ import annotations

import csv
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tagcascade as tc
from oracles import build_dataset_reference, giant_component_reference
from tagcascade.errors import MalformedRowError, UndefinedDensityError, UnknownIdError
from tagcascade.snapshot import save_snapshot
from tagcascade.textio import (
    ADOPTIONS_HEADER,
    FOLLOWS_HEADER,
    FOLLOWS_HEADER_TIMED,
    read_adoptions,
    read_follows,
    write_follows_csv,
)


# ---------------------------------------------------------------------------
# build_dataset
# ---------------------------------------------------------------------------

def test_empty_inputs_give_empty_dataset():
    ds = tc.build_dataset([], [])
    assert ds.summary() == {
        "users": 0,
        "tags": 0,
        "total_usages": 0,
        "first_usages": 0,
        "follow_edges": 0,
        "warnings": {"self_loops_dropped": 0, "duplicate_edges_dropped": 0},
    }
    events = (ds.event_time, ds.event_user, ds.event_tag, ds.event_first)
    assert [a.dtype for a in events] == [np.int64, np.int32, np.int32, np.bool_]
    assert (ds.graph.indptr.dtype, ds.graph.dst.dtype) == (np.int64, np.int32)
    assert tc.giant_component(ds) == set()


def test_duplicate_usages_keep_one_first_flag():
    ds = tc.build_dataset([("u1", "t1", 5), ("u1", "t1", 3)], [])
    assert ds.n_events == 2
    assert ds.n_first_usages == 1
    assert list(ds.event_time) == [3, 5]
    assert list(ds.event_first) == [True, False]


def test_events_sorted_by_time_user_tag():
    ds = tc.build_dataset(
        [("b", "y", 7), ("a", "y", 7), ("a", "x", 7), ("c", "x", 1)],
        [],
    )
    rows = list(ds.adoption_rows())
    assert rows == [("c", "x", 1), ("a", "x", 7), ("a", "y", 7), ("b", "y", 7)]


def test_first_usage_is_earliest_per_pair():
    rng = np.random.Generator(np.random.PCG64(1))
    rows = [
        (f"u{rng.integers(5)}", f"x{rng.integers(3)}", int(rng.integers(0, 20)))
        for _ in range(100)
    ]
    ds = tc.build_dataset(rows, [])
    earliest = {}
    for u, x, t in rows:
        if (u, x) not in earliest or t < earliest[(u, x)]:
            earliest[(u, x)] = t
    flagged = {}
    for i in range(ds.n_events):
        if ds.event_first[i]:
            key = (ds.user_label(ds.event_user[i]), ds.tag_label(ds.event_tag[i]))
            assert key not in flagged, "pair flagged twice"
            flagged[key] = int(ds.event_time[i])
    assert flagged == earliest


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 12)),
        max_size=80,
    )
)
def test_first_usage_uniqueness_property(rows):
    adoptions = [(f"u{a}", f"x{b}", t) for a, b, t in rows]
    ds = tc.build_dataset(adoptions, [])
    pair_first = {}
    earliest = {}
    for u, x, t in adoptions:
        if (u, x) not in earliest or t < earliest[(u, x)]:
            earliest[(u, x)] = t
    for i in range(ds.n_events):
        key = (ds.user_label(ds.event_user[i]), ds.tag_label(ds.event_tag[i]))
        if ds.event_first[i]:
            assert key not in pair_first
            pair_first[key] = int(ds.event_time[i])
        else:
            assert key in pair_first  # no usage precedes the flagged one
    assert pair_first == earliest


def test_reingesting_export_reproduces_dataset():
    ds = tc.build_dataset(
        [("u2", "a", 9), ("u1", "a", 3), ("u1", "b", 3), ("u3", "a", 9)],
        [("u1", "u2"), ("u2", "u3", 4), ("u3", "u1", None)],
    )
    ds2 = tc.build_dataset(ds.adoption_rows(), ds.follow_rows())
    assert ds.user_labels == ds2.user_labels
    assert ds.tag_labels == ds2.tag_labels
    np.testing.assert_array_equal(ds.event_time, ds2.event_time)
    np.testing.assert_array_equal(ds.event_user, ds2.event_user)
    np.testing.assert_array_equal(ds.event_tag, ds2.event_tag)
    np.testing.assert_array_equal(ds.event_first, ds2.event_first)
    np.testing.assert_array_equal(ds.graph.indptr, ds2.graph.indptr)
    np.testing.assert_array_equal(ds.graph.dst, ds2.graph.dst)
    np.testing.assert_array_equal(ds.graph.since, ds2.graph.since)


@pytest.mark.parametrize("follows,timed", [
    ([("a", "b", -2**63), ("b", "c", -2**63)], False),
    ([("a", "b", None), ("b", "c", -2**63), ("c", "a", 5)], True),
], ids=["only-always", "mixed"])
def test_always_since_survives_reingest(follows, timed, tmp_path):
    # A since of -2^63 means "always", like an empty one, and is exported as
    # empty: the export re-ingests, as rows or as CSV, to the same bytes.
    ds = tc.build_dataset([], follows)
    assert (ds.graph.since is not None) == timed
    write_follows_csv(tmp_path / "f.csv", ds.follow_rows())
    again = {"rows": tc.build_dataset([], ds.follow_rows()),
             "csv": tc.build_dataset([], read_follows(tmp_path / "f.csv")[0])}
    save_snapshot(ds, tmp_path / "ds.cscd")
    for name, ds2 in again.items():
        save_snapshot(ds2, tmp_path / f"{name}.cscd")
        assert (tmp_path / f"{name}.cscd").read_bytes() == (tmp_path / "ds.cscd").read_bytes(), name


def test_self_loops_dropped_with_warning():
    ds = tc.build_dataset([], [("a", "a"), ("a", "b"), ("b", "b")])
    assert ds.n_edges == 1
    assert ds.warnings["self_loops_dropped"] == 2


def test_duplicate_edges_deduplicated_earliest_since_wins():
    ds = tc.build_dataset([], [("a", "b", 9), ("a", "b", 4), ("a", "c", 1)])
    assert ds.n_edges == 2
    assert ds.warnings["duplicate_edges_dropped"] == 1
    u = ds.user_handle("a")
    assert tc.neighbors_at(ds, u, 4) == {ds.user_handle("b"), ds.user_handle("c")}
    assert tc.neighbors_at(ds, u, 3) == {ds.user_handle("c")}


def test_reverse_edges_flips_observation():
    ds = tc.build_dataset([], [("a", "b")], reverse_edges=True)
    assert tc.neighbors_at(ds, ds.user_handle("b"), 0) == {ds.user_handle("a")}
    assert tc.neighbors_at(ds, ds.user_handle("a"), 0) == set()


def test_mutual_edges_adds_both_directions():
    ds = tc.build_dataset([], [("a", "b")], mutual_edges=True)
    assert ds.n_edges == 2
    assert tc.neighbors_at(ds, ds.user_handle("a"), 0) == {ds.user_handle("b")}
    assert tc.neighbors_at(ds, ds.user_handle("b"), 0) == {ds.user_handle("a")}


def test_malformed_adoption_row_reports_row_number():
    with pytest.raises(MalformedRowError, match="line 2"):
        tc.build_dataset([("a", "x", 1), ("a", "x", "not-a-time")], [])
    # timestamps whose milliseconds do not fit int64
    for when in ("99999999999999999999", 2**63, -2**63 - 1):
        with pytest.raises(MalformedRowError, match="line 2"):
            tc.build_dataset([("a", "x", 1), ("a", "x", when)], [])
        with pytest.raises(MalformedRowError, match="line 2"):
            tc.build_dataset([], [("a", "b", 1), ("a", "c", when)])
    ds = tc.build_dataset([("a", "x", 2**63 - 1), ("b", "x", -2**63)], [])
    assert ds.event_time.tolist() == [-2**63, 2**63 - 1]


def _pair():
    return tc.build_dataset([], [("a", "b")])


@pytest.mark.parametrize("call,error,message", [
    (lambda: tc.parse_timestamp(1.5), ValueError, "not a timestamp: 1.5"),
    (lambda: tc.parse_timestamp(True), ValueError, "not a timestamp: True"),
    (lambda: tc.build_dataset([("a", "x")], []), MalformedRowError,
     "line 1: adoption row needs 3 fields, got ('a', 'x')"),
    (lambda: tc.build_dataset([7], []), MalformedRowError,
     "line 1: adoption row needs 3 fields, got 7"),
    (lambda: tc.build_dataset([], [("a", "b"), ("a",)]), MalformedRowError,
     "line 2: follow row needs 2 or 3 fields, got ('a',)"),
    (lambda: tc.neighbors_at(_pair(), 2, 0), UnknownIdError, "user handle out of range: 2"),
    (lambda: tc.density(_pair(), "giant"), ValueError,
     "scope must be 'all' or 'giant_component', got 'giant'"),
], ids=["float-time", "bool-time", "short-adoption", "non-row-adoption", "short-follow",
        "user-handle", "scope"])
def test_events_error_table(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_handles_are_label_lexicographic_bijection():
    ds = tc.build_dataset([("b", "z", 1), ("a", "y", 2)], [("c", "a")])
    assert ds.user_labels == ("a", "b", "c")
    assert ds.tag_labels == ("y", "z")
    for i, lab in enumerate(ds.user_labels):
        assert ds.user_handle(lab) == i
        assert ds.user_label(i) == lab


# ---------------------------------------------------------------------------
# metamorphic ingest: rewrites of the input rows that must not change the graph
# ---------------------------------------------------------------------------

_USERS = st.sampled_from(["a", "b", "c", "d", "e"])  # few users: duplicates and self-loops
_ADOPTIONS = st.lists(st.tuples(_USERS, st.sampled_from(["x", "y", "z"]), st.integers(0, 20)),
                      max_size=30)
_FOLLOWS = st.lists(
    st.one_of(
        st.tuples(_USERS, _USERS),
        st.tuples(_USERS, _USERS, st.one_of(st.none(), st.just(""), st.integers(0, 20))),
    ),
    max_size=30,
)


def _since(row):
    """The row's since, or None for an edge present at all times."""
    return row[2] if len(row) == 3 and row[2] not in (None, "") else None


def _swapped(row):
    return (row[1], row[0], *row[2:])


def _graph_state(ds):
    g = ds.graph
    since = None if g.since is None else g.since.tolist()
    return ds.user_labels, g.indptr.tolist(), g.dst.tolist(), since, ds.warnings


@settings(max_examples=60, deadline=None)
@given(adoptions=_ADOPTIONS, follows=_FOLLOWS, data=st.data())
def test_shuffled_rows_give_identical_snapshot(adoptions, follows, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("shuffle") / "d.cscd"
    save_snapshot(tc.build_dataset(adoptions, follows), path)
    want = path.read_bytes()
    shuffled = tc.build_dataset(data.draw(st.permutations(adoptions)),
                                data.draw(st.permutations(follows)))
    save_snapshot(shuffled, path)
    assert path.read_bytes() == want


@settings(max_examples=60, deadline=None)
@given(follows=_FOLLOWS)
def test_mutual_edges_equal_appending_reversed_rows(follows):
    rows = [r for r in follows if r[0] != r[1]]
    mutual = tc.build_dataset([], rows, mutual_edges=True)
    appended = tc.build_dataset([], rows + [_swapped(r) for r in rows])
    assert _graph_state(mutual) == _graph_state(appended)


@settings(max_examples=60, deadline=None)
@given(follows=_FOLLOWS)
def test_reverse_edges_equal_swapped_columns(follows):
    reversed_ = tc.build_dataset([], follows, reverse_edges=True)
    swapped = tc.build_dataset([], [_swapped(r) for r in follows])
    assert _graph_state(reversed_) == _graph_state(swapped)


@settings(max_examples=60, deadline=None)
@given(follows=_FOLLOWS, pick=st.integers(0, 29), delay=st.integers(1, 5))
def test_later_copy_of_an_edge_only_counts_a_duplicate(follows, pick, delay):
    rows = [r for r in follows if r[0] != r[1]]
    # A timed row keeps the graph timed with or without the copy.
    assume(rows and any(_since(r) is not None for r in follows))
    src, dst, *_ = row = rows[pick % len(rows)]
    since = _since(row)
    base = tc.build_dataset([], follows)
    grown = tc.build_dataset([], follows + [(src, dst, delay if since is None else since + delay)])

    edges = {(base.user_label(a), base.user_label(b)) for a, b in base.graph.edge_list().tolist()}
    assert edges == {(r[0], r[1]) for r in rows}
    assert _graph_state(grown)[:-1] == _graph_state(base)[:-1]
    assert grown.warnings == dict(
        base.warnings, duplicate_edges_dropped=base.warnings["duplicate_edges_dropped"] + 1)


# ---------------------------------------------------------------------------
# ingest paths: CSV through the readers, Python rows, and the row-loop oracle
# ---------------------------------------------------------------------------

# Few short labels, so users repeat and self-loops and duplicate edges occur;
# non-ASCII and characters that csv quotes included.
_LABEL = st.text(st.sampled_from(["a", "b", "é", "標", " ", ",", '"', "\n"]), max_size=2)
# A time cell: an int (read per the time unit), a numeric string with
# padding, an ISO-8601 string (naive, Z or with an offset), or -2^63, which
# as a since means "always".
_ISO = st.builds(
    lambda dt, tz: dt.replace(tzinfo=tz).isoformat().replace("+00:00", "Z"),
    st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1)),
    st.sampled_from([None, timezone.utc, timezone(timedelta(hours=-5, minutes=-30))]),
)
_WHEN = (st.integers(-10**15, 10**15) | st.integers(0, 30)
         | st.integers(-10**12, 10**12).map(lambda t: f" {t} ") | _ISO | st.just(-2**63))


@st.composite
def _follow_rows(draw):
    """Follow rows of one file: static (two fields), timed, or timed with
    every `since` empty, which gives a static graph."""
    pairs = draw(st.lists(st.tuples(_LABEL, _LABEL), max_size=25))
    kind = draw(st.sampled_from(["static", "timed", "all_empty"]))
    if kind == "static":
        return pairs
    cells = st.sampled_from([None, ""]) if kind == "all_empty" else \
        st.sampled_from([None, ""]) | _WHEN
    # A duplicate of an earlier edge with another since, half of the time.
    rows = [(a, b, draw(cells)) for a, b in pairs]
    if rows and draw(st.booleans()):
        rows.append(rows[0][:2] + (draw(cells),))
    return rows


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if c is None else c for c in row] for row in rows)


def _check_invariants(ds):
    """Structural invariants every built Dataset must hold."""
    n_users, n_tags = ds.n_users, ds.n_tags
    for labels in (ds.user_labels, ds.tag_labels):
        assert all(a < b for a, b in zip(labels, labels[1:]))
    keys = list(zip(ds.event_time.tolist(), ds.event_user.tolist(), ds.event_tag.tolist()))
    assert keys == sorted(keys)
    seen: set = set()
    first = []
    for _, user, tag in keys:
        first.append((user, tag) not in seen)
        seen.add((user, tag))
    assert ds.event_first.tolist() == first
    assert all(0 <= u < n_users for u in ds.event_user.tolist())
    assert all(0 <= x < n_tags for x in ds.event_tag.tolist())
    g = ds.graph
    indptr = g.indptr.tolist()
    assert len(indptr) == n_users + 1 and indptr[0] == 0 and indptr[-1] == g.n_edges
    assert all(a <= b for a, b in zip(indptr, indptr[1:]))
    assert all(0 <= v < n_users for v in g.dst.tolist())
    for u in range(n_users):
        lo, hi = indptr[u], indptr[u + 1]
        row = g.dst[lo:hi].tolist()
        keys = list(zip(g.since[lo:hi].tolist(), row)) if g.since is not None else row
        assert keys == sorted(keys) and len(set(row)) == len(row) and u not in row


@settings(max_examples=80, deadline=None)
@given(
    adoptions=st.lists(st.tuples(_LABEL, _LABEL, _WHEN), max_size=25),
    follows=_follow_rows(),
    unit=st.sampled_from(["ms", "s"]),
    reverse_edges=st.booleans(),
    mutual_edges=st.booleans(),
)
# The only since is on a self-loop, which is dropped: the graph is still timed.
@example(adoptions=[], follows=[("a", "a", 5), ("a", "b", None)], unit="ms",
         reverse_edges=False, mutual_edges=False)
# Every since means "always": the graph is static.
@example(adoptions=[], follows=[("a", "b", -2**63), ("b", "a", None)], unit="ms",
         reverse_edges=False, mutual_edges=False)
def test_csv_and_python_rows_build_identical_datasets(
        adoptions, follows, unit, reverse_edges, mutual_edges, tmp_path_factory):
    if unit == "s":  # -2^63 s is outside int64 milliseconds
        adoptions = [r for r in adoptions if r[2] != -2**63]
        follows = [r for r in follows if r[2:] != (-2**63,)]
    tmp = tmp_path_factory.mktemp("ingest")
    timed = any(len(r) == 3 for r in follows)
    _write_csv(tmp / "a.csv", ADOPTIONS_HEADER, adoptions)
    _write_csv(tmp / "f.csv", FOLLOWS_HEADER_TIMED if timed else FOLLOWS_HEADER, follows)
    options = {"reverse_edges": reverse_edges, "mutual_edges": mutual_edges}

    read_a, dropped_a = read_adoptions(tmp / "a.csv", time_unit=unit)
    read_f, dropped_f = read_follows(tmp / "f.csv", time_unit=unit)
    assert (len(read_a), len(read_f), dropped_a, dropped_f) == (len(adoptions), len(follows), 0, 0)
    built = {
        "csv": tc.build_dataset(read_a, read_f, **options),
        "reference": build_dataset_reference(adoptions, follows, time_unit=unit, **options),
    }
    if unit == "ms":  # an int in a Python row is milliseconds
        built["rows"] = tc.build_dataset(adoptions, follows, **options)
    snapshots = {}
    for name, ds in built.items():
        _check_invariants(ds)
        save_snapshot(ds, tmp / f"{name}.cscd")
        snapshots[name] = (tmp / f"{name}.cscd").read_bytes()
    for name, ds in built.items():
        assert snapshots[name] == snapshots["reference"], name
        assert ds.warnings == built["reference"].warnings, name


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["1_000", "\uff11\uff15", "\u0663", "1\u0660", "\u00a07",
                                  "2020-01-01T00:00:0\uff11"])
def test_timestamps_take_ascii_digits_only(text):
    # int() reads the first five as 1000, 15, 3, 10 and 7 ms; a timestamp is
    # ASCII text, and its digits are 0-9.
    with pytest.raises(ValueError, match=re.escape(f"unparsable timestamp: {text!r}")):
        tc.parse_timestamp(text)
    with pytest.raises(MalformedRowError, match=re.escape(f"line 2: unparsable timestamp: {text!r}")):
        tc.build_dataset([("a", "x", "1"), ("b", "x", text)], [])
    with pytest.raises(MalformedRowError, match=re.escape(f"line 1: unparsable timestamp: {text!r}")):
        tc.build_dataset([], [("a", "b", text)])


def test_timestamps_keep_whitespace_and_sign():
    assert [tc.parse_timestamp(t) for t in (" +7 ", "-12", "\t15\n", "+0")] == [7, -12, 15, 0]
    ds = tc.build_dataset([("a", "x", " -3 ")], [("a", "b", "+4")])
    assert ds.event_time.tolist() == [-3] and ds.graph.since.tolist() == [4]


def test_parse_timestamp_accepts_iso8601_and_units():
    assert tc.parse_timestamp(1500) == 1500
    assert tc.parse_timestamp("1500") == 1500
    assert tc.parse_timestamp(2, unit="s") == 2000
    assert tc.parse_timestamp("1970-01-01T00:00:01Z") == 1000
    assert tc.parse_timestamp("1970-01-01T00:00:01+00:00") == 1000
    with pytest.raises(ValueError):
        tc.parse_timestamp("next tuesday")


# ---------------------------------------------------------------------------
# neighbors_at
# ---------------------------------------------------------------------------

def test_neighbors_at_no_out_edges_is_empty(micro_dataset):
    assert tc.neighbors_at(micro_dataset, micro_dataset.user_handle("B"), 100) == set()


def test_neighbors_at_filters_by_edge_since():
    ds = tc.build_dataset([], [("A", "B", 2), ("A", "C", 7)])
    a = ds.user_handle("A")
    assert tc.neighbors_at(ds, a, 5) == {ds.user_handle("B")}
    assert tc.neighbors_at(ds, a, 7) == {ds.user_handle("B"), ds.user_handle("C")}
    assert tc.neighbors_at(ds, a, 1) == set()


def test_neighbors_at_static_fallback():
    ds = tc.build_dataset([], [("A", "B"), ("A", "C")])
    a = ds.user_handle("A")
    for t in (-(10**15), 0, 10**15):
        assert tc.neighbors_at(ds, a, t) == {ds.user_handle("B"), ds.user_handle("C")}


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 30)),
        max_size=40,
    ),
    t1=st.integers(0, 30),
    dt=st.integers(0, 30),
)
def test_neighbors_at_monotone_in_time(edges, t1, dt):
    rows = [(f"u{a}", f"u{b}", s) for a, b, s in edges if a != b]
    ds = tc.build_dataset([], rows)
    for u in range(ds.n_users):
        early = tc.neighbors_at(ds, u, t1)
        late = tc.neighbors_at(ds, u, t1 + dt)
        assert early <= late


# ---------------------------------------------------------------------------
# giant component & density
# ---------------------------------------------------------------------------

def _components_oracle(n, edges):
    """Exhaustive weak-component labeling by repeated sweeps."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            lo = min(label[a], label[b])
            if label[a] != lo or label[b] != lo:
                label[a] = label[b] = lo
                changed = True
                # propagate until stable
    groups = {}
    for i, l in enumerate(label):
        # resolve chains
        while label[l] != l:
            l = label[l]
        groups.setdefault(l, set()).add(i)
    return list(groups.values())


def test_giant_component_complete_graph():
    users = ["a", "b", "c", "d"]
    rows = [(x, y) for x in users for y in users if x != y]
    ds = tc.build_dataset([], rows)
    assert tc.giant_component(ds) == set(range(4))


def test_giant_component_picks_larger():
    ds = tc.build_dataset([], [("A", "B"), ("B", "C"), ("D", "E")])
    members = {ds.user_label(u) for u in tc.giant_component(ds)}
    assert members == {"A", "B", "C"}


def test_giant_component_tie_breaks_on_smallest_handle():
    # two components of size 2: {a, d} and {b, c}; {a, d} holds handle 0
    ds = tc.build_dataset([], [("a", "d"), ("b", "c")])
    members = {ds.user_label(u) for u in tc.giant_component(ds)}
    assert members == {"a", "d"}


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 100),
    edges=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=150),
)
def test_giant_component_matches_exhaustive_labeling(n, edges):
    edges = [(a % n, b % n) for a, b in edges if a % n != b % n]
    rows = [(f"u{a:03d}", f"u{b:03d}") for a, b in edges]
    # force all n users to exist via singleton adoptions
    adoptions = [(f"u{i:03d}", "x", 0) for i in range(n)]
    ds = tc.build_dataset(adoptions, rows)
    comps = _components_oracle(n, edges)
    best = max(len(c) for c in comps)
    winners = [c for c in comps if len(c) == best]
    expected = min(winners, key=min)
    assert tc.giant_component(ds) == expected


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 30),
    edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
    mirrored=st.booleans(),
    isolated=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_giant_component_matches_union_find_reference(k, edges, mirrored, isolated, seed):
    # `mirrored` adds a disjoint copy of the graph, so the largest component
    # size occurs twice and the tie-break decides; `isolated` users have no
    # edges. Node i gets handle perm[i], so handles are shuffled.
    edges = [(a % k, b % k) for a, b in edges if a % k != b % k]
    if mirrored:
        edges += [(a + k, b + k) for a, b in edges]
    n = k * (2 if mirrored else 1) + isolated
    perm = np.random.default_rng(seed).permutation(n).tolist()
    labels = [f"u{p:03d}" for p in perm]
    ds = tc.build_dataset([(lab, "x", 0) for lab in labels],
                          [(labels[a], labels[b]) for a, b in edges])
    assert tc.giant_component(ds) == giant_component_reference(
        n, [(perm[a], perm[b]) for a, b in edges])


@pytest.mark.parametrize("seed", range(5))
def test_giant_component_of_a_long_path_with_shuffled_handles(seed):
    # Handles are shuffled along a 1e4-node path, so hooking takes many
    # rounds and leaves long pointer chains to jump.
    n = 10_000
    perm = np.random.default_rng(seed).permutation(n).tolist()
    edges = list(zip(perm, perm[1:]))
    ds = tc.build_dataset([], [(f"u{a:05d}", f"u{b:05d}") for a, b in edges])
    assert tc.giant_component(ds) == giant_component_reference(n, edges) == set(range(n))


def test_density_hand_values():
    users = ["a", "b", "c"]
    rows = [("a", "b"), ("b", "c")]
    ds = tc.build_dataset([(u, "x", 0) for u in users], rows)
    assert tc.density(ds) == pytest.approx(2 / 6, abs=1e-15)

    complete = [(x, y) for x in users for y in users if x != y]
    ds2 = tc.build_dataset([], complete)
    assert tc.density(ds2) == pytest.approx(1.0, abs=1e-15)


def test_density_requires_two_users():
    ds = tc.build_dataset([("a", "x", 0)], [])
    with pytest.raises(UndefinedDensityError):
        tc.density(ds)


def test_density_giant_component_scope():
    # K3 on {a,b,c} plus isolated pair d->e
    users = ["a", "b", "c"]
    rows = [(x, y) for x in users for y in users if x != y] + [("d", "e")]
    ds = tc.build_dataset([], rows)
    assert tc.density(ds, "giant_component") == pytest.approx(1.0, abs=1e-15)
    assert tc.density(ds, "all") == pytest.approx(7 / 20, abs=1e-15)
