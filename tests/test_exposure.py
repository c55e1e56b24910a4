from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagcascade as tc
from tagcascade import exposure
from tagcascade.events import Dataset, build_follower_graph
from tagcascade.errors import NoAdoptionError, UndefinedThresholdError, UnknownIdError

from oracles import assert_table_matches_oracle, brute_force_exposures, random_micro_rows


def _threshold_rows(thresholds) -> list:
    """(user, beta, defined_adoptions, undefined_adoptions) per row of a
    ThresholdTable, as Python values."""
    return list(zip(thresholds.user.tolist(), thresholds.beta.tolist(),
                    thresholds.defined_adoptions.tolist(), thresholds.undefined_adoptions.tolist()))


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_exposure_worked_example(micro_dataset):
    ds = micro_dataset
    rec = tc.exposure_at_adoption(ds, ds.user_handle("A"), ds.tag_handle("t"))
    assert rec.active_alters == 2
    assert rec.neighborhood_size == 3
    assert rec.exposure == pytest.approx(2 / 3, abs=1e-15)
    assert rec.tag_popularity_at_adoption == 2
    assert rec.defined


def test_exposure_zero_when_ego_adopts_first():
    ds = tc.build_dataset(
        [("A", "t", 1), ("B", "t", 5)],
        [("A", "B")],
    )
    rec = tc.exposure_at_adoption(ds, ds.user_handle("A"), ds.tag_handle("t"))
    assert rec.exposure == 0.0
    assert rec.defined


def test_exposure_one_when_all_alters_adopted_before():
    ds = tc.build_dataset(
        [("A", "t", 9), ("B", "t", 1), ("C", "t", 2)],
        [("A", "B"), ("A", "C")],
    )
    rec = tc.exposure_at_adoption(ds, ds.user_handle("A"), ds.tag_handle("t"))
    assert rec.exposure == 1.0


def test_exposure_no_adoption_error(micro_dataset):
    ds = micro_dataset
    ds2 = tc.build_dataset(
        [("A", "t", 4), ("B", "u", 1)],
        [("A", "B")],
    )
    with pytest.raises(NoAdoptionError):
        tc.exposure_at_adoption(ds2, ds2.user_handle("B"), ds2.tag_handle("t"))


def test_zero_neighborhood_marked_undefined_not_error(micro_dataset):
    rec = tc.exposure_at_adoption(micro_dataset, micro_dataset.user_handle("B"),
                                  micro_dataset.tag_handle("t"))
    assert rec.neighborhood_size == 0
    assert not rec.defined
    assert math.isnan(rec.exposure)


def test_strict_ties_exclude_simultaneous_adopters():
    ds = tc.build_dataset(
        [("A", "t", 5), ("B", "t", 5), ("C", "t", 1)],
        [("A", "B"), ("A", "C")],
    )
    a = ds.user_handle("A")
    x = ds.tag_handle("t")
    strict = tc.exposure_at_adoption(ds, a, x)
    assert strict.active_alters == 1  # only C
    inclusive = tc.exposure_at_adoption(ds, a, x, ties="inclusive")
    assert inclusive.active_alters == 2  # B's tie now counts


def test_popularity_usages_mode_counts_repeats():
    ds = tc.build_dataset(
        [("B", "t", 1), ("B", "t", 2), ("B", "t", 3), ("A", "t", 4)],
        [("A", "B")],
    )
    a = ds.user_handle("A")
    x = ds.tag_handle("t")
    assert tc.exposure_at_adoption(ds, a, x).tag_popularity_at_adoption == 1
    assert tc.exposure_at_adoption(ds, a, x, popularity="usages").tag_popularity_at_adoption == 3


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_user_threshold_mean_of_defined_exposures():
    # A adopts three tags with exposures 0, 2/3, 1
    adoptions = [
        ("A", "x", 1),                                   # before anyone: 0
        ("B", "y", 1), ("C", "y", 2), ("A", "y", 4),      # 2/3 of {B,C,D}? no: alters B,C adopted
        ("D", "y", 9),
        ("B", "z", 1), ("C", "z", 2), ("D", "z", 3), ("A", "z", 8),  # all 3 before: 1
    ]
    ds = tc.build_dataset(adoptions, [("A", "B"), ("A", "C"), ("A", "D")])
    t = tc.user_threshold(ds, ds.user_handle("A"))
    assert t.beta == pytest.approx(5 / 9, abs=1e-12)
    assert t.defined_adoptions == 3
    assert t.undefined_adoptions == 0


def test_user_threshold_single_zero_exposure():
    ds = tc.build_dataset([("A", "t", 1), ("B", "t", 2)], [("A", "B")])
    t = tc.user_threshold(ds, ds.user_handle("A"))
    assert t.beta == 0.0


def test_user_threshold_isolated_user_errors():
    ds = tc.build_dataset([("A", "t", 1)], [])
    with pytest.raises(UndefinedThresholdError):
        tc.user_threshold(ds, ds.user_handle("A"))


def test_user_threshold_rejects_out_of_range_handle():
    ds = tc.build_dataset([("A", "t", 1), ("B", "t", 2)], [("A", "B")])
    for u in (ds.n_users, -1):
        with pytest.raises(UnknownIdError):
            tc.user_threshold(ds, u)


def test_population_thresholds_median():
    # two users with betas 0.2 and 0.4 -> median 0.3
    adoptions = [
        ("B", "x", 1),
        ("A", "x", 5),   # A: 1 of 5 alters adopted x -> 0.2
        ("B", "y", 1), ("C", "y", 1),
        ("G", "y", 5),   # G: 2 of 5 alters adopted y -> 0.4
    ]
    follows = [("A", v) for v in "BCDEF"] + [("G", v) for v in "BCDEF"]
    ds = tc.build_dataset(adoptions, follows)
    table = tc.all_exposures(ds)
    thresholds = tc.population_thresholds(ds, table=table)
    betas = {ds.user_label(u): beta for u, beta, *_ in _threshold_rows(thresholds)}
    assert betas["A"] == pytest.approx(0.2)
    assert betas["G"] == pytest.approx(0.4)
    ag = np.array([ds.user_label(u) in "AG" for u in thresholds.user.tolist()], dtype=bool)
    summary = tc.threshold_summary(table, tc.ThresholdTable(
        *(getattr(thresholds, f.name)[ag] for f in dataclasses.fields(thresholds))))
    assert summary["per_user"]["median"] == pytest.approx(0.3)


def test_population_thresholds_empty_when_all_isolated():
    ds = tc.build_dataset([("A", "t", 1), ("B", "t", 2)], [])
    assert len(tc.population_thresholds(ds)) == 0


def test_summary_of_no_records_has_no_quartiles():
    ds = tc.build_dataset([], [])
    table = tc.all_exposures(ds)
    summary = tc.threshold_summary(table, tc.population_thresholds(ds, table=table))
    empty = {"count": 0, "median": None, "q1": None, "q3": None, "mean": None}
    assert summary["per_adoption"] == summary["per_user"] == empty


def _a_follows_b():
    return tc.build_dataset([("A", "t", 1)], [("A", "B")])  # B adopts nothing


@pytest.mark.parametrize("call,error,message", [
    (lambda: tc.all_exposures(_a_follows_b(), ties="loose"), ValueError,
     "ties must be one of ('strict', 'inclusive')"),
    (lambda: tc.all_exposures(_a_follows_b(), popularity="views"), ValueError,
     "popularity must be one of ('adopters', 'usages')"),
    (lambda: tc.exposure_at_adoption(_a_follows_b(), 2, 0), UnknownIdError,
     "user handle out of range: 2"),
    (lambda: tc.exposure_at_adoption(_a_follows_b(), 0, 1), UnknownIdError,
     "tag handle out of range: 1"),
    (lambda: tc.user_threshold(_a_follows_b(), 1), NoAdoptionError,
     "user 'B' has no adoptions"),
], ids=["ties", "popularity", "user-handle", "tag-handle", "no-adoptions"])
def test_exposure_error_table(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_all_exposures_cardinality_and_order(micro_dataset):
    table = tc.all_exposures(micro_dataset)
    assert len(table) == 4
    times = [rec.time for rec in table]
    assert times == sorted(times)


def test_batch_matches_single_record_bit_exactly():
    rng = np.random.Generator(np.random.PCG64(7))
    adoptions, follows = random_micro_rows(rng)
    ds = tc.build_dataset(adoptions, follows)
    for ties in ("strict", "inclusive"):
        for pop in ("adopters", "usages"):
            table = tc.all_exposures(ds, ties=ties, popularity=pop)
            for rec in table:
                single = tc.exposure_at_adoption(ds, rec.user, rec.tag, ties=ties, popularity=pop)
                assert single == rec or (
                    math.isnan(single.exposure) and math.isnan(rec.exposure)
                    and single.active_alters == rec.active_alters
                    and single.neighborhood_size == rec.neighborhood_size
                    and single.tag_popularity_at_adoption == rec.tag_popularity_at_adoption
                )


def test_user_threshold_matches_population_batch():
    rng = np.random.Generator(np.random.PCG64(11))
    adoptions, follows = random_micro_rows(rng)
    ds = tc.build_dataset(adoptions, follows)
    by_user = {row[0]: tc.UserThreshold(*row)
               for row in _threshold_rows(tc.population_thresholds(ds))}
    for u, want in by_user.items():
        got = tc.user_threshold(ds, u)
        assert got == want


# ---------------------------------------------------------------------------
# oracle equivalence and properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ties", ["strict", "inclusive"])
@pytest.mark.parametrize("popularity", ["adopters", "usages"])
def test_oracle_equivalence_sampled(ties, popularity):
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(40):
        adoptions, follows = random_micro_rows(rng)
        ds = tc.build_dataset(adoptions, follows)
        table = tc.all_exposures(ds, ties=ties, popularity=popularity)
        oracle = brute_force_exposures(adoptions, follows, ties=ties, popularity=popularity)
        assert_table_matches_oracle(ds, table, oracle)
        singles = [tc.exposure_at_adoption(ds, rec.user, rec.tag, ties=ties, popularity=popularity)
                   for rec in table]
        assert_table_matches_oracle(ds, singles, oracle)
        for u in sorted(set(table.user.tolist())):
            label = ds.user_label(u)
            mine = [rec["exposure"] for (v, _), rec in oracle.items() if v == label]
            defined = [e for e in mine if e is not None]
            if not defined:
                with pytest.raises(UndefinedThresholdError):
                    tc.user_threshold(ds, u, ties=ties)
                continue
            got = tc.user_threshold(ds, u, ties=ties)
            assert abs(got.beta - float(sum(defined, Fraction(0)) / len(defined))) < 1e-12, label
            assert (got.defined_adoptions, got.undefined_adoptions) == (
                len(defined), len(mine) - len(defined)), label


@pytest.mark.parametrize("ties", ["strict", "inclusive"])
@pytest.mark.parametrize("popularity", ["adopters", "usages"])
def test_oracle_equivalence_tiny_blocks(monkeypatch, ties, popularity):
    # Blocks of 3 alters split the flat alter sequence mid-dataset, and most
    # neighbourhoods span several blocks.
    monkeypatch.setattr(exposure, "_BLOCK", 3)
    rng = np.random.Generator(np.random.PCG64(43))
    cases = [random_micro_rows(rng) for _ in range(25)]
    cases += [
        ([], []),                                          # no events, no tags, no users
        ([], [("a", "b"), ("b", "c")]),                    # edges but no events
        ([("a", "x", 1), ("b", "x", 1), ("a", "y", 0)], []),  # no edges
        ([("a", "x", 2), ("b", "x", 2), ("c", "x", 1)],
         [("a", "b", 2), ("a", "c", 3), ("b", "a", None), ("b", "c", 1)]),
    ]
    for adoptions, follows in cases:
        ds = tc.build_dataset(adoptions, follows)
        table = tc.all_exposures(ds, ties=ties, popularity=popularity)
        assert_table_matches_oracle(
            ds, table, brute_force_exposures(adoptions, follows, ties=ties, popularity=popularity))
        assert [a.dtype for a in (table.user, table.tag, table.active_alters,
                                  table.neighborhood_size)] == [np.int32] * 4
        assert (table.time.dtype, table.tag_popularity_at_adoption.dtype,
                table.exposure.dtype) == (np.int64, np.int64, np.float64)


def test_exposure_memory_is_bounded():
    # 200 egos each observe the same 1000 alters and all 1200 users adopt
    # the same 50 tags: 1e7 alters scanned, which unblocked would take
    # hundreds of megabytes.
    n_alters, n_egos, n_tags = 1000, 200, 50
    n = n_alters + n_egos
    rng = np.random.Generator(np.random.PCG64(5))
    times = rng.integers(0, 10_000, (n, n_tags))
    user, tag = np.divmod(np.arange(n * n_tags), n_tags)
    order = np.lexsort((tag, user, times.ravel()))
    edges = np.column_stack([np.repeat(np.arange(n_alters, n), n_alters),
                             np.tile(np.arange(n_alters), n_egos)])
    ds = Dataset(
        user_table=tuple(f"u{i:04d}" for i in range(n)),
        tag_table=tuple(f"x{j:02d}" for j in range(n_tags)),
        event_time=times.ravel()[order],
        event_user=user[order].astype(np.int32),
        event_tag=tag[order].astype(np.int32),
        event_first=np.ones(n * n_tags, dtype=bool),
        graph=build_follower_graph(edges, n),
    )
    tracemalloc.start()
    try:
        table = tc.all_exposures(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert int(table.neighborhood_size.sum()) == n_egos * n_alters * n_tags
    ego = table.user >= n_alters
    alter_times = np.sort(times[:n_alters], axis=0)
    want = [np.searchsorted(alter_times[:, x], t, "left")
            for x, t in zip(table.tag[ego], table.time[ego])]
    np.testing.assert_array_equal(table.active_alters[ego], want)


def test_permutation_invariance():
    rng = np.random.Generator(np.random.PCG64(3))
    adoptions, follows = random_micro_rows(rng)
    ds = tc.build_dataset(adoptions, follows)
    table = tc.all_exposures(ds)
    for _ in range(5):
        rng.shuffle(adoptions)
        rng.shuffle(follows)
        ds2 = tc.build_dataset(adoptions, follows)
        table2 = tc.all_exposures(ds2)
        np.testing.assert_array_equal(table.user, table2.user)
        np.testing.assert_array_equal(table.tag, table2.tag)
        np.testing.assert_array_equal(table.time, table2.time)
        np.testing.assert_array_equal(table.active_alters, table2.active_alters)
        np.testing.assert_array_equal(table.neighborhood_size, table2.neighborhood_size)
        np.testing.assert_array_equal(table.exposure, table2.exposure)
        np.testing.assert_array_equal(
            table.tag_popularity_at_adoption, table2.tag_popularity_at_adoption
        )


def test_tie_perturbation_never_increases_active_alters():
    # Alter C adopted strictly before A; moving C's adoption to exactly A's
    # time must not raise A's active count under the strict rule.
    base = [("A", "t", 5), ("B", "t", 1), ("C", "t", 3)]
    tied = [("A", "t", 5), ("B", "t", 1), ("C", "t", 5)]
    follows = [("A", "B"), ("A", "C")]
    d1 = tc.build_dataset(base, follows)
    d2 = tc.build_dataset(tied, follows)
    a1 = tc.exposure_at_adoption(d1, d1.user_handle("A"), d1.tag_handle("t")).active_alters
    a2 = tc.exposure_at_adoption(d2, d2.user_handle("A"), d2.tag_handle("t")).active_alters
    assert a2 <= a1


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_exposure_bounds_property(data):
    n_users = data.draw(st.integers(1, 10))
    rows = data.draw(
        st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, 4), st.integers(0, 15)),
            max_size=60,
        )
    )
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_users - 1)),
            max_size=40,
        )
    )
    adoptions = [(f"u{a}", f"x{b}", t) for a, b, t in rows]
    follows = [(f"u{a}", f"u{b}") for a, b in edges if a != b]
    ds = tc.build_dataset(adoptions, follows)
    table = tc.all_exposures(ds)
    defined = table.defined_mask
    assert np.all(table.exposure[defined] >= 0.0)
    assert np.all(table.exposure[defined] <= 1.0)
    assert np.all(np.isnan(table.exposure[~defined]))
    assert np.all(table.active_alters <= table.neighborhood_size)
    for beta in tc.population_thresholds(ds, table=table).beta.tolist():
        assert 0.0 <= beta <= 1.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_increasing_time_map_leaves_exposures_unchanged(data):
    # Exposure, popularity and edge presence depend only on < and == between
    # times, so any strictly increasing map of every event time and every
    # `since` changes the time column and nothing else.
    n_users = data.draw(st.integers(1, 8))
    users = st.integers(0, n_users - 1).map("u{}".format)
    times = st.integers(0, 15)  # a narrow range: plenty of ties
    adoptions = data.draw(st.lists(st.tuples(users, st.sampled_from(["x", "y", "z"]), times),
                                   max_size=50))
    follows = data.draw(st.lists(
        st.one_of(st.tuples(users, users), st.tuples(users, users, st.none() | times)),
        max_size=40))
    values = sorted({t for *_, t in adoptions} | {r[2] for r in follows if len(r) == 3} - {None})
    start = data.draw(st.integers(-2**62, 2**62))
    gaps = data.draw(st.lists(st.integers(1, 2**56), min_size=len(values), max_size=len(values)))
    new = dict(zip(values, (start + sum(gaps[:i + 1]) for i in range(len(values)))))
    mapped_adoptions = [(u, x, new[t]) for u, x, t in adoptions]
    mapped_follows = [r if len(r) == 2 or r[2] is None else (r[0], r[1], new[r[2]])
                      for r in follows]

    ds = tc.build_dataset(adoptions, follows)
    mapped = tc.build_dataset(mapped_adoptions, mapped_follows)
    for ties in ("strict", "inclusive"):
        for popularity in ("adopters", "usages"):
            a = tc.all_exposures(ds, ties=ties, popularity=popularity)
            b = tc.all_exposures(mapped, ties=ties, popularity=popularity)
            np.testing.assert_array_equal(b.time, [new[t] for t in a.time.tolist()])
            for column in ("user", "tag", "active_alters", "neighborhood_size", "exposure",
                           "tag_popularity_at_adoption"):
                x, y = getattr(a, column), getattr(b, column)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (ties, popularity, column)
        betas = [row[:2] for row in _threshold_rows(tc.population_thresholds(ds, ties=ties))]
        assert [row[:2] for row in
                _threshold_rows(tc.population_thresholds(mapped, ties=ties))] == betas


def _relabelled_columns(ds, table, thresholds, relabel_user, relabel_tag):
    """The exposure columns and per-user thresholds that `ds` relabelled
    should give: handles are ranks of the new labels, and records sort by
    (time, user, tag) under the new handles."""
    new_users = sorted(map(relabel_user, ds.user_labels))
    new_tags = sorted(map(relabel_tag, ds.tag_labels))
    user_of = np.array([new_users.index(relabel_user(lab)) for lab in ds.user_labels], dtype=np.int64)
    tag_of = np.array([new_tags.index(relabel_tag(lab)) for lab in ds.tag_labels], dtype=np.int64)
    user = user_of[table.user].astype(table.user.dtype)
    tag = tag_of[table.tag].astype(table.tag.dtype)
    order = np.lexsort((tag, user, table.time))
    columns = {"user": user[order], "tag": tag[order]}
    for column in ("time", "active_alters", "neighborhood_size", "exposure",
                   "tag_popularity_at_adoption"):
        columns[column] = getattr(table, column)[order]
    per_user = sorted((int(user_of[u]), *rest) for u, *rest in _threshold_rows(thresholds))
    return columns, per_user


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabelling_permutes_records_and_keeps_values(data):
    # Handles are ranks in label order, so an order-preserving relabelling of
    # users and tags leaves every column bit-identical, and any relabelling
    # permutes the records to the new handles' order, each keeping its values.
    n_users = data.draw(st.integers(1, 8))
    n_tags = data.draw(st.integers(1, 4))
    users = st.integers(0, n_users - 1).map("u{}".format)
    tags = st.integers(0, n_tags - 1).map("x{}".format)
    times = st.integers(0, 15)
    adoptions = data.draw(st.lists(st.tuples(users, tags, times), max_size=50))
    follows = data.draw(st.lists(
        st.one_of(st.tuples(users, users), st.tuples(users, users, st.none() | times)),
        max_size=40))
    user_names = data.draw(st.lists(st.text(max_size=3), min_size=n_users, max_size=n_users,
                                    unique=True))
    tag_names = data.draw(st.lists(st.text(max_size=3), min_size=n_tags, max_size=n_tags,
                                   unique=True))
    ds = tc.build_dataset(adoptions, follows)
    for preserve_order in (True, False):
        new_user = dict(zip((f"u{i}" for i in range(n_users)),
                            sorted(user_names) if preserve_order else user_names))
        new_tag = dict(zip((f"x{j}" for j in range(n_tags)),
                           sorted(tag_names) if preserve_order else tag_names))
        mapped = tc.build_dataset(
            [(new_user[u], new_tag[x], t) for u, x, t in adoptions],
            [(new_user[r[0]], new_user[r[1]], *r[2:]) for r in follows])
        for ties in ("strict", "inclusive"):
            for popularity in ("adopters", "usages"):
                a = tc.all_exposures(ds, ties=ties, popularity=popularity)
                b = tc.all_exposures(mapped, ties=ties, popularity=popularity)
                want, want_users = _relabelled_columns(
                    ds, a, tc.population_thresholds(ds, ties=ties, table=a),
                    new_user.__getitem__, new_tag.__getitem__)
                for column, x in want.items():
                    y = getattr(b, column)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (ties, popularity,
                                                                               column)
                got_users = _threshold_rows(tc.population_thresholds(mapped, ties=ties, table=b))
                if preserve_order:
                    assert got_users == want_users
                else:  # a user's tied records may now sum in another order
                    assert [(u, d, n) for u, _, d, n in got_users] == \
                        [(u, d, n) for u, _, d, n in want_users]
                    assert [beta for _, beta, *_ in got_users] == \
                        pytest.approx([beta for _, beta, *_ in want_users], rel=1e-12)
