from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagcascade as tc
from tagcascade.errors import UndefinedCorrelationError, UnknownIdError
from tagcascade.events import Labels
from tagcascade.exposure import ExposureTable


# ---------------------------------------------------------------------------
# tag popularity
# ---------------------------------------------------------------------------

def test_tag_popularity_hand_count():
    # first usages B@1, C@2, A@4, D@5 plus one repeat by B -> (4, 5)
    ds = tc.build_dataset(
        [("B", "t", 1), ("C", "t", 2), ("A", "t", 4), ("D", "t", 5), ("B", "t", 7)],
        [],
    )
    t = ds.tag_handle("t")
    assert tc.popularity_samples(ds, "adopters")[t] == 4
    assert tc.popularity_samples(ds, "usages")[t] == 5


def test_tag_popularity_single_use():
    ds = tc.build_dataset([("A", "t", 1)], [])
    assert tc.popularity_samples(ds, "adopters").tolist() == [1]
    assert tc.popularity_samples(ds, "usages").tolist() == [1]


def test_popularity_samples_sum_to_totals():
    rng = np.random.Generator(np.random.PCG64(2))
    rows = [
        (f"u{rng.integers(20)}", f"x{rng.integers(6)}", int(rng.integers(100)))
        for _ in range(300)
    ]
    ds = tc.build_dataset(rows, [])
    assert tc.popularity_samples(ds, "usages").sum() == 300
    assert tc.popularity_samples(ds, "adopters").sum() == ds.n_first_usages


# ---------------------------------------------------------------------------
# adoption curve
# ---------------------------------------------------------------------------

def test_adoption_curve_hand_bucketing():
    # first usages at t=1,2,4,5 with |U|=4 and bucket=1
    ds = tc.build_dataset(
        [("a", "t", 1), ("b", "t", 2), ("c", "t", 4), ("d", "t", 5)],
        [],
    )
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 1)
    assert curve.cumulative_first_usages.tolist() == [1, 2, 2, 3, 4]
    assert curve.new_first_usages.tolist() == [1, 1, 0, 1, 1]
    assert curve.final_saturation == pytest.approx(1.0)


def test_adoption_curve_single_usage():
    ds = tc.build_dataset([("a", "t", 10), ("b", "other", 0)], [])
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 1000)
    assert len(curve.time) == 1
    assert curve.saturation[0] == pytest.approx(1 / ds.n_users)


def test_adoption_curve_empty_buckets_carry_cumulative():
    ds = tc.build_dataset([("a", "t", 0), ("b", "t", 5000)], [])
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 1000)
    assert len(curve.time) == 6
    assert all(n == 0 for n in curve.new_first_usages[1:-1])
    assert all(c == 1 for c in curve.cumulative_first_usages[1:-1])


def test_adoption_curve_counts_subsequent_usages():
    ds = tc.build_dataset(
        [("a", "t", 0), ("a", "t", 1), ("b", "t", 1), ("a", "t", 2)],
        [],
    )
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 1)
    assert curve.subsequent_usages.tolist() == [0, 1, 1]
    assert curve.cumulative_first_usages[-1] == 2


def test_adoption_curve_unknown_tag():
    ds = tc.build_dataset([("a", "t", 0)], [])
    with pytest.raises(UnknownIdError):
        tc.adoption_curve(ds, 5, 1000)


def test_adoption_curve_cumulative_nondecreasing_random():
    rng = np.random.Generator(np.random.PCG64(8))
    rows = [
        (f"u{rng.integers(30)}", "t", int(rng.integers(0, 10_000)))
        for _ in range(200)
    ]
    ds = tc.build_dataset(rows, [])
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 700)
    cums = curve.cumulative_first_usages.tolist()
    assert cums == sorted(cums)
    assert cums[-1] == ds.n_first_usages


# ---------------------------------------------------------------------------
# popularity / exposure correlation
# ---------------------------------------------------------------------------

# dtypes of the ExposureTable columns, in constructor order
_COLUMN_DTYPES = (np.int32, np.int32, np.int64, np.int32, np.int32, np.float64, np.int64)


def _records(pairs, undefined=()):
    """An ExposureTable with one defined record (one active alter of two)
    per (popularity, exposure) pair, then one undefined record (no alters,
    exposure NaN) per popularity in `undefined`."""
    rows = [(i, 0, i, 1, 2, e, p) for i, (p, e) in enumerate(pairs)]
    rows += [(9 + j, 0, 9 + j, 0, 0, float("nan"), p) for j, p in enumerate(undefined)]
    return ExposureTable(*(np.array(c, dtype=t) for c, t in zip(zip(*rows), _COLUMN_DTYPES)))


def test_correlation_monotone_is_one():
    report = tc.popularity_threshold_correlation(_records([(1, 0.1), (2, 0.2), (3, 0.3)]), bins=2)
    assert report.rho == pytest.approx(1.0)


def test_correlation_antimonotone_is_minus_one():
    report = tc.popularity_threshold_correlation(_records([(1, 0.3), (2, 0.2), (3, 0.1)]), bins=2)
    assert report.rho == pytest.approx(-1.0)


def test_correlation_hand_rank_value():
    pairs = [(1, 0.2), (2, 0.1), (3, 0.3), (4, 0.4)]
    report = tc.popularity_threshold_correlation(_records(pairs), bins=2)
    assert report.rho == pytest.approx(0.8)
    assert report.n_pairs == 4
    assert sum(report.count) == 4


def test_correlation_identical_popularity_errors():
    with pytest.raises(UndefinedCorrelationError):
        tc.popularity_threshold_correlation(_records([(2, 0.1), (2, 0.2), (2, 0.3)]))


def test_correlation_needs_three_defined():
    with pytest.raises(UndefinedCorrelationError):
        tc.popularity_threshold_correlation(_records([(1, 0.1), (2, 0.2)]))


def test_correlation_needs_a_bin():
    pairs = [(1, 0.1), (2, 0.2), (3, 0.3)]
    for bins in (0, -1):
        with pytest.raises(ValueError, match="bins"):
            tc.popularity_threshold_correlation(_records(pairs), bins=bins)


def test_correlation_pearson_flag():
    pairs = [(1, 0.1), (2, 0.2), (3, 0.4), (10, 0.5)]
    spearman = tc.popularity_threshold_correlation(_records(pairs), method="spearman")
    pearson = tc.popularity_threshold_correlation(_records(pairs), method="pearson")
    assert spearman.rho == pytest.approx(1.0)
    assert pearson.rho < 1.0


def test_correlation_bins_partition_counts():
    rng = np.random.Generator(np.random.PCG64(6))
    pairs = [(int(p), float(e)) for p, e in zip(rng.integers(0, 500, 200), rng.random(200))]
    report = tc.popularity_threshold_correlation(_records(pairs), bins=8)
    assert sum(report.count) == report.n_pairs == 200
    assert len(report.count) == 8


def test_correlation_skips_undefined_records():
    recs = _records([(1, 0.1), (2, 0.2), (3, 0.3)], undefined=[50])
    assert recs.n_undefined == 1
    report = tc.popularity_threshold_correlation(recs)
    assert report.n_pairs == 3
    assert report.rho == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 50), st.floats(0, 1, allow_nan=False)),
        min_size=4,
        max_size=40,
    )
)
def test_spearman_invariant_under_monotone_transform(pairs):
    pops = [p for p, _ in pairs]
    expos = [e for _, e in pairs]
    if len(set(pops)) < 2 or len(set(expos)) < 2:
        return
    base = tc.popularity_threshold_correlation(_records(pairs), bins=3)
    squashed = [(p * p * 3 + 1, e) for p, e in pairs]  # strictly increasing on ints >= 0
    transformed = tc.popularity_threshold_correlation(_records(squashed), bins=3)
    assert transformed.rho == pytest.approx(base.rho, abs=1e-12)


def _one_tag():
    return tc.build_dataset([("a", "x", 1), ("b", "x", 2)], [])


@pytest.mark.parametrize("call,error,message", [
    (lambda: tc.popularity_samples(_one_tag(), "views"), ValueError,
     "kind must be 'adopters' or 'usages', got 'views'"),
    (lambda: tc.adoption_curve(_one_tag(), 0, 0), ValueError,
     "bucket must be a positive duration"),
    # a tag handle in range whose tag has no event
    (lambda: tc.adoption_curve(dataclasses.replace(_one_tag(), tag_table=Labels.from_text(
        ("x", "y"), "tag")), 1, 10),
     UnknownIdError, "tag 'y' has no events"),
    (lambda: tc.popularity_threshold_correlation(_records([(1, 0.2), (2, 0.2), (3, 0.2)])),
     UndefinedCorrelationError, "all exposure values identical"),
    (lambda: tc.popularity_threshold_correlation(_records([(1, 0.1), (2, 0.2), (3, 0.3)]),
                                                 method="kendall"),
     ValueError, "method must be 'spearman' or 'pearson', got 'kendall'"),
], ids=["popularity-kind", "zero-bucket", "tag-without-events", "constant-exposure", "method"])
def test_stats_error_table(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_spearman_rho_undefined_is_none():
    from tagcascade.stats import spearman_rho

    assert spearman_rho([1.0, 2.0], [0.1, 0.2]) is None  # fewer than 3 pairs
    assert spearman_rho([3.0, 3.0, 3.0], [0.1, 0.2, 0.3]) is None
    assert spearman_rho([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]) is None
    assert spearman_rho(np.empty(0), np.empty(0)) is None
    assert spearman_rho([1.0, 2.0, 3.0], [0.1, 0.3, 0.2]) == pytest.approx(0.5)


def test_average_ranks_equal_scipy_rankdata():
    from scipy.stats import rankdata

    from tagcascade.stats import _average_ranks, spearman_rho

    rng = np.random.Generator(np.random.PCG64(8))
    for i in range(600):
        size = int(rng.integers(1, 300))
        if i % 3 == 0:  # tie-heavy integers
            x = rng.integers(0, int(rng.integers(1, 12)), size)
        elif i % 3 == 1:  # tie-heavy fractions
            x = rng.integers(0, 30, size) / 7.0
        else:
            x = rng.normal(size=size)
        assert np.array_equal(_average_ranks(x), rankdata(x)), i
        y = rng.integers(0, 5, size) / 4.0
        rho = spearman_rho(x, y)
        if rho is not None:
            assert rho == float(np.corrcoef(rankdata(x), rankdata(y))[0, 1]), i
