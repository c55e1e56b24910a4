from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagcascade as tc
from tagcascade.errors import (
    DegenerateSampleError,
    UndefinedCorrelationError,
    UnknownIdError,
)
from tagcascade.exposure import ExposureRecord


# ---------------------------------------------------------------------------
# tag popularity
# ---------------------------------------------------------------------------

def test_tag_popularity_hand_count():
    # first usages B@1, C@2, A@4, D@5 plus one repeat by B -> (4, 5)
    ds = tc.build_dataset(
        [("B", "t", 1), ("C", "t", 2), ("A", "t", 4), ("D", "t", 5), ("B", "t", 7)],
        [],
    )
    pop = tc.tag_popularity(ds)
    assert pop[ds.tag_handle("t")] == (4, 5)


def test_tag_popularity_single_use():
    ds = tc.build_dataset([("A", "t", 1)], [])
    assert tc.tag_popularity(ds)[0] == (1, 1)


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
    assert [p.cumulative_first_usages for p in curve.points] == [1, 2, 2, 3, 4]
    assert [p.new_first_usages for p in curve.points] == [1, 1, 0, 1, 1]
    assert curve.final_saturation == pytest.approx(1.0)


def test_adoption_curve_single_usage():
    ds = tc.build_dataset([("a", "t", 10), ("b", "other", 0)], [])
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 1000)
    assert len(curve.points) == 1
    assert curve.points[0].saturation == pytest.approx(1 / ds.n_users)


def test_adoption_curve_empty_buckets_carry_cumulative():
    ds = tc.build_dataset([("a", "t", 0), ("b", "t", 5000)], [])
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 1000)
    assert len(curve.points) == 6
    mids = curve.points[1:-1]
    assert all(p.new_first_usages == 0 for p in mids)
    assert all(p.cumulative_first_usages == 1 for p in mids)


def test_adoption_curve_counts_subsequent_usages():
    ds = tc.build_dataset(
        [("a", "t", 0), ("a", "t", 1), ("b", "t", 1), ("a", "t", 2)],
        [],
    )
    curve = tc.adoption_curve(ds, ds.tag_handle("t"), 1)
    assert [p.subsequent_usages for p in curve.points] == [0, 1, 1]
    assert curve.points[-1].cumulative_first_usages == 2


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
    cums = [p.cumulative_first_usages for p in curve.points]
    assert cums == sorted(cums)
    assert cums[-1] == ds.n_first_usages


# ---------------------------------------------------------------------------
# smoothed distribution
# ---------------------------------------------------------------------------

def test_kde_integrates_to_one():
    rng = np.random.Generator(np.random.PCG64(4))
    curve = tc.smooth_distribution(rng.random(500))
    assert curve.mass() == pytest.approx(1.0, abs=1e-3)
    assert curve.grid.shape == (512,)


def test_kde_uniform_sample_is_flat():
    rng = np.random.Generator(np.random.PCG64(12))
    curve = tc.smooth_distribution(rng.random(10_000))
    inner = (curve.grid >= 0.1) & (curve.grid <= 0.9)
    assert np.abs(curve.density[inner] - 1.0).max() < 0.1


def test_kde_degenerate_sample_errors_without_bandwidth():
    with pytest.raises(DegenerateSampleError):
        tc.smooth_distribution([0.4] * 50)


def test_kde_forced_bandwidth_gives_peak_at_value():
    curve = tc.smooth_distribution([0.4] * 50, bandwidth=0.01)
    assert curve.grid[np.argmax(curve.density)] == pytest.approx(0.4, abs=0.01)
    assert curve.mass() == pytest.approx(1.0, abs=1e-3)


def test_kde_needs_two_values():
    with pytest.raises(DegenerateSampleError):
        tc.smooth_distribution([0.5])


def test_kde_mass_invariant_any_bandwidth():
    rng = np.random.Generator(np.random.PCG64(3))
    vals = rng.random(200)
    for bw in (0.001, 0.05, 0.4, 2.0):
        assert tc.smooth_distribution(vals, bandwidth=bw).mass() == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# popularity / exposure correlation
# ---------------------------------------------------------------------------

def _records(pairs):
    return [
        ExposureRecord(
            user=i, tag=0, time=i, active_alters=1, neighborhood_size=2,
            exposure=e, tag_popularity_at_adoption=p,
        )
        for i, (p, e) in enumerate(pairs)
    ]


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
    assert sum(b.count for b in report.bins) == 4


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
    assert sum(b.count for b in report.bins) == report.n_pairs == 200
    assert len(report.bins) == 8


def test_correlation_skips_undefined_records():
    recs = _records([(1, 0.1), (2, 0.2), (3, 0.3)])
    recs.append(
        ExposureRecord(user=9, tag=0, time=9, active_alters=0, neighborhood_size=0,
                       exposure=float("nan"), tag_popularity_at_adoption=50)
    )
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
