"""The result builders against their per-row references: per-user
thresholds, adoption curves and correlation bins must equal the rows that
tests/oracles.py builds one at a time, cell by cell under repr, so the TSV
cells written from them are the same text."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tagcascade as tc
from tagcascade.errors import UndefinedCorrelationError
from tagcascade.exposure import ExposureTable

from oracles import adoption_curve_reference, correlation_bins_reference, user_thresholds_reference

THRESHOLD_COLUMNS = ("user", "beta", "defined_adoptions", "undefined_adoptions")
CURVE_COLUMNS = ("time", "new_first_usages", "cumulative_first_usages", "subsequent_usages",
                 "saturation")
BIN_COLUMNS = ("lo", "hi", "mean_exposure", "count")


def _columns(result, names) -> list:
    """One list of cell reprs per column of `result`; numpy cells are taken
    as the Python values write_tsv formats."""
    columns = (getattr(result, name) for name in names)
    return [list(map(repr, c.tolist() if isinstance(c, np.ndarray) else c)) for c in columns]


def _reference_columns(rows, width) -> list:
    return [[repr(row[k]) for row in rows] for k in range(width)]


@st.composite
def _logs(draw):
    """A small log whose times lie in a 1000 ms window anywhere in int64,
    so any bucket gives at most 1001 buckets."""
    users = st.integers(0, 5).map("u{}".format)
    base = draw(st.integers(-2**63, 2**63 - 1001))
    times = st.integers(0, 1000).map(lambda t: base + t)
    adoptions = draw(st.lists(st.tuples(users, st.sampled_from(["x", "y", "z"]), times),
                              min_size=1, max_size=40))
    follows = draw(st.lists(st.tuples(users, users), max_size=30))
    return adoptions, [(a, b) for a, b in follows if a != b]


@settings(max_examples=80, deadline=None)
@given(log=_logs(), bucket_ms=st.integers(1, 2**63 - 1) | st.integers(1, 300),
       bins=st.integers(1, 12))
@example(log=([("u0", "x", -2**63), ("u1", "x", -2**63 + 5), ("u1", "y", 0)], []),
         bucket_ms=2**62 + 1, bins=3)
def test_result_columns_equal_row_references(log, bucket_ms, bins):
    ds = tc.build_dataset(*log)
    for ties in ("strict", "inclusive"):
        table = tc.all_exposures(ds, ties=ties)
        assert _columns(tc.population_thresholds(ds, ties=ties, table=table),
                        THRESHOLD_COLUMNS) == _reference_columns(
            user_thresholds_reference(table, ds.n_users), len(THRESHOLD_COLUMNS))
        try:
            report = tc.popularity_threshold_correlation(table, bins=bins)
        except UndefinedCorrelationError:
            continue
        assert _columns(report, BIN_COLUMNS) == _reference_columns(
            correlation_bins_reference(table, bins), len(BIN_COLUMNS))
    for x in range(ds.n_tags):
        curve = tc.adoption_curve(ds, x, bucket_ms)
        assert _columns(curve, CURVE_COLUMNS) == _reference_columns(
            adoption_curve_reference(ds, x, bucket_ms), len(CURVE_COLUMNS))


# Active alters over neighbourhood size, as all_exposures divides them.
_EXPOSURES = st.tuples(st.integers(0, 60), st.integers(1, 60)).map(lambda t: min(t) / t[1])


@settings(max_examples=80, deadline=None)
@given(records=st.lists(st.tuples(st.integers(0, 10**6), _EXPOSURES | st.none()),
                        min_size=3, max_size=200),
       bins=st.integers(1, 12))
@example(records=list(enumerate([1.0, 0.0, 1.0, 1.0, 1 / 6, 1.0, 1.0, 1.0, 0.0, 0.6, 1.0])),
         bins=1)
def test_correlation_bins_equal_row_reference(records, bins):
    # One record per (popularity, exposure); a None exposure is an undefined
    # record (no alters), which the bins leave out. A bin's mean must sum as
    # numpy's mean() does: a running sum rounds differently past 8 values.
    n = len(records)
    defined = np.array([e is not None for _, e in records])
    table = ExposureTable(
        np.arange(n, dtype=np.int32), np.zeros(n, dtype=np.int32), np.arange(n, dtype=np.int64),
        defined.astype(np.int32), 2 * defined.astype(np.int32),
        np.array([np.nan if e is None else e for _, e in records]),
        np.array([p for p, _ in records], dtype=np.int64))
    try:
        report = tc.popularity_threshold_correlation(table, bins=bins)
    except UndefinedCorrelationError:
        return
    assert _columns(report, BIN_COLUMNS) == _reference_columns(
        correlation_bins_reference(table, bins), len(BIN_COLUMNS))


def test_curve_time_is_exact_below_int64():
    ds = tc.build_dataset([("u0", "x", -2**63)], [])
    curve = tc.adoption_curve(ds, 0, 2**62 + 1)
    assert [row[0] for row in adoption_curve_reference(ds, 0, 2**62 + 1)] == [-2**63 - 2]
    assert _columns(curve, ("time",)) == [[repr(-2**63 - 2)]]
