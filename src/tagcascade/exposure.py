"""Per-adoption network exposure and per-user mean adoption thresholds.

For each first usage of tag x by ego u at time t, exposure is the fraction
of u's alters (out-neighbors at t) whose own first usage of x happened
strictly before t. A user's threshold is the mean exposure over their first
usages, restricted to records where the ego had at least one alter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoAdoptionError, UndefinedThresholdError, UnknownIdError
from .events import Dataset, _csr_sources

TIE_RULES = ("strict", "inclusive")
POPULARITY_MODES = ("adopters", "usages")
# Alters expanded per pass of the active-alter join in `_measure`.
_BLOCK = 1 << 17


@dataclass(frozen=True)
class ExposureRecord:
    """Exposure measured at one first usage.

    `exposure` is NaN when the ego observed nobody at adoption time
    (neighborhood_size == 0); such records are "undefined" and excluded
    from threshold means.
    """

    user: int
    tag: int
    time: int
    active_alters: int
    neighborhood_size: int
    exposure: float
    tag_popularity_at_adoption: int

    @property
    def defined(self) -> bool:
        return self.neighborhood_size > 0


@dataclass(frozen=True)
class UserThreshold:
    """One user's row of a ThresholdTable (the return of user_threshold)."""

    user: int
    beta: float
    defined_adoptions: int
    undefined_adoptions: int


@dataclass(frozen=True, eq=False)
class ThresholdTable:
    """Per-user mean exposures as columns, one row per user with at least
    one defined record, in user-handle order."""

    user: np.ndarray
    beta: np.ndarray
    defined_adoptions: np.ndarray
    undefined_adoptions: np.ndarray

    def __len__(self) -> int:
        return int(self.user.shape[0])


class ExposureTable:
    """Column-oriented sequence of ExposureRecord, one per first usage,
    in (time, user, tag) order. Columns are read-only numpy arrays."""

    def __init__(self, user, tag, time, active_alters, neighborhood_size, exposure, popularity):
        self.user = user
        self.tag = tag
        self.time = time
        self.active_alters = active_alters
        self.neighborhood_size = neighborhood_size
        self.exposure = exposure
        self.tag_popularity_at_adoption = popularity
        for arr in (user, tag, time, active_alters, neighborhood_size, exposure, popularity):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.user.shape[0])

    def __getitem__(self, i: int) -> ExposureRecord:
        return ExposureRecord(
            user=int(self.user[i]),
            tag=int(self.tag[i]),
            time=int(self.time[i]),
            active_alters=int(self.active_alters[i]),
            neighborhood_size=int(self.neighborhood_size[i]),
            exposure=float(self.exposure[i]),
            tag_popularity_at_adoption=int(self.tag_popularity_at_adoption[i]),
        )

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    @property
    def defined_mask(self) -> np.ndarray:
        return self.neighborhood_size > 0

    @property
    def n_defined(self) -> int:
        return int(np.count_nonzero(self.defined_mask))

    @property
    def n_undefined(self) -> int:
        return len(self) - self.n_defined


def _check_rules(ties: str, popularity: str) -> None:
    if ties not in TIE_RULES:
        raise ValueError(f"ties must be one of {TIE_RULES}")
    if popularity not in POPULARITY_MODES:
        raise ValueError(f"popularity must be one of {POPULARITY_MODES}")


def _measure(d: Dataset, fidx: np.ndarray, ties: str, popularity: str) -> ExposureTable:
    """Exposure records for the first usages at event indices `fidx`, in
    record order. `fidx` must hold every first usage of each tag it touches:
    the other adopters' times are what make an alter active. This is the one
    place that applies the tie rule and counts popularity at adoption."""
    k = fidx.shape[0]
    f_user = d.event_user[fidx].astype(np.int32, copy=False)
    f_tag = d.event_tag[fidx].astype(np.int32, copy=False)
    f_time = d.event_time[fidx].astype(np.int64, copy=False)
    graph = d.graph

    # Events are time-sorted, so an event time's or a `since`'s position in
    # event_time keeps every <, <= and == between them, and fits in
    # [0, n_events]: (row, time) and (tag, time) pack into one int64 key.
    span = d.n_events + 1
    f_rank = np.searchsorted(d.event_time, f_time, "left")
    f_tag_key = f_tag.astype(np.int64) * span

    # Distinct adopters (or total usages) of the tag strictly before each
    # adoption: the keys of the tag that sort before the record's own.
    if popularity == "adopters":
        pop_keys = np.sort(f_tag_key + f_rank)
    else:
        ev_rank = np.searchsorted(d.event_time, d.event_time, "left")
        pop_keys = np.sort(d.event_tag.astype(np.int64) * span + ev_rank)
    out_pop = (np.searchsorted(pop_keys, f_tag_key + f_rank, "left")
               - np.searchsorted(pop_keys, f_tag_key, "left"))

    # Alters present at adoption: a prefix of the ego's row, whose edges are
    # sorted by `since`.
    row_lo = graph.indptr[f_user]
    if graph.since is None:
        nbh = graph.indptr[f_user + 1] - row_lo
    else:
        edge_keys = (_csr_sources(graph.indptr, graph.n).astype(np.int64) * span
                     + np.searchsorted(d.event_time, graph.since, "left"))
        nbh = np.searchsorted(edge_keys, f_user.astype(np.int64) * span + f_rank, "right") - row_lo

    # Active alters: look up each present alter's first usage of the ego's
    # tag among the records, compare under the tie rule and count by record.
    # The alters of all records are scanned as one flat sequence, _BLOCK at
    # a time, so memory stays bounded whatever the neighbourhood sizes.
    use_key = f_user.astype(np.int64) * d.n_tags + f_tag
    by_key = np.argsort(use_key)
    use_key = use_key[by_key]
    use_time = f_time[by_key]
    earlier = np.less if ties == "strict" else np.less_equal
    flat_end = np.cumsum(nbh)
    flat_to_edge = row_lo + nbh - flat_end
    out_active = np.zeros(k, dtype=np.int64)
    total = int(flat_end[-1]) if k else 0
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        first = int(np.searchsorted(flat_end, lo, "right"))
        last = int(np.searchsorted(flat_end, hi - 1, "right")) + 1
        ends = flat_end[first:last]
        starts = ends - nbh[first:last]
        rec = np.repeat(np.arange(first, last), np.minimum(ends, hi) - np.maximum(starts, lo))
        alter = graph.dst[flat_to_edge[rec] + np.arange(lo, hi)]
        q = alter.astype(np.int64) * d.n_tags + f_tag[rec]
        at = np.minimum(np.searchsorted(use_key, q), k - 1)
        hit = (use_key[at] == q) & earlier(use_time[at], f_time[rec])
        out_active += np.bincount(rec[hit], minlength=k)

    out_nbh = nbh.astype(np.int32)
    out_expo = np.divide(out_active, out_nbh, out=np.full(k, np.nan), where=out_nbh > 0)
    return ExposureTable(f_user, f_tag, f_time, out_active.astype(np.int32), out_nbh,
                         out_expo, out_pop.astype(np.int64, copy=False))


def all_exposures(
    d: Dataset,
    *,
    ties: str = "strict",
    popularity: str = "adopters",
) -> ExposureTable:
    """Exposure records for every first usage in the dataset.

    ties: 'strict' counts alters whose first usage is strictly before the
        ego's (default); 'inclusive' also counts same-timestamp co-adopters.
    popularity: 'adopters' counts distinct users with a strictly earlier
        first usage of the tag; 'usages' counts all strictly earlier usages.
    """
    _check_rules(ties, popularity)
    return _measure(d, np.flatnonzero(d.event_first), ties, popularity)


def exposure_at_adoption(
    d: Dataset,
    u: int,
    x: int,
    *,
    ties: str = "strict",
    popularity: str = "adopters",
) -> ExposureRecord:
    """Exposure record for one (user, tag) first usage: the user's row of
    the tag's measurement, so it costs as much as measuring all of tag x.
    Nothing in the package calls it; the commands use all_exposures.
    """
    _check_rules(ties, popularity)
    if not 0 <= u < d.n_users:
        raise UnknownIdError(f"user handle out of range: {u}")
    if not 0 <= x < d.n_tags:
        raise UnknownIdError(f"tag handle out of range: {x}")
    table = _measure(d, np.flatnonzero(d.event_first & (d.event_tag == x)), ties, popularity)
    mine = np.flatnonzero(table.user == u)
    if mine.shape[0] == 0:
        raise NoAdoptionError(f"user {d.user_label(u)!r} never adopted tag {d.tag_label(x)!r}")
    return table[int(mine[0])]


def user_threshold(d: Dataset, u: int, *, ties: str = "strict") -> UserThreshold:
    """Mean exposure over the user's defined first usages.

    Raises UndefinedThresholdError when every adoption is undefined (the
    user observed nobody at any adoption time); such users are excluded
    from population statistics.
    """
    _check_rules(ties, "adopters")
    if not 0 <= u < d.n_users:
        raise UnknownIdError(f"user handle out of range: {u}")
    tags = d.event_tag[d.event_first & (d.event_user == u)]
    if tags.shape[0] == 0:
        raise NoAdoptionError(f"user {d.user_label(u)!r} has no adoptions")
    fidx = np.flatnonzero(d.event_first & np.isin(d.event_tag, tags))
    table = _measure(d, fidx, ties, "adopters")
    t = user_thresholds_from_table(table, d.n_users)
    mine = np.flatnonzero(t.user == u)
    if mine.shape[0] == 0:
        raise UndefinedThresholdError(
            f"user {d.user_label(u)!r} has no adoption with a defined exposure"
        )
    i = int(mine[0])
    return UserThreshold(user=int(u), beta=float(t.beta[i]),
                         defined_adoptions=int(t.defined_adoptions[i]),
                         undefined_adoptions=int(t.undefined_adoptions[i]))


def user_thresholds_from_table(table: ExposureTable, n_users: int) -> ThresholdTable:
    """Per-user mean exposures aggregated from a record table.

    One row per user with at least one defined record, ordered by user
    handle. Accumulation runs in record (time) order, so a user's beta is
    bit-identical whichever other records share the table.
    """
    defined = table.defined_mask
    users_def = table.user[defined]
    sums = np.bincount(users_def, weights=table.exposure[defined], minlength=n_users)
    counts = np.bincount(users_def, minlength=n_users)
    undef_counts = np.bincount(table.user[~defined], minlength=n_users)
    users = np.flatnonzero(counts)
    return ThresholdTable(user=users, beta=sums[users] / counts[users],
                          defined_adoptions=counts[users], undefined_adoptions=undef_counts[users])


def population_thresholds(
    d: Dataset,
    *,
    ties: str = "strict",
    table: ExposureTable | None = None,
) -> ThresholdTable:
    """Thresholds for every user with at least one defined adoption."""
    if table is None:
        table = all_exposures(d, ties=ties)
    return user_thresholds_from_table(table, d.n_users)


def _quartile_stats(values: np.ndarray) -> dict:
    if values.shape[0] == 0:
        return {"count": 0, "median": None, "q1": None, "q3": None, "mean": None}
    return {
        "count": int(values.shape[0]),
        "median": float(np.median(values)),
        "q1": float(np.percentile(values, 25)),
        "q3": float(np.percentile(values, 75)),
        "mean": float(values.mean()),
    }


def threshold_summary(table: ExposureTable, thresholds: ThresholdTable) -> dict:
    """Population summary over both views: per-adoption raw exposures and
    per-user mean thresholds (the distinction the source data conflates)."""
    exposures = table.exposure[table.defined_mask]
    return {
        "records_total": len(table),
        "records_defined": table.n_defined,
        "records_undefined": table.n_undefined,
        "users_with_threshold": len(thresholds),
        "per_adoption": _quartile_stats(exposures),
        "per_user": _quartile_stats(thresholds.beta),
    }
