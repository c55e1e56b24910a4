"""Temporal bipartite adoption log and directed follower graph.

Users and tags are interned to dense integer handles (0..n-1) assigned in
lexicographic label order, so the handle table is a pure function of the
input *content* and never of row order. Events are stored column-wise in
numpy arrays sorted by (time, user, tag); the follower graph is a CSR
adjacency over user handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import (
    MalformedRowError,
    UndefinedDensityError,
    UnknownIdError,
)

# Sentinel `since` for edges that are present for all t (static graph).
SINCE_ALWAYS = np.iinfo(np.int64).min

_MS_PER_UNIT = {"ms": 1, "s": 1000}


def parse_timestamp(value, unit: str = "ms") -> int:
    """Normalize a raw timestamp to integer epoch milliseconds.

    Accepts integers (interpreted per `unit`, default milliseconds),
    numeric strings, and ISO-8601 strings (naive values are taken as UTC).
    A value whose milliseconds fall outside int64 raises ValueError.
    """
    if isinstance(value, str):  # tested first: CSV readers pass strings
        text = value.strip()
        try:
            ms = int(text) * _MS_PER_UNIT[unit]
        except ValueError:
            if text.endswith(("Z", "z")):
                text = text[:-1] + "+00:00"
            try:
                dt = datetime.fromisoformat(text)
            except ValueError:
                raise ValueError(f"unparsable timestamp: {value!r}") from None
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            ms = int(round(dt.timestamp() * 1000))
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        ms = int(value) * _MS_PER_UNIT[unit]
    else:
        raise ValueError(f"not a timestamp: {value!r}")
    if not -2**63 <= ms < 2**63:
        raise ValueError(f"timestamp outside signed 64-bit milliseconds: {value!r}")
    return ms


@dataclass(frozen=True)
class FollowerGraph:
    """Directed observation graph in CSR form: `dst[indptr[u]:indptr[u+1]]`
    are the alters that ego u observes. Edge rows are sorted by (since, dst),
    so the alters present at time t form a prefix of each row.

    `since` is None for a static graph (every edge present for all t).
    """

    n: int
    indptr: np.ndarray
    dst: np.ndarray
    since: np.ndarray | None = None

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.dst.setflags(write=False)
        if self.since is not None:
            self.since.setflags(write=False)

    @property
    def n_edges(self) -> int:
        return int(self.dst.shape[0])

    def out_degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_at(self, u: int, t: int) -> np.ndarray:
        """Alters of u whose edge exists at time t (read-only array view)."""
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        if self.since is None:
            return self.dst[lo:hi]
        cut = lo + int(np.searchsorted(self.since[lo:hi], t, side="right"))
        return self.dst[lo:cut]

    def edge_list(self) -> np.ndarray:
        """(m, 2) array of (src, dst) handle pairs."""
        return np.column_stack([_csr_sources(self.indptr, self.n), self.dst])


def _csr_sources(indptr: np.ndarray, n: int) -> np.ndarray:
    return np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))


def _csr_indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets (int64, length n + 1) of the row handles `rows` in 0..n-1."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def build_follower_graph(
    edges: np.ndarray,
    n: int,
    since: np.ndarray | None = None,
) -> FollowerGraph:
    """Build a CSR FollowerGraph from an (m, 2) handle-pair array.

    Input pairs must already be deduplicated and free of self-loops.
    """
    src = edges[:, 0].astype(np.int32, copy=False)
    dst = edges[:, 1].astype(np.int32, copy=False)
    order = np.lexsort((dst, src) if since is None else (dst, since, src))
    return FollowerGraph(
        n,
        _csr_indptr(src, n),
        np.ascontiguousarray(dst[order]),
        None if since is None else np.ascontiguousarray(since[order].astype(np.int64)),
    )


@dataclass(frozen=True)
class Dataset:
    """Immutable adoption log + follower graph.

    Events are sorted by (time, user, tag); `event_first` flags the earliest
    usage of each (user, tag) pair. All arrays are read-only after build.
    """

    user_labels: tuple
    tag_labels: tuple
    event_time: np.ndarray
    event_user: np.ndarray
    event_tag: np.ndarray
    event_first: np.ndarray
    graph: FollowerGraph
    warnings: dict = field(default_factory=dict)
    _user_index: dict = field(repr=False, default_factory=dict)
    _tag_index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        for arr in (self.event_time, self.event_user, self.event_tag, self.event_first):
            arr.setflags(write=False)
        if not self._user_index:
            self._user_index.update({lab: i for i, lab in enumerate(self.user_labels)})
            self._tag_index.update({lab: i for i, lab in enumerate(self.tag_labels)})

    # -- counts -----------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.user_labels)

    @property
    def n_tags(self) -> int:
        return len(self.tag_labels)

    @property
    def n_events(self) -> int:
        return int(self.event_time.shape[0])

    @property
    def n_first_usages(self) -> int:
        return int(np.count_nonzero(self.event_first))

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def summary(self) -> dict:
        return {
            "users": self.n_users,
            "tags": self.n_tags,
            "total_usages": self.n_events,
            "first_usages": self.n_first_usages,
            "follow_edges": self.n_edges,
            "warnings": dict(self.warnings),
        }

    # -- label lookups ----------------------------------------------------

    def user_handle(self, label: str) -> int:
        try:
            return self._user_index[label]
        except KeyError:
            raise UnknownIdError(f"unknown user: {label!r}") from None

    def tag_handle(self, label: str) -> int:
        try:
            return self._tag_index[label]
        except KeyError:
            raise UnknownIdError(f"unknown tag: {label!r}") from None

    def user_label(self, handle: int) -> str:
        return self.user_labels[handle]

    def tag_label(self, handle: int) -> str:
        return self.tag_labels[handle]

    # -- export -----------------------------------------------------------

    def adoption_rows(self):
        """Events as (user_label, tag_label, time_ms) in stored order.

        Feeding these rows back through build_dataset reproduces this
        dataset exactly (handles are label-lexicographic, order canonical).
        """
        for i in range(self.n_events):
            yield (
                self.user_labels[self.event_user[i]],
                self.tag_labels[self.event_tag[i]],
                int(self.event_time[i]),
            )

    def follow_rows(self):
        """Edges as (src_label, dst_label[, since_ms]) triples."""
        edges = self.graph.edge_list()
        since = self.graph.since
        for i in range(edges.shape[0]):
            src = self.user_labels[edges[i, 0]]
            dst = self.user_labels[edges[i, 1]]
            if since is None:
                yield (src, dst)
            else:
                s = int(since[i])
                yield (src, dst, None if s == SINCE_ALWAYS else s)


def build_dataset(
    adoptions,
    follows,
    *,
    reverse_edges: bool = False,
    mutual_edges: bool = False,
    time_unit: str = "ms",
) -> Dataset:
    """Construct an immutable Dataset from raw adoption and follow rows.

    adoptions: iterable of (user, tag, time) where time is an int (per
        `time_unit`) or an ISO-8601 / numeric string.
    follows: iterable of (src, dst) or (src, dst, since); src observes dst
        unless `reverse_edges`. `mutual_edges` inserts both directions.

    Raw rows may arrive unsorted and may repeat (user, tag) usages; the
    earliest usage of each pair is flagged as the first usage. Duplicate
    follow edges are deduplicated (earliest `since` wins); self-loops are
    dropped and counted in warnings.
    """
    if time_unit not in _MS_PER_UNIT:
        raise ValueError(f"time_unit must be one of {sorted(_MS_PER_UNIT)}")

    ad_users: list = []
    ad_tags: list = []
    ad_times: list = []
    for rowno, row in enumerate(adoptions, start=1):
        try:
            user, tag, when = row[0], row[1], row[2]
        except (IndexError, TypeError):
            raise MalformedRowError(rowno, f"adoption row needs 3 fields, got {row!r}")
        try:
            t = parse_timestamp(when, unit=time_unit)
        except ValueError as exc:
            raise MalformedRowError(rowno, str(exc)) from None
        ad_users.append(str(user))
        ad_tags.append(str(tag))
        ad_times.append(t)

    follow_src: list = []
    follow_dst: list = []
    follow_since: list = []
    self_loops = 0
    has_since = False
    for rowno, row in enumerate(follows, start=1):
        if len(row) not in (2, 3):
            raise MalformedRowError(rowno, f"follow row needs 2 or 3 fields, got {row!r}")
        src, dst = str(row[0]), str(row[1])
        since = SINCE_ALWAYS
        if len(row) == 3 and row[2] not in (None, ""):
            try:
                since = parse_timestamp(row[2], unit=time_unit)
            except ValueError as exc:
                raise MalformedRowError(rowno, str(exc)) from None
            has_since = True
        if reverse_edges:
            src, dst = dst, src
        if src == dst:
            self_loops += 1
            continue
        follow_src.append(src)
        follow_dst.append(dst)
        follow_since.append(since)
    if mutual_edges:
        follow_src, follow_dst = follow_src + follow_dst, follow_dst + follow_src
        follow_since += follow_since

    # Handles: lexicographic over the union of labels seen anywhere.
    user_labels = tuple(sorted(set(ad_users).union(follow_src, follow_dst)))
    tag_labels = tuple(sorted(set(ad_tags)))
    user_index = {lab: i for i, lab in enumerate(user_labels)}
    tag_index = {lab: i for i, lab in enumerate(tag_labels)}

    n_events = len(ad_users)
    ev_user = np.fromiter(map(user_index.__getitem__, ad_users), dtype=np.int32, count=n_events)
    ev_tag = np.fromiter(map(tag_index.__getitem__, ad_tags), dtype=np.int32, count=n_events)
    ev_time = np.asarray(ad_times, dtype=np.int64)

    order = np.lexsort((ev_tag, ev_user, ev_time))
    ev_user = np.ascontiguousarray(ev_user[order])
    ev_tag = np.ascontiguousarray(ev_tag[order])
    ev_time = np.ascontiguousarray(ev_time[order])

    ev_first = np.zeros(n_events, dtype=bool)
    pair_key = ev_user.astype(np.int64) * len(tag_labels) + ev_tag
    _, first_idx = np.unique(pair_key, return_index=True)
    ev_first[first_idx] = True

    # Deduplicate edges: the first row of each (src, dst) in (src, dst, since)
    # order holds the earliest since (SINCE_ALWAYS, for none, sorts first).
    n_rows = len(follow_src)
    src = np.fromiter(map(user_index.__getitem__, follow_src), dtype=np.int32, count=n_rows)
    dst = np.fromiter(map(user_index.__getitem__, follow_dst), dtype=np.int32, count=n_rows)
    since = np.asarray(follow_since, dtype=np.int64)
    order = np.lexsort((since, dst, src))
    src, dst, since = src[order], dst[order], since[order]
    keep = np.ones(n_rows, dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    graph = build_follower_graph(
        np.column_stack((src[keep], dst[keep])),
        len(user_labels),
        since[keep] if has_since and n_rows else None,  # an empty graph is static
    )

    return Dataset(
        user_labels=user_labels,
        tag_labels=tag_labels,
        event_time=ev_time,
        event_user=ev_user,
        event_tag=ev_tag,
        event_first=ev_first,
        graph=graph,
        warnings={
            "self_loops_dropped": self_loops,
            "duplicate_edges_dropped": n_rows - graph.n_edges,
        },
        _user_index=user_index,
        _tag_index=tag_index,
    )


def neighbors_at(d: Dataset, u: int, t) -> set:
    """Out-neighbors of u whose edge exists at time t.

    With untimestamped edges this is the static out-neighborhood.
    """
    if not 0 <= u < d.n_users:
        raise UnknownIdError(f"user handle out of range: {u}")
    return set(int(v) for v in d.graph.neighbors_at(u, parse_timestamp(t)))


def _component_roots(graph: FollowerGraph) -> np.ndarray:
    """Smallest handle in each user's weakly-connected component.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J. Algorithms
    3, 1982): each round hooks both endpoint roots of every edge to the
    smaller of the two, then jumps pointers until each user points at a root.
    Pointers only ever decrease, so a root is its component's smallest handle.
    """
    src = _csr_sources(graph.indptr, graph.n)
    roots = np.arange(graph.n, dtype=np.int64)
    while True:
        a, b = roots[src], roots[graph.dst]
        low = np.minimum(a, b)
        hooked = roots.copy()
        np.minimum.at(hooked, a, low)
        np.minimum.at(hooked, b, low)
        if np.array_equal(hooked, roots):
            return roots
        roots = hooked
        jumped = roots[roots]
        while not np.array_equal(jumped, roots):
            roots, jumped = jumped, jumped[jumped]


def giant_component(d: Dataset) -> set:
    """Largest weakly-connected component of the follower graph.

    Ties are broken in favor of the component containing the smallest
    user handle. Users with no edges count as singleton components.
    """
    if d.n_users == 0:
        return set()
    roots = _component_roots(d.graph)
    # argmax takes the first largest root, which is the smallest handle.
    winner = int(np.argmax(np.bincount(roots, minlength=d.n_users)))
    return set(np.flatnonzero(roots == winner).tolist())


def directed_density(n_nodes: int, n_edges: int) -> float:
    """|edges| / (n * (n - 1)) for a directed simple graph."""
    if n_nodes < 2:
        raise UndefinedDensityError(f"density undefined for {n_nodes} user(s)")
    return n_edges / (n_nodes * (n_nodes - 1))


def density(d: Dataset, scope: str = "all") -> float:
    """Directed edge density over all users or over the giant component."""
    if scope == "all":
        return directed_density(d.n_users, d.n_edges)
    if scope == "giant_component":
        members = giant_component(d)
        mask = np.zeros(d.n_users, dtype=bool)
        mask[list(members)] = True
        edges = d.graph.edge_list()
        inside = int(np.count_nonzero(mask[edges[:, 0]] & mask[edges[:, 1]]))
        return directed_density(len(members), inside)
    raise ValueError(f"scope must be 'all' or 'giant_component', got {scope!r}")
