"""Temporal bipartite adoption log and directed follower graph.

Users and tags are interned to dense integer handles (0..n-1) assigned in
lexicographic label order, so the handle table is a pure function of the
input *content* and never of row order. Events are stored column-wise in
numpy arrays sorted by (time, user, tag); the follower graph is a CSR
adjacency over user handles.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    MalformedRowError,
    UndefinedDensityError,
    UnknownIdError,
)

if TYPE_CHECKING:
    from .snapshot import PackedLabels

# Sentinel `since` for edges that are present for all t (static graph).
SINCE_ALWAYS = np.iinfo(np.int64).min

_MS_PER_UNIT = {"ms": 1, "s": 1000}


def parse_timestamp(value, unit: str = "ms") -> int:
    """Normalize a raw timestamp to integer epoch milliseconds.

    Accepts integers (interpreted per `unit`, default milliseconds),
    numeric strings, and ISO-8601 strings (naive values are taken as UTC).
    A numeric string is ASCII digits with an optional sign and surrounding
    whitespace: text with '_' or any non-ASCII character is refused, so
    neither '1_000' nor full-width or Arabic-Indic digits parse.
    A value whose milliseconds fall outside int64 raises ValueError.
    """
    if isinstance(value, str):  # tested first: CSV readers pass strings
        if "_" in value or not value.isascii():
            raise ValueError(f"unparsable timestamp: {value!r}")
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
    """Build a CSR FollowerGraph from an (m, 2) array of (src, dst) handle
    pairs, which must hold no self-loop. A pair given more than once is kept
    once, with its earliest `since`.
    """
    pair = edges[:, 0].astype(np.int64) * n + edges[:, 1]
    order = np.argsort(pair)
    pair = pair[order]
    first = np.ones(pair.shape[0], dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    src, dst = np.divmod(pair[first], n)
    if since is None:
        return FollowerGraph(n, _csr_indptr(src, n), dst.astype(np.int32), None)
    since = np.minimum.reduceat(np.asarray(since, dtype=np.int64)[order], np.flatnonzero(first))
    # Edges are in (src, dst) order and lexsort is stable: rows end up
    # sorted by (since, dst).
    order = np.lexsort((since, src))
    return FollowerGraph(n, _csr_indptr(src, n), dst[order].astype(np.int32), since[order])


@dataclass(frozen=True)
class Dataset:
    """Immutable adoption log + follower graph.

    Events are sorted by (time, user, tag); `event_first` flags the earliest
    usage of each (user, tag) pair. All arrays are read-only after build.

    `user_table` and `tag_table` hold the labels in handle order, either as a
    tuple or, from a snapshot, as a `snapshot.PackedLabels` that `decode`s to
    one. `user_labels`/`tag_labels` are those tuples, made on first access,
    and the label -> handle dicts are built on the first `user_handle`/
    `tag_handle` call, so a command that prints no label decodes none.
    """

    user_table: tuple | PackedLabels
    tag_table: tuple | PackedLabels
    event_time: np.ndarray
    event_user: np.ndarray
    event_tag: np.ndarray
    event_first: np.ndarray
    graph: FollowerGraph
    warnings: dict = field(default_factory=dict)
    _user_index: dict | None = field(repr=False, default=None)
    _tag_index: dict | None = field(repr=False, default=None)

    def __post_init__(self):
        for arr in (self.event_time, self.event_user, self.event_tag, self.event_first):
            arr.setflags(write=False)

    @cached_property
    def user_labels(self) -> tuple:
        table = self.user_table
        return table if isinstance(table, tuple) else table.decode("user")

    @cached_property
    def tag_labels(self) -> tuple:
        table = self.tag_table
        return table if isinstance(table, tuple) else table.decode("tag")

    # -- counts -----------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.user_table)

    @property
    def n_tags(self) -> int:
        return len(self.tag_table)

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

    def _handle(self, kind: str, label: str) -> int:
        slot = f"_{kind}_index"
        index = getattr(self, slot)
        if index is None:
            labels = getattr(self, f"{kind}_labels")
            index = {lab: i for i, lab in enumerate(labels)}
            object.__setattr__(self, slot, index)
        try:
            return index[label]
        except KeyError:
            raise UnknownIdError(f"unknown {kind}: {label!r}") from None

    def user_handle(self, label: str) -> int:
        return self._handle("user", label)

    def tag_handle(self, label: str) -> int:
        return self._handle("tag", label)

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
        return zip(map(self.user_labels.__getitem__, self.event_user.tolist()),
                   map(self.tag_labels.__getitem__, self.event_tag.tolist()),
                   self.event_time.tolist())

    def follow_rows(self):
        """Edges as (src_label, dst_label[, since_ms]) triples."""
        g = self.graph
        src = map(self.user_labels.__getitem__, _csr_sources(g.indptr, g.n).tolist())
        dst = map(self.user_labels.__getitem__, g.dst.tolist())
        if g.since is None:
            return zip(src, dst)
        return zip(src, dst, [None if s == SINCE_ALWAYS else s for s in g.since.tolist()])


@dataclass(frozen=True)
class LogColumns:
    """The rows of a parsed log held as columns, as `textio.read_adoptions`
    and `textio.read_follows` return them. `first` and `second` are the two
    labels of each row, `times` its time in epoch milliseconds (None for an
    empty follows `since`), or None for a log of two-field rows. `len()` is
    the row count; iterating yields the row tuples."""

    first: list
    second: list
    times: list | None

    def __len__(self) -> int:
        return len(self.first)

    def __iter__(self):
        if self.times is None:
            return zip(self.first, self.second)
        return zip(self.first, self.second, self.times)


def build_dataset(
    adoptions,
    follows,
    *,
    reverse_edges: bool = False,
    mutual_edges: bool = False,
) -> Dataset:
    """Construct an immutable Dataset from adoption and follow rows.

    adoptions: iterable of (user, tag, time) where time is an int in
        milliseconds or an ISO-8601 / numeric string.
    follows: iterable of (src, dst) or (src, dst, since); src observes dst
        unless `reverse_edges`. `mutual_edges` inserts both directions. A
        `since` that is None, empty or SINCE_ALWAYS means "always"; the
        graph is timed when any row has another `since`.
    Either may instead be the LogColumns a reader returned, whose rows the
    reader has already checked and whose times are already milliseconds.

    Raw rows may arrive unsorted and may repeat (user, tag) usages; the
    earliest usage of each pair is flagged as the first usage. Duplicate
    follow edges are deduplicated (earliest `since` wins); self-loops are
    dropped and counted in warnings.
    """
    if not isinstance(adoptions, LogColumns):
        users: list = []
        tags: list = []
        times: list = []
        for rowno, row in enumerate(adoptions, start=1):
            try:
                user, tag, when = row[0], row[1], row[2]
            except (IndexError, TypeError):
                raise MalformedRowError(rowno, f"adoption row needs 3 fields, got {row!r}")
            try:
                times.append(parse_timestamp(when))
            except ValueError as exc:
                raise MalformedRowError(rowno, str(exc)) from None
            users.append(str(user))
            tags.append(str(tag))
        adoptions = LogColumns(users, tags, times)

    if not isinstance(follows, LogColumns):
        srcs: list = []
        dsts: list = []
        sinces: list = []
        for rowno, row in enumerate(follows, start=1):
            if len(row) not in (2, 3):
                raise MalformedRowError(rowno, f"follow row needs 2 or 3 fields, got {row!r}")
            since = None
            if len(row) == 3 and row[2] not in (None, ""):
                try:
                    since = parse_timestamp(row[2])
                except ValueError as exc:
                    raise MalformedRowError(rowno, str(exc)) from None
            srcs.append(str(row[0]))
            dsts.append(str(row[1]))
            sinces.append(since)
        follows = LogColumns(srcs, dsts, sinces)

    return _dataset_from_columns(adoptions, follows, reverse_edges, mutual_edges)


def _handles(index: dict, labels: list) -> np.ndarray:
    return np.fromiter(map(index.__getitem__, labels), dtype=np.int32, count=len(labels))


def _dataset_from_columns(adoptions: LogColumns, follows: LogColumns,
                          reverse_edges: bool, mutual_edges: bool) -> Dataset:
    """The Dataset of checked adoption and follow columns: labels interned,
    events sorted and first usages flagged, self-loops dropped and the
    follower graph built."""
    src, dst, since = follows.first, follows.second, follows.times
    if reverse_edges:
        src, dst = dst, src
    if since is not None:
        since = np.array([SINCE_ALWAYS if s is None else s for s in since], dtype=np.int64)
        # A graph is timed when any row, a self-loop included, has a since
        # other than SINCE_ALWAYS ("always", as None is).
        if (since == SINCE_ALWAYS).all():
            since = None
    # Self-loops go before interning: a user seen only in one gets no handle.
    keep = list(map(operator.ne, src, dst))
    self_loops = keep.count(False)
    if self_loops:
        src, dst = list(compress(src, keep)), list(compress(dst, keep))
        if since is not None:
            since = since[np.fromiter(keep, dtype=bool, count=len(keep))]
    if mutual_edges:
        src, dst = src + dst, dst + src
        if since is not None:
            since = np.concatenate((since, since))

    # Handles: lexicographic over the union of labels seen anywhere.
    user_labels = tuple(sorted(set(adoptions.first).union(src, dst)))
    tag_labels = tuple(sorted(set(adoptions.second)))
    user_index = {lab: i for i, lab in enumerate(user_labels)}
    tag_index = {lab: i for i, lab in enumerate(tag_labels)}

    n_events = len(adoptions)
    ev_user = _handles(user_index, adoptions.first)
    ev_tag = _handles(tag_index, adoptions.second)
    ev_time = np.array(adoptions.times, dtype=np.int64)
    # One sort on (time rank, pair rank), both below n_events, so the key
    # fits int64; equal keys are equal events, so the sort need not be stable.
    _, time_rank = np.unique(ev_time, return_inverse=True)
    pairs, pair_rank = np.unique(ev_user.astype(np.int64) * len(tag_labels) + ev_tag,
                                 return_inverse=True)
    order = np.argsort(time_rank * n_events + pair_rank)
    ev_user, ev_tag, ev_time = ev_user[order], ev_tag[order], ev_time[order]
    # The first usage of a (user, tag) pair is its first position in that order.
    first_pos = np.full(pairs.shape[0], n_events)
    np.minimum.at(first_pos, pair_rank[order], np.arange(n_events))
    ev_first = np.zeros(n_events, dtype=bool)
    ev_first[first_pos] = True

    n_rows = len(src)
    edges = np.column_stack((_handles(user_index, src), _handles(user_index, dst)))
    if not n_rows:  # an empty graph is static
        since = None
    graph = build_follower_graph(edges, len(user_labels), since)

    return Dataset(
        user_table=user_labels,
        tag_table=tag_labels,
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
