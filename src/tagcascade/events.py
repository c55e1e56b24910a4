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

import numpy as np

from .errors import (
    MalformedRowError,
    SnapshotFormatError,
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

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

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
    # Edges are in (src, dst) order, and a stable sort by (src, rank of
    # since) keeps that order among equal keys: rows end up sorted by
    # (since, dst), as np.lexsort((since, src)) sorts them, for a third of
    # its time.
    times, rank = np.unique(since, return_inverse=True)
    order = np.argsort(src * len(times) + rank, kind="stable")
    return FollowerGraph(n, _csr_indptr(src, n), dst[order].astype(np.int32), since[order])


class Labels:
    """A table of labels in handle order as a snapshot stores it: their
    UTF-8 bytes back to back (`blob`) and uint64 byte `offsets`, label h
    being blob[offsets[h]:offsets[h + 1]]. `kind` ("user" or "tag") names
    them in errors. `labels` is their tuple of str: given to a table built
    from labels, which interning sorts; split from a snapshot's blob on
    first use and refused unless strictly increasing. `handle` builds the
    label -> handle dict on its first call. `cells`, the padded bytes the
    text writers render, follows the `labels` check, so a forged table
    fails before any label is written."""

    def __init__(self, blob: bytes, offsets: np.ndarray, kind: str, labels: tuple | None = None):
        self.blob = blob
        self.offsets = offsets
        self.kind = kind
        if labels is not None:
            self.labels = labels  # fills the cached property

    @classmethod
    def from_text(cls, labels: tuple, kind: str) -> Labels:
        """The table of `labels`, sorted and distinct str."""
        return cls(*_encoded(labels), kind, labels)

    @classmethod
    def from_words(cls, words: np.ndarray, kind: str) -> Labels:
        """The table of sorted, distinct label words (see LogColumns): their
        bytes less the zero padding, and their labels from one decode of
        those bytes with a line feed after each word; words that hold a line
        feed themselves are split by their offsets."""
        raw = words.astype(">u8")
        blob = raw.tobytes().replace(b"\0", b"")
        # A word's size is its count of nonzero bytes: their 0/1 flags, read
        # as one uint64, summed into its top byte by one multiply.
        flags = (raw.view(np.uint8) != 0).view(np.uint64)
        offsets = _offsets(flags * np.uint64(0x0101010101010101) >> np.uint64(56))
        if b"\n" in blob:
            return cls(blob, offsets, kind, _split(blob, offsets))
        rows = np.zeros((len(words), 9), dtype=np.uint8)
        rows[:, :8] = raw.view(np.uint8).reshape(-1, 8)
        rows[:, 8] = ord("\n")
        text = rows.tobytes().replace(b"\0", b"").decode("utf-8")
        return cls(blob, offsets, kind, tuple(text.split("\n")[:-1]))

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    @cached_property
    def labels(self) -> tuple:
        labels = _split(self.blob, self.offsets)
        if not all(map(operator.lt, labels[:-1], labels[1:])):
            raise SnapshotFormatError(f"the {self.kind} labels are not sorted and unique")
        return labels

    @cached_property
    def _index(self) -> dict:
        return {label: h for h, label in enumerate(self.labels)}

    def handle(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownIdError(f"unknown {self.kind}: {label!r}") from None

    @cached_property
    def cells(self) -> tuple:
        """(cells, valid) of the labels (see _padded), made after the `labels` check."""
        self.labels
        return _padded(self.blob, self.offsets)


def _encoded(texts) -> tuple:
    """(blob, offsets) of str `texts`: their UTF-8 bytes back to back, and uint64 offsets."""
    joined = "".join(texts)
    sizes = map(len, texts) if joined.isascii() else (len(t.encode("utf-8")) for t in texts)
    return joined.encode("utf-8"), _offsets(np.fromiter(sizes, dtype=np.uint64, count=len(texts)))


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """The uint64 offsets of items of `sizes` bytes laid back to back."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.uint64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _split(blob, offsets: np.ndarray) -> tuple:
    """The str items of UTF-8 `blob` at byte `offsets`: one decode, sliced at
    the code points the offsets fall on."""
    text = blob.decode("utf-8")
    if len(text) != len(blob):  # not ASCII: byte offsets -> code point offsets
        chars = np.zeros(len(blob) + 1, dtype=np.int64)
        np.cumsum((np.frombuffer(blob, dtype=np.uint8) & 0xC0) != 0x80, out=chars[1:])
        offsets = chars[offsets]
    bounds = offsets.tolist()
    return tuple([text[a:b] for a, b in zip(bounds, bounds[1:])])


def _padded(blob, offsets: np.ndarray) -> tuple:
    """(cells, valid) of the items of `blob` at byte `offsets`: row i of the
    uint8 matrix `cells` holds item i, left-aligned, where `valid` is True."""
    sizes = np.diff(offsets).astype(np.intp)
    valid = np.arange(int(sizes.max(initial=0))) < sizes[:, None]
    cells = np.zeros(valid.shape, dtype=np.uint8)
    cells[valid] = np.frombuffer(blob, dtype=np.uint8)
    return cells, valid


@dataclass(frozen=True)
class Dataset:
    """Immutable adoption log + follower graph.

    Events are sorted by (time, user, tag); `event_first` flags the earliest
    usage of each (user, tag) pair. All arrays are read-only after build.

    `user_table` and `tag_table` are the `Labels` tables of the labels in
    handle order; `user_labels`/`tag_labels` are their tuples of str. A
    table loaded from a snapshot is split into str on first use, and every
    label -> handle dict is built on the first `user_handle`/`tag_handle`
    call, so a command that prints no label decodes none.

    `sha256` is the hex SHA-256 of the snapshot file a Dataset was loaded
    from, computed while loading it, and None for one built in memory.
    """

    user_table: Labels
    tag_table: Labels
    event_time: np.ndarray
    event_user: np.ndarray
    event_tag: np.ndarray
    event_first: np.ndarray
    graph: FollowerGraph
    warnings: dict = field(default_factory=dict)
    sha256: str | None = None

    def __post_init__(self):
        for arr in (self.event_time, self.event_user, self.event_tag, self.event_first):
            arr.setflags(write=False)

    @property
    def user_labels(self) -> tuple:
        return self.user_table.labels

    @property
    def tag_labels(self) -> tuple:
        return self.tag_table.labels

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

    def user_handle(self, label: str) -> int:
        return self.user_table.handle(label)

    def tag_handle(self, label: str) -> int:
        return self.tag_table.handle(label)

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


class LogColumns:
    """The rows of a parsed log held as columns, as `textio.read_adoptions`
    and `textio.read_follows` return them. `first` and `second` are the two
    labels of each row, `times` its time in epoch milliseconds (None for an
    empty follows `since`), or None for a log of two-field rows; each is a
    list. `sha256` is the hex SHA-256 of the bytes a reader parsed them from
    (None for columns built in memory). `len()` is the row count; iterating
    yields the row tuples.

    `columns` holds the three columns as they were handed over: lists, or
    numpy arrays that `build_dataset` takes with no Python object per cell.
    An array label column holds label words, a times column int64 times
    with SINCE_ALWAYS for an empty `since`. A label word is a label of at
    most 8 UTF-8 bytes and no NUL, zero-padded to 8 bytes and read as a
    big-endian uint64: distinct labels have distinct words, and words sort
    as their labels do (UTF-8 byte order is code point order, and a label
    sorts before the longer labels it begins). `first`, `second` and
    `times` make their lists on first access."""

    def __init__(self, first, second, times, sha256: str | None = None):
        self.columns = (first, second, times)
        self.sha256 = sha256

    @cached_property
    def first(self) -> list:
        return _column_list(self.columns[0])

    @cached_property
    def second(self) -> list:
        return _column_list(self.columns[1])

    @cached_property
    def times(self) -> list | None:
        return _column_list(self.columns[2])

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        if self.times is None:
            return zip(self.first, self.second)
        return zip(self.first, self.second, self.times)


def _is_words(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype == np.uint64


def _column_list(column):
    """A LogColumns column as a list: label words decoded once per distinct
    word, int64 times as ints with None for SINCE_ALWAYS."""
    if not isinstance(column, np.ndarray):
        return column
    if _is_words(column):
        words, inverse = np.unique(column, return_inverse=True)
        return list(map(Labels.from_words(words, "label").labels.__getitem__, inverse.tolist()))
    values = column.tolist()
    if (column == SINCE_ALWAYS).any():
        values = [None if t == SINCE_ALWAYS else t for t in values]
    return values


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


def _intern(columns: tuple, kind: str) -> tuple:
    """(table, handles) of label columns: the Labels of their distinct labels
    in sorted order, and each column's handles into it as int32. Columns of
    label words take one np.unique and decode only the distinct words; any
    other column makes the lists of all of them interned through a set, a
    sort and a dict."""
    if all(map(_is_words, columns)):
        words, inverse = np.unique(np.concatenate(columns), return_inverse=True)
        inverse = inverse.astype(np.int32)
        return (Labels.from_words(words, kind),
                np.split(inverse, np.cumsum(list(map(len, columns)))[:-1]))
    columns = list(map(_column_list, columns))
    labels = tuple(sorted(set().union(*columns)))
    index = {lab: i for i, lab in enumerate(labels)}
    return Labels.from_text(labels, kind), [
        np.fromiter(map(index.__getitem__, column), dtype=np.int32, count=len(column))
        for column in columns]


def _dataset_from_columns(adoptions: LogColumns, follows: LogColumns,
                          reverse_edges: bool, mutual_edges: bool) -> Dataset:
    """The Dataset of checked adoption and follow columns: labels interned,
    events sorted and first usages flagged, self-loops dropped and the
    follower graph built."""
    src, dst, since = follows.columns
    if reverse_edges:
        src, dst = dst, src
    if since is not None:
        if not isinstance(since, np.ndarray):
            since = np.array([SINCE_ALWAYS if s is None else s for s in since], dtype=np.int64)
        # A graph is timed when any row, a self-loop included, has a since
        # other than SINCE_ALWAYS ("always", as None is).
        if (since == SINCE_ALWAYS).all():
            since = None
    # Self-loops go before interning: a user seen only in one gets no handle.
    if _is_words(src) and _is_words(dst):
        keep = src != dst
        self_loops = len(keep) - int(np.count_nonzero(keep))
        if self_loops:
            src, dst = src[keep], dst[keep]
    else:
        src, dst = _column_list(src), _column_list(dst)
        keep = list(map(operator.ne, src, dst))
        self_loops = keep.count(False)
        if self_loops:
            src, dst = list(compress(src, keep)), list(compress(dst, keep))
            keep = np.fromiter(keep, dtype=bool, count=len(keep))
    if self_loops and since is not None:
        since = since[keep]
    if mutual_edges:
        if isinstance(src, np.ndarray):
            src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
        else:
            src, dst = src + dst, dst + src
        if since is not None:
            since = np.concatenate((since, since))

    # Handles: lexicographic over the union of labels seen anywhere.
    users, times = adoptions.columns[0], adoptions.columns[2]
    user_table, (ev_user, src, dst) = _intern((users, src, dst), "user")
    tag_table, (ev_tag,) = _intern((adoptions.columns[1],), "tag")

    n_events = len(ev_user)
    ev_time = np.asarray(times, dtype=np.int64)
    # One sort on (time rank, pair rank), both below n_events, so the key
    # fits int64; equal keys are equal events, so the sort need not be stable.
    _, time_rank = np.unique(ev_time, return_inverse=True)
    pairs, pair_rank = np.unique(ev_user.astype(np.int64) * len(tag_table) + ev_tag,
                                 return_inverse=True)
    order = np.argsort(time_rank * n_events + pair_rank)
    ev_user, ev_tag, ev_time = ev_user[order], ev_tag[order], ev_time[order]
    # The first usage of a (user, tag) pair is its first position in that order.
    first_pos = np.full(pairs.shape[0], n_events)
    np.minimum.at(first_pos, pair_rank[order], np.arange(n_events))
    ev_first = np.zeros(n_events, dtype=bool)
    ev_first[first_pos] = True

    n_rows = len(src)
    if not n_rows:  # an empty graph is static
        since = None
    graph = build_follower_graph(np.column_stack((src, dst)), len(user_table), since)

    return Dataset(
        user_table=user_table,
        tag_table=tag_table,
        event_time=ev_time,
        event_user=ev_user,
        event_tag=ev_tag,
        event_first=ev_first,
        graph=graph,
        warnings={
            "self_loops_dropped": self_loops,
            "duplicate_edges_dropped": n_rows - graph.n_edges,
        },
    )


def _component_roots(graph: FollowerGraph) -> np.ndarray:
    """Smallest handle in each user's weakly-connected component.

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J. Algorithms
    3, 1982): each round hooks both endpoint roots of every edge to the
    smaller of the two, then jumps pointers until each user points at a root.
    Pointers only ever decrease, so a root is its component's smallest handle.
    Handles are int32, and every round reuses the same buffers: `take` with
    mode="clip" (every handle is in range, so nothing is clipped) writes
    into them directly, where mode="raise" would fill a temporary first.
    """
    src = _csr_sources(graph.indptr, graph.n)
    roots = np.arange(graph.n, dtype=np.int32)
    spare = np.empty_like(roots)
    a, b, low = (np.empty(graph.n_edges, dtype=np.int32) for _ in range(3))
    while True:
        np.take(roots, src, out=a, mode="clip")
        np.take(roots, graph.dst, out=b, mode="clip")
        np.minimum(a, b, out=low)
        np.copyto(spare, roots)
        np.minimum.at(spare, a, low)
        np.minimum.at(spare, b, low)
        if np.array_equal(spare, roots):
            return roots
        roots, spare = spare, roots
        np.take(roots, roots, out=spare, mode="clip")
        while not np.array_equal(spare, roots):
            roots, spare = spare, roots
            np.take(roots, roots, out=spare, mode="clip")


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


def _component_density(d: Dataset, members: set) -> float:
    """Directed edge density within `members`, a weakly-connected component
    such as `giant_component(d)`. No edge leaves a component, so its edges
    are the out-edges of its members."""
    handles = np.fromiter(members, dtype=np.int64, count=len(members))
    return directed_density(len(members), int(d.graph.out_degrees()[handles].sum()))


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
        return _component_density(d, giant_component(d))
    raise ValueError(f"scope must be 'all' or 'giant_component', got {scope!r}")
