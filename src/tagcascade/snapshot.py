"""Binary dataset snapshots.

Layout (all integers little-endian):

    bytes 0-3   magic "CSCD"
    u32         version (currently 1)
    u32         flags: bit 0 = follow edges carry `since` timestamps
    u64 x 4     n_users, n_tags, n_events, n_edges
    label table (users):  per label, u32 byte length + UTF-8 bytes
    label table (tags):   same encoding
    event arrays:         time  i64[n_events]
                          user  i32[n_events]
                          tag   i32[n_events]
                          first u8 [n_events]
    adjacency:            indptr i64[n_users + 1]
                          dst    i32[n_edges]
                          since  i64[n_edges]     (only when flag bit 0)
    warnings:             u32 count, then per entry
                          u32 key length + key UTF-8 + i64 value

Loading reproduces the in-memory Dataset bit-for-bit. It refuses trailing
bytes and arrays that break the layout the exposure kernel relies on.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import SnapshotFormatError
from .events import Dataset, FollowerGraph

MAGIC = b"CSCD"
VERSION = 1
_FLAG_EDGE_TIMES = 1


def save_snapshot(d: Dataset, path) -> None:
    buf = bytearray()
    buf += MAGIC
    flags = _FLAG_EDGE_TIMES if d.graph.since is not None else 0
    buf += struct.pack("<II", VERSION, flags)
    buf += struct.pack("<QQQQ", d.n_users, d.n_tags, d.n_events, d.n_edges)
    for table in (d.user_labels, d.tag_labels):
        for label in table:
            raw = label.encode("utf-8")
            buf += struct.pack("<I", len(raw))
            buf += raw
    buf += d.event_time.astype("<i8").tobytes()
    buf += d.event_user.astype("<i4").tobytes()
    buf += d.event_tag.astype("<i4").tobytes()
    buf += d.event_first.astype("<u1").tobytes()
    buf += d.graph.indptr.astype("<i8").tobytes()
    buf += d.graph.dst.astype("<i4").tobytes()
    if d.graph.since is not None:
        buf += d.graph.since.astype("<i8").tobytes()
    buf += struct.pack("<I", len(d.warnings))
    for key in sorted(d.warnings):
        raw = key.encode("utf-8")
        buf += struct.pack("<I", len(raw))
        buf += raw
        buf += struct.pack("<q", int(d.warnings[key]))
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SnapshotFormatError("snapshot truncated")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        raw = self.take(dt.itemsize * count)
        return np.frombuffer(raw, dtype=dt).copy()

    def labels(self, count: int) -> tuple:
        out = []
        try:
            for _ in range(count):
                (ln,) = self.unpack("<I")
                out.append(self.take(ln).decode("utf-8"))
        except UnicodeDecodeError:
            raise SnapshotFormatError("a label or warning key is not valid UTF-8") from None
        return tuple(out)


def _check_structure(n_users, n_tags, ev_time, ev_user, ev_tag, indptr, dst, since) -> None:
    """O(n) checks of what the exposure kernel indexes by and relies on:
    a CSR `indptr`, handles in range, time-sorted events and `since` sorted
    within each row."""
    n_edges = dst.shape[0]
    if indptr[0] != 0 or indptr[-1] != n_edges or np.any(indptr[1:] < indptr[:-1]):
        raise SnapshotFormatError(f"adjacency offsets are not a CSR index over {n_edges} edges")
    for name, arr, bound in (("follow edge", dst, n_users), ("event user", ev_user, n_users),
                             ("event tag", ev_tag, n_tags)):
        if arr.shape[0] and (arr.min() < 0 or arr.max() >= bound):
            raise SnapshotFormatError(f"{name} handle out of range [0, {bound})")
    if np.any(ev_time[1:] < ev_time[:-1]):
        raise SnapshotFormatError("event times are not sorted")
    if since is not None:
        row_start = np.zeros(n_edges, dtype=bool)
        row_start[indptr[:-1][indptr[:-1] < n_edges]] = True
        if np.any((since[1:] < since[:-1]) & ~row_start[1:]):
            raise SnapshotFormatError("edge `since` times are not sorted within a row")


def load_snapshot(path) -> Dataset:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot: {exc}") from None
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise SnapshotFormatError("bad magic: not a CSCD snapshot")
    version, flags = r.unpack("<II")
    if version != VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    n_users, n_tags, n_events, n_edges = r.unpack("<QQQQ")

    user_labels = r.labels(n_users)
    tag_labels = r.labels(n_tags)
    ev_time = r.array("<i8", n_events)
    ev_user = r.array("<i4", n_events)
    ev_tag = r.array("<i4", n_events)
    ev_first = r.array("<u1", n_events).astype(bool)
    indptr = r.array("<i8", n_users + 1)
    dst = r.array("<i4", n_edges)
    since = r.array("<i8", n_edges) if flags & _FLAG_EDGE_TIMES else None

    (n_warn,) = r.unpack("<I")
    warnings = {}
    for _ in range(n_warn):
        (key,) = r.labels(1)
        (val,) = r.unpack("<q")
        warnings[key] = val
    if r.pos != len(data):
        raise SnapshotFormatError(f"{len(data) - r.pos} trailing bytes after the snapshot")

    _check_structure(n_users, n_tags, ev_time, ev_user, ev_tag, indptr, dst, since)
    graph = FollowerGraph(int(n_users), indptr, dst, since)
    return Dataset(
        user_labels=user_labels,
        tag_labels=tag_labels,
        event_time=ev_time,
        event_user=ev_user,
        event_tag=ev_tag,
        event_first=ev_first,
        graph=graph,
        warnings=warnings,
    )
