"""Binary dataset snapshots.

Layout (all integers little-endian):

    bytes 0-3   magic "CSCD"
    u32         version (currently 3)
    u32         flags: bit 0 = follow edges carry `since` timestamps
    u64 x 4     n_users, n_tags, n_events, n_edges
    label table (users):  offsets u64[n_users + 1], then the labels' UTF-8
                          bytes back to back; label h is blob[offsets[h]:offsets[h+1]]
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
    trailer:              32-byte SHA-256 of every byte before it

Any other version is refused and must be re-ingested from its CSV logs: a
version 2 file ends in a u32 CRC-32 in place of the SHA-256, and a version 1
file has per-label length-prefixed label tables and no trailer.

Loading reproduces the in-memory Dataset bit-for-bit. It reads each section
straight into the array it becomes, so no copy of the file is held beside
the arrays, and feeds it to one SHA-256 as it goes. That hash checks the
file against its trailer and, continued over the trailer, is the digest of
the whole file (`Dataset.sha256`), so a command that reports the digest
reads the file once. The trailer detects damage, not forgery: a file
rewritten with a recomputed trailer loads, but its digest differs from the
honest file's. A load refuses a checksum mismatch, trailing bytes and
arrays that break the layout the exposure kernel relies on. A label table is
checked as one block: offsets that start at 0, never decrease and stay in
the file, a blob that is valid UTF-8 and no offset inside a UTF-8
character. It is kept as the `events.Labels` of its two arrays, which a
save writes back as they are; splitting it into labels, and checking that
they are sorted and unique, waits for their first use.
"""

from __future__ import annotations

import hashlib
import io
import os
import stat
import struct

import numpy as np

from .errors import SnapshotFormatError
from .events import Dataset, FollowerGraph, Labels

MAGIC = b"CSCD"
VERSION = 3
_FLAG_EDGE_TIMES = 1
_TRAILER = hashlib.sha256().digest_size
_NOT_UTF8 = "a label or warning key is not valid UTF-8"


def save_snapshot(d: Dataset, path) -> None:
    buf = bytearray()
    buf += MAGIC
    flags = _FLAG_EDGE_TIMES if d.graph.since is not None else 0
    buf += struct.pack("<II", VERSION, flags)
    buf += struct.pack("<QQQQ", d.n_users, d.n_tags, d.n_events, d.n_edges)
    for table in (d.user_table, d.tag_table):
        buf += table.offsets.astype("<u8").tobytes()
        buf += table.blob
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
    buf += hashlib.sha256(buf).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


class _Reader:
    """Reads a snapshot of `size` bytes from `fh` front to back, each array
    straight into its own buffer, and feeds every byte read to one SHA-256.
    A section is checked against `size` before its buffer is made."""

    def __init__(self, fh, size: int):
        self.fh = fh
        self.size = size
        self.pos = 0
        self.sha = hashlib.sha256()

    def _room(self, n: int) -> None:
        if self.pos + n > self.size:
            raise SnapshotFormatError("snapshot truncated")

    def _fill(self, buf) -> None:
        if self.fh.readinto(buf) != len(buf):
            raise SnapshotFormatError("snapshot truncated")
        self.sha.update(buf)
        self.pos += len(buf)

    def take(self, n: int) -> bytearray:
        self._room(n)
        out = bytearray(n)
        self._fill(out)
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        self._room(dt.itemsize * count)
        out = np.empty(count, dtype=dt)
        self._fill(out.view(np.uint8))
        return out

    def key(self) -> str:
        """A warning key: a u32 byte length + UTF-8 bytes."""
        (ln,) = self.unpack("<I")
        try:
            return self.take(ln).decode("utf-8")
        except UnicodeDecodeError:
            raise SnapshotFormatError(_NOT_UTF8) from None

    def labels(self, count: int, kind: str) -> Labels:
        """A label table of `kind`, checked as one block."""
        offsets = self.array("<u8", count + 1)
        if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]):
            raise SnapshotFormatError("label offsets must start at 0 and never decrease")
        blob = self.take(int(offsets[-1]))
        if not blob.isascii():
            try:
                blob.decode("utf-8")
            except UnicodeDecodeError:
                raise SnapshotFormatError(_NOT_UTF8) from None
            starts = (np.frombuffer(blob, dtype=np.uint8) & 0xC0) != 0x80
            if not starts[offsets[offsets < len(blob)]].all():
                raise SnapshotFormatError("a label offset falls inside a UTF-8 character")
        return Labels(blob, offsets, kind)


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
    """The Dataset in the snapshot at `path`, whose `sha256` is the digest of
    the bytes read. A regular file is read section by section into the
    arrays it returns; anything else (a pipe) is read whole first."""
    try:
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode):
                return _load(fh, st.st_size)
            data = fh.read()
        return _load(io.BytesIO(data), len(data))
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot: {exc}") from None


def _load(fh, size: int) -> Dataset:
    r = _Reader(fh, size)
    if r.take(4) != MAGIC:
        raise SnapshotFormatError("bad magic: not a CSCD snapshot")
    version, flags = r.unpack("<II")
    if version != VERSION:
        raise SnapshotFormatError(f"unsupported snapshot version {version}")
    n_users, n_tags, n_events, n_edges = r.unpack("<QQQQ")

    user_table = r.labels(n_users, "user")
    tag_table = r.labels(n_tags, "tag")
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
        key = r.key()
        (val,) = r.unpack("<q")
        warnings[key] = val
    body = size - _TRAILER
    if r.pos > body:
        raise SnapshotFormatError("snapshot truncated")
    if r.pos < body:
        raise SnapshotFormatError(f"{body - r.pos} trailing bytes after the snapshot")
    expected = r.sha.digest()
    if r.take(_TRAILER) != expected:  # the hash now covers the whole file
        raise SnapshotFormatError("snapshot checksum mismatch")

    _check_structure(n_users, n_tags, ev_time, ev_user, ev_tag, indptr, dst, since)
    graph = FollowerGraph(int(n_users), indptr, dst, since)
    return Dataset(
        user_table=user_table,
        tag_table=tag_table,
        event_time=ev_time,
        event_user=ev_user,
        event_tag=ev_tag,
        event_first=ev_first,
        graph=graph,
        warnings=warnings,
        sha256=r.sha.hexdigest(),
    )
