from __future__ import annotations

import numpy as np
import pytest

import tagcascade as tc
from tagcascade.cli import main
from tagcascade.errors import SnapshotFormatError
from tagcascade.snapshot import MAGIC, load_snapshot, save_snapshot

from oracles import random_micro_rows


def _assert_datasets_identical(a, b):
    assert a.user_labels == b.user_labels
    assert a.tag_labels == b.tag_labels
    np.testing.assert_array_equal(a.event_time, b.event_time)
    np.testing.assert_array_equal(a.event_user, b.event_user)
    np.testing.assert_array_equal(a.event_tag, b.event_tag)
    np.testing.assert_array_equal(a.event_first, b.event_first)
    np.testing.assert_array_equal(a.graph.indptr, b.graph.indptr)
    np.testing.assert_array_equal(a.graph.dst, b.graph.dst)
    if a.graph.since is None:
        assert b.graph.since is None
    else:
        np.testing.assert_array_equal(a.graph.since, b.graph.since)
    assert a.warnings == b.warnings


def test_round_trip_random_datasets(tmp_path):
    rng = np.random.Generator(np.random.PCG64(31))
    for i in range(10):
        adoptions, follows = random_micro_rows(rng)
        ds = tc.build_dataset(adoptions, follows)
        path = tmp_path / f"snap{i}.cscd"
        save_snapshot(ds, path)
        _assert_datasets_identical(ds, load_snapshot(path))


def test_round_trip_preserves_unicode_labels(tmp_path):
    ds = tc.build_dataset(
        [("żółw", "समाचार", 5), ("tag,with,commas", "註釋", 9)],
        [("żółw", "tag,with,commas")],
    )
    path = tmp_path / "labels.cscd"
    save_snapshot(ds, path)
    _assert_datasets_identical(ds, load_snapshot(path))


def test_snapshot_is_byte_stable(tmp_path):
    adoptions = [("a", "x", 3), ("b", "x", 1)]
    follows = [("a", "b", 2)]
    p1, p2 = tmp_path / "one.cscd", tmp_path / "two.cscd"
    save_snapshot(tc.build_dataset(adoptions, follows), p1)
    save_snapshot(tc.build_dataset(list(reversed(adoptions)), follows), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_bytes_and_version_checked(tmp_path):
    path = tmp_path / "bad.cscd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(path)

    ds = tc.build_dataset([("a", "x", 1)], [])
    good = tmp_path / "good.cscd"
    save_snapshot(ds, good)
    raw = bytearray(good.read_bytes())
    assert raw[:4] == MAGIC
    raw[4] = 99  # version field
    bad_version = tmp_path / "v99.cscd"
    bad_version.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="version"):
        load_snapshot(bad_version)


def test_truncated_snapshot_detected(tmp_path):
    ds = tc.build_dataset([("a", "x", 1), ("b", "y", 2)], [("a", "b")])
    path = tmp_path / "snap.cscd"
    save_snapshot(ds, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.cscd"
    cut.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(cut)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(SnapshotFormatError):
        load_snapshot(tmp_path / "absent.cscd")


# ---------------------------------------------------------------------------
# structurally corrupt snapshots
# ---------------------------------------------------------------------------

def _sections(ds) -> dict:
    """(byte offset, dtype, count) of each section of `ds`'s snapshot."""
    pos = 4 + 8 + 32
    out = {}
    label_bytes = sum(4 + len(lab.encode()) for lab in ds.user_labels + ds.tag_labels)
    for name, dtype, count in (("labels", "<u1", label_bytes),
                               ("time", "<i8", ds.n_events), ("user", "<i4", ds.n_events),
                               ("tag", "<i4", ds.n_events), ("first", "<u1", ds.n_events),
                               ("indptr", "<i8", ds.n_users + 1), ("dst", "<i4", ds.n_edges),
                               ("since", "<i8", ds.n_edges)):
        out[name] = (pos, np.dtype(dtype), count)
        pos += np.dtype(dtype).itemsize * count
    return out


def _swap(a, i, j):
    a[i], a[j] = a[j], a[i]


# A observes B and C, B observes C; every corruption but "trailing" keeps
# the file's length, so only the structural checks can catch it.
CORRUPTIONS = {
    "indptr_start": ("indptr", lambda a: a.__setitem__(0, 1), "CSR index"),
    "indptr_order": ("indptr", lambda a: _swap(a, 1, 2), "CSR index"),
    "indptr_end": ("indptr", lambda a: a.__setitem__(-1, a[-1] + 1), "CSR index"),
    "dst_range": ("dst", lambda a: a.__setitem__(0, 3), "follow edge handle"),
    "user_range": ("user", lambda a: a.__setitem__(0, -1), "event user handle"),
    "tag_range": ("tag", lambda a: a.__setitem__(0, 1), "event tag handle"),
    "time_order": ("time", lambda a: _swap(a, 0, -1), "event times"),
    "since_order": ("since", lambda a: _swap(a, 0, 1), "within a row"),
    "label_utf8": ("labels", lambda a: a.__setitem__(4, 0xFF), "UTF-8"),
    "trailing": (None, None, "trailing bytes"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_structurally_corrupt_snapshot_exits_two(tmp_path, capsys, corruption):
    ds = tc.build_dataset(
        [("A", "t", 5), ("B", "t", 1), ("C", "t", 3)],
        [("A", "B", 1), ("A", "C", 2), ("B", "C", None)],
    )
    path = tmp_path / "snap.cscd"
    save_snapshot(ds, path)
    assert main(["thresholds", str(path)]) == 0
    raw = bytearray(path.read_bytes())
    section, corrupt, message = CORRUPTIONS[corruption]
    if section is None:
        raw += b"junk"
    else:
        offset, dtype, count = _sections(ds)[section]
        corrupt(np.frombuffer(raw, dtype=dtype, count=count, offset=offset))
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert main(["thresholds", str(path)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and message in err
