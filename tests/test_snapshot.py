from __future__ import annotations

import hashlib
import os
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tagcascade as tc
from tagcascade import cli, events
from tagcascade.cli import main
from tagcascade.errors import SnapshotFormatError
from tagcascade.events import Labels
from tagcascade.snapshot import MAGIC, load_snapshot, save_snapshot

from oracles import random_micro_rows

# Every round trip and corruption runs on files of each version that loads.
WRITERS = {3: save_snapshot}


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
        for version, write in WRITERS.items():
            path = tmp_path / f"snap{i}v{version}.cscd"
            write(ds, path)
            loaded = load_snapshot(path)
            _assert_datasets_identical(ds, loaded)
            # re-saving a loaded dataset gives the bytes of a fresh save
            fresh, again = tmp_path / "fresh.cscd", tmp_path / "again.cscd"
            save_snapshot(ds, fresh)
            save_snapshot(loaded, again)
            assert again.read_bytes() == fresh.read_bytes()


def test_round_trip_preserves_unicode_labels(tmp_path):
    ds = tc.build_dataset(
        [("żółw", "समाचार", 5), ("tag,with,commas", "註釋", 9), ("a\x00b", "", 1)],
        [("żółw", "tag,with,commas")],
    )
    for version, write in WRITERS.items():
        path = tmp_path / f"labels{version}.cscd"
        write(ds, path)
        _assert_datasets_identical(ds, load_snapshot(path))


def test_snapshot_is_byte_stable(tmp_path):
    adoptions = [("a", "x", 3), ("b", "x", 1)]
    follows = [("a", "b", 2)]
    p1, p2 = tmp_path / "one.cscd", tmp_path / "two.cscd"
    save_snapshot(tc.build_dataset(adoptions, follows), p1)
    save_snapshot(tc.build_dataset(list(reversed(adoptions)), follows), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trailer_is_the_sha256_of_the_body_and_load_gives_the_file_digest(tmp_path):
    path = tmp_path / "snap.cscd"
    save_snapshot(_abc_dataset(), path)
    raw = path.read_bytes()
    assert raw[-32:] == hashlib.sha256(raw[:-32]).digest()
    assert load_snapshot(path).sha256 == hashlib.sha256(raw).hexdigest()
    assert _abc_dataset().sha256 is None


def test_version_2_snapshot_must_be_reingested(tmp_path, capsys):
    # version 2 had the same sections, then a u32 CRC-32 in place of the SHA-256
    path = tmp_path / "v2.cscd"
    save_snapshot(_abc_dataset(), path)
    body = bytearray(path.read_bytes()[:-32])
    body[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    message = "unsupported snapshot version 2"
    with pytest.raises(SnapshotFormatError, match=message):
        load_snapshot(path)
    capsys.readouterr()
    assert main(["stats", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


def test_magic_bytes_and_version_checked(tmp_path, capsys):
    path = tmp_path / "bad.cscd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(SnapshotFormatError, match="magic"):
        load_snapshot(path)

    ds = tc.build_dataset([("a", "x", 1)], [])
    good = tmp_path / "good.cscd"
    save_snapshot(ds, good)
    raw = bytearray(good.read_bytes())
    assert raw[:4] == MAGIC
    for version in (1, 99):  # a version 1 file is refused too, and must be re-ingested
        raw[4] = version  # version field
        bad_version = tmp_path / f"v{version}.cscd"
        bad_version.write_bytes(bytes(raw))
        message = f"unsupported snapshot version {version}"
        with pytest.raises(SnapshotFormatError, match=message):
            load_snapshot(bad_version)
        capsys.readouterr()
        assert main(["stats", str(bad_version)]) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"


def test_truncated_snapshot_detected(tmp_path):
    ds = tc.build_dataset([("a", "x", 1), ("b", "y", 2)], [("a", "b")])
    for version, write in WRITERS.items():
        path = tmp_path / f"snap{version}.cscd"
        write(ds, path)
        raw = path.read_bytes()
        for keep in (len(raw) // 2, len(raw) - 1):
            cut = tmp_path / "cut.cscd"
            cut.write_bytes(raw[:keep])
            with pytest.raises(SnapshotFormatError, match="truncated"):
                load_snapshot(cut)


@pytest.mark.parametrize("field", ["n_users", "n_events", "n_edges"])
def test_count_past_the_file_is_truncated_before_allocating(tmp_path, field):
    # a count no file holds is refused by the size check, not by np.empty
    path = tmp_path / "big.cscd"
    save_snapshot(tc.build_dataset([("a", "x", 1)], [("a", "a")]), path)
    raw = bytearray(path.read_bytes())
    offset = 12 + 8 * ("n_users", "n_tags", "n_events", "n_edges").index(field)
    raw[offset:offset + 8] = struct.pack("<Q", 2**62)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="truncated"):
        load_snapshot(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_snapshot_loads_from_a_pipe(tmp_path):
    ds = _abc_dataset()
    path = tmp_path / "snap.cscd"
    save_snapshot(ds, path)
    fifo = tmp_path / "snap.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    try:
        loaded = load_snapshot(fifo)
    finally:
        writer.join()
    _assert_datasets_identical(ds, loaded)
    assert loaded.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(SnapshotFormatError):
        load_snapshot(tmp_path / "absent.cscd")


# ---------------------------------------------------------------------------
# structurally corrupt snapshots
# ---------------------------------------------------------------------------

def _sections(ds) -> dict:
    """(byte offset, dtype, count) of each section of `ds`'s snapshot.

    `label0` is the UTF-8 bytes of the first user label.
    """
    encoded = [[lab.encode() for lab in table] for table in (ds.user_labels, ds.tag_labels)]
    tables = [(name, dtype, count) for kind, table in zip(("user", "tag"), encoded)
              for name, dtype, count in ((f"{kind}_offsets", "<u8", len(table) + 1),
                                         (f"{kind}_blob", "<u1", sum(map(len, table))))]
    pos = 4 + 8 + 32
    out = {}
    for name, dtype, count in tables + [
            ("time", "<i8", ds.n_events), ("user", "<i4", ds.n_events),
            ("tag", "<i4", ds.n_events), ("first", "<u1", ds.n_events),
            ("indptr", "<i8", ds.n_users + 1), ("dst", "<i4", ds.n_edges),
            ("since", "<i8", ds.n_edges)]:
        out[name] = (pos, np.dtype(dtype), count)
        pos += np.dtype(dtype).itemsize * count
    out["label0"] = (out["user_blob"][0], np.dtype("<u1"), len(encoded[0][0]))
    return out


def _corrupt_and_write(path, corrupt) -> None:
    """Apply `corrupt` to the file's bytes (without the SHA-256 trailer,
    which is then recomputed), so only the other checks can see it."""
    body = bytearray(path.read_bytes())[:-32]
    corrupt(body)
    body += hashlib.sha256(body).digest()
    path.write_bytes(bytes(body))


def _in_section(ds, section, corrupt):
    def apply(raw):
        offset, dtype, count = _sections(ds)[section]
        corrupt(np.frombuffer(raw, dtype=dtype, count=count, offset=offset))
    return apply


def _swap(a, i, j):
    a[i], a[j] = a[j], a[i]


def _thresholds_error(path, capsys) -> str:
    capsys.readouterr()
    assert main(["thresholds", str(path)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err
    return err


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
    "label_utf8": ("label0", lambda a: a.__setitem__(0, 0xFF), "UTF-8"),
    "trailing": (None, None, "trailing bytes"),
}


def _abc_dataset():
    return tc.build_dataset(
        [("A", "t", 5), ("B", "t", 1), ("C", "t", 3)],
        [("A", "B", 1), ("A", "C", 2), ("B", "C", None)],
    )


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_structurally_corrupt_snapshot_exits_two(tmp_path, capsys, corruption):
    ds = _abc_dataset()
    section, corrupt, message = CORRUPTIONS[corruption]
    for version, write in WRITERS.items():
        path = tmp_path / f"snap{version}.cscd"
        write(ds, path)
        assert main(["thresholds", str(path)]) == 0
        if section is None:
            _corrupt_and_write(path, lambda raw: raw.extend(b"junk"))
        else:
            _corrupt_and_write(path, _in_section(ds, section, corrupt))
        assert message in _thresholds_error(path, capsys), version


# Label tables: A, B and "Cé" (é is two UTF-8 bytes), offsets 0 1 2 5.
LABEL_TABLE_CORRUPTIONS = {
    "offsets_start": (lambda a: a.__setitem__(0, 1), "start at 0"),
    "offsets_order": (lambda a: _swap(a, 1, 2), "never decrease"),
    "offset_in_character": (lambda a: a.__setitem__(2, 4), "inside a UTF-8 character"),
}


@pytest.mark.parametrize("corruption", sorted(LABEL_TABLE_CORRUPTIONS))
def test_corrupt_label_offsets_exit_two(tmp_path, capsys, corruption):
    ds = tc.build_dataset([("A", "t", 5), ("B", "t", 1), ("Cé", "t", 3)], [("A", "B")])
    path = tmp_path / "snap.cscd"
    save_snapshot(ds, path)
    corrupt, message = LABEL_TABLE_CORRUPTIONS[corruption]
    _corrupt_and_write(path, _in_section(ds, "user_offsets", corrupt))
    assert message in _thresholds_error(path, capsys)


def test_checksum_catches_a_cleared_first_flag(tmp_path, capsys):
    # Exposures need only the (user, tag) first-usage flags to be consistent
    # with the events, which no structural check sees; the checksum does.
    ds = _abc_dataset()
    path = tmp_path / "snap.cscd"
    save_snapshot(ds, path)
    raw = bytearray(path.read_bytes())
    offset = _sections(ds)["first"][0]
    assert raw[offset] == 1
    raw[offset] = 0
    path.write_bytes(bytes(raw))
    assert "checksum" in _thresholds_error(path, capsys)


@pytest.mark.parametrize("version", sorted(WRITERS))
def test_duplicate_labels_exit_two(tmp_path, capsys, version):
    ds = tc.build_dataset([("A", "a", 1), ("B", "b", 2)], [("A", "B")])
    path = tmp_path / "snap.cscd"
    WRITERS[version](ds, path)
    # the second tag, "b", becomes a second "a", under a valid checksum
    _corrupt_and_write(path, _in_section(ds, "tag_blob", lambda a: a.__setitem__(-1, ord("a"))))
    capsys.readouterr()
    assert main(["curve", str(path), "--tag", "a", "--bucket", "1"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "tag label" in err


@pytest.mark.parametrize("option", ["--out", "--per-user"])
def test_duplicate_user_labels_fail_thresholds_outputs(tmp_path, capsys, option):
    # The user labels are checked before the first one is written.
    ds = tc.build_dataset([("A", "a", 1), ("B", "b", 2)], [("A", "B")])
    path, out = tmp_path / "snap.cscd", tmp_path / "out.tsv"
    save_snapshot(ds, path)
    # the second user, "B", becomes a second "A", under a valid checksum
    _corrupt_and_write(path, _in_section(ds, "user_blob", lambda a: a.__setitem__(-1, ord("A"))))
    capsys.readouterr()
    assert main(["thresholds", str(path), option, str(out)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "user label" in err
    assert not out.exists()


_FUZZ_DATASET = tc.build_dataset([("A", "x", 5), ("Bé", "y", 1), ("C", "x", 3)],
                                 [("A", "Bé", 1), ("C", "A", None)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_single_byte_mutation_is_refused(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "snap.cscd"
    save_snapshot(_FUZZ_DATASET, path)
    raw = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError):
        load_snapshot(path)


def test_labels_are_decoded_only_when_used(tmp_path, monkeypatch, capsys):
    decoded = []  # the blob of each table split into labels
    split = events._split
    monkeypatch.setattr(events, "_split",
                        lambda blob, offsets: decoded.append(bytes(blob)) or split(blob, offsets))
    path = tmp_path / "snap.cscd"
    save_snapshot(_abc_dataset(), path)

    ds = load_snapshot(path)
    assert isinstance(ds.user_table, Labels) and isinstance(ds.tag_table, Labels)
    assert decoded == []
    tc.adoption_curve(ds, ds.tag_handle("t"), 1)
    assert decoded == [b"t"]

    loads = []
    monkeypatch.setattr(cli, "load_snapshot", lambda p: loads.append(load_snapshot(p)) or loads[-1])
    decoded.clear()
    assert main(["stats", str(path)]) == 0
    assert len(loads) == 1 and decoded == []
    # the guard sees a decode where one happens
    assert main(["thresholds", str(path), "--out", str(tmp_path / "e.tsv")]) == 0
    assert sorted(decoded) == [b"ABC", b"t"]
