from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import tagcascade
import tagcascade.cli
from tagcascade.cli import build_parser, main
from tagcascade.events import build_dataset
from tagcascade.simulate import run_model
from tagcascade.snapshot import load_snapshot, save_snapshot
from tagcascade.textio import read_adoptions, read_follows
from oracles import giant_component_reference


def _write_inputs(tmp_path, bad_timestamp_row=False):
    rng = np.random.Generator(np.random.PCG64(44))
    users = [f"user{i:02d}" for i in range(25)]
    tags = [f"tag{i}" for i in range(8)]
    adoptions = tmp_path / "adoptions.csv"
    with open(adoptions, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "tag_id", "timestamp"])
        for _ in range(300):
            w.writerow([
                users[rng.integers(25)],
                tags[rng.integers(8)],
                int(rng.integers(0, 5000)),
            ])
        if bad_timestamp_row:
            w.writerow(["user00", "tag0", "not-a-timestamp"])
    follows = tmp_path / "follows.csv"
    with open(follows, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src_id", "dst_id"])
        for _ in range(150):
            w.writerow([users[rng.integers(25)], users[rng.integers(25)]])
    return adoptions, follows


def _run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else {})


@pytest.fixture
def snapshot(tmp_path, capsys):
    adoptions, follows = _write_inputs(tmp_path)
    snap = tmp_path / "data.cscd"
    code, _ = _run(capsys, "ingest", str(adoptions), str(follows), "--out", str(snap))
    assert code == 0
    return snap


# ---------------------------------------------------------------------------
# ingest / stats
# ---------------------------------------------------------------------------

def test_ingest_reports_counts_and_digests(tmp_path, capsys):
    adoptions, follows = _write_inputs(tmp_path)
    snap = tmp_path / "out.cscd"
    code, report = _run(capsys, "ingest", str(adoptions), str(follows), "--out", str(snap))
    assert code == 0
    assert report["result"]["total_usages"] == 300
    assert report["result"]["dropped_rows"] == 0
    assert len(report["inputs"]["adoptions"]["sha256"]) == 64
    assert snap.exists()
    assert load_snapshot(snap).n_events == 300


def test_ingest_drops_bad_rows_and_counts_them(tmp_path, capsys):
    adoptions, follows = _write_inputs(tmp_path, bad_timestamp_row=True)
    snap = tmp_path / "out.cscd"
    code, report = _run(capsys, "ingest", str(adoptions), str(follows), "--out", str(snap))
    assert code == 0
    assert report["result"]["dropped_rows"] == 1
    assert report["result"]["total_usages"] == 300


def test_ingest_strict_fails_on_bad_row(tmp_path, capsys):
    adoptions, follows = _write_inputs(tmp_path, bad_timestamp_row=True)
    code, _ = _run(capsys, "ingest", str(adoptions), str(follows),
                   "--out", str(tmp_path / "x.cscd"), "--strict")
    assert code == 2


def _int64_overflow_inputs(tmp_path):
    """Logs whose third row holds a time outside int64 milliseconds under
    --time-unit s, plus a clean log of each kind."""
    logs = {
        "bad_a": "user_id,tag_id,timestamp\nalice,x,1\nbob,x,99999999999999999999\n",
        "bad_f": "src_id,dst_id,since\nalice,bob,1\nbob,alice,9223372036854776\n",
        "ok_a": "user_id,tag_id,timestamp\nalice,x,1\n",
        "ok_f": "src_id,dst_id\n",
    }
    for name, text in logs.items():
        (tmp_path / f"{name}.csv").write_text(text)
    return {name: str(tmp_path / f"{name}.csv") for name in logs}


def test_ingest_drops_timestamp_outside_int64(tmp_path, capsys):
    logs = _int64_overflow_inputs(tmp_path)
    code, report = _run(capsys, "ingest", logs["bad_a"], logs["bad_f"],
                        "--out", str(tmp_path / "x.cscd"), "--time-unit", "s")
    assert code == 0
    assert report["result"]["dropped_adoption_rows"] == 1
    assert report["result"]["dropped_follow_rows"] == 1


def test_ingest_strict_timestamp_outside_int64_names_line(tmp_path, capsys):
    logs = _int64_overflow_inputs(tmp_path)
    for adoptions, follows in ((logs["bad_a"], logs["ok_f"]), (logs["ok_a"], logs["bad_f"])):
        code = main(["ingest", adoptions, follows, "--out", str(tmp_path / "y.cscd"),
                     "--strict", "--time-unit", "s"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: line 3:"), err


def test_ingest_refuses_overwrite_without_force(tmp_path, capsys, snapshot):
    adoptions, follows = _write_inputs(tmp_path)
    code, _ = _run(capsys, "ingest", str(adoptions), str(follows), "--out", str(snapshot))
    assert code == 2
    code, _ = _run(capsys, "ingest", str(adoptions), str(follows),
                   "--out", str(snapshot), "--force")
    assert code == 0


def test_ingest_missing_file_is_data_error(tmp_path, capsys):
    code, _ = _run(capsys, "ingest", str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv"),
                   "--out", str(tmp_path / "x.cscd"))
    assert code == 2


def test_ingest_malformed_header_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header,names\n")
    follows = tmp_path / "follows.csv"
    follows.write_text("src_id,dst_id\n")
    code, _ = _run(capsys, "ingest", str(bad), str(follows), "--out", str(tmp_path / "x.cscd"))
    assert code == 2


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    code = main(["stats", "--no-such-flag", "whatever"])
    assert code == 1


def test_stats_reports_density_and_giant_component(snapshot, capsys):
    code, report = _run(capsys, "stats", str(snapshot))
    assert code == 0
    r = report["result"]
    assert r["users"] == 25
    assert r["giant_component_users"] >= 2
    assert 0 < r["density_all"] < 1


# ---------------------------------------------------------------------------
# input digests
# ---------------------------------------------------------------------------

def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fill(fd: int, data: bytes) -> None:
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)


@pytest.fixture
def pipe():
    """Makes the /dev/fd path of a pipe that a thread fills with the given
    bytes, as a shell's `<(cat file)` does."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    ends, writers = [], []

    def make(data: bytes) -> str:
        read_end, write_end = os.pipe()
        ends.append(read_end)
        writers.append(threading.Thread(target=_fill, args=(write_end, data)))
        writers[-1].start()
        return f"/dev/fd/{read_end}"

    yield make
    for fd in ends:
        os.close(fd)
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_snapshot_commands_take_the_digest_from_the_load(snapshot, capsys, monkeypatch):
    # the report's digest comes from the one pass that loads the snapshot
    monkeypatch.setattr(tagcascade.cli, "file_digest", None)
    for argv in (["stats"], ["thresholds"], ["fit-powerlaw", "--bootstrap", "0", "--seed", "1"],
                 ["curve", "--tag", "tag0", "--bucket", "100"], ["correlate"]):
        code, report = _run(capsys, argv[0], str(snapshot), *argv[1:])
        assert code == 0, argv
        assert report["inputs"]["snapshot"] == {"path": str(snapshot), "sha256": _sha256(snapshot)}


def test_ingest_takes_the_digests_from_the_read(tmp_path, capsys, monkeypatch):
    # the report's digests come from the one pass that parses each CSV
    monkeypatch.setattr(tagcascade.cli, "file_digest", None)
    adoptions, follows = _write_inputs(tmp_path)
    code, report = _run(capsys, "ingest", str(adoptions), str(follows),
                        "--out", str(tmp_path / "d.cscd"))
    assert code == 0
    assert report["inputs"] == {
        "adoptions": {"path": str(adoptions), "sha256": _sha256(adoptions)},
        "follows": {"path": str(follows), "sha256": _sha256(follows)}}


def test_piped_inputs_report_no_digest_of_bytes_not_read(tmp_path, capsys, snapshot, pipe):
    adoptions, follows = _write_inputs(tmp_path)
    code, report = _run(capsys, "ingest", pipe(adoptions.read_bytes()),
                        pipe(follows.read_bytes()), "--out", str(tmp_path / "piped.cscd"))
    assert code == 0
    assert (tmp_path / "piped.cscd").read_bytes() == snapshot.read_bytes()
    assert [entry["sha256"] for entry in report["inputs"].values()] == [
        _sha256(adoptions), _sha256(follows)]

    code, report = _run(capsys, "stats", pipe(snapshot.read_bytes()))
    assert code == 0
    assert report["inputs"]["snapshot"]["sha256"] == _sha256(snapshot)

    code, report = _run(capsys, "simulate", "--config", pipe(_sim_config(tmp_path).read_bytes()),
                        "--seed", "1", "--out", str(tmp_path / "runs"))
    assert code == 0
    assert sorted(report["inputs"]["config"]) == ["path"]


def test_snapshot_replaced_after_load_reports_the_bytes_loaded(snapshot, tmp_path, capsys,
                                                               monkeypatch):
    loaded = _sha256(snapshot)
    other = tmp_path / "other.cscd"
    save_snapshot(build_dataset([("a", "x", 1)], []), other)

    def load_then_replace(path):
        ds = load_snapshot(path)
        os.replace(other, path)
        return ds

    monkeypatch.setattr(tagcascade.cli, "load_snapshot", load_then_replace)
    code, report = _run(capsys, "stats", str(snapshot))
    assert code == 0
    assert report["inputs"]["snapshot"]["sha256"] == loaded != _sha256(snapshot)


def test_csv_replaced_after_read_reports_the_bytes_parsed(tmp_path, capsys, monkeypatch):
    adoptions, follows = _write_inputs(tmp_path)
    parsed = _sha256(adoptions)
    other = tmp_path / "other.csv"
    other.write_text("user_id,tag_id,timestamp\na,x,1\n")

    def read_then_replace(path, **options):
        result = read_adoptions(path, **options)
        os.replace(other, path)
        return result

    monkeypatch.setattr(tagcascade.cli, "read_adoptions", read_then_replace)
    code, report = _run(capsys, "ingest", str(adoptions), str(follows),
                        "--out", str(tmp_path / "d.cscd"))
    assert code == 0
    assert report["result"]["total_usages"] == 300
    assert report["inputs"]["adoptions"]["sha256"] == parsed != _sha256(adoptions)


# ---------------------------------------------------------------------------
# thresholds / fit / curve / correlate
# ---------------------------------------------------------------------------

def test_thresholds_writes_all_outputs(snapshot, tmp_path, capsys):
    exp, per_user, summary = (tmp_path / n for n in ("e.tsv", "u.tsv", "s.json"))
    code, report = _run(
        capsys, "thresholds", str(snapshot),
        "--out", str(exp), "--per-user", str(per_user), "--summary", str(summary),
    )
    assert code == 0
    header = exp.read_text().splitlines()[0].split("\t")
    assert header == ["user", "tag", "time", "active_alters", "neighborhood_size",
                      "exposure", "tag_popularity_at_adoption"]
    lines = exp.read_text().splitlines()
    assert len(lines) - 1 == report["result"]["records_total"]
    summary_doc = json.loads(summary.read_text())
    assert {"per_adoption", "per_user", "records_defined"} <= set(summary_doc)


def test_thresholds_golden_stability(snapshot, tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        exp = tmp_path / f"{tag}.tsv"
        code, _ = _run(capsys, "thresholds", str(snapshot), "--out", str(exp))
        assert code == 0
        paths.append(exp)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_reports_identical_minus_timing(snapshot, capsys):
    _, r1 = _run(capsys, "thresholds", str(snapshot))
    _, r2 = _run(capsys, "thresholds", str(snapshot))
    r1.pop("timing")
    r2.pop("timing")
    assert r1 == r2


def test_fit_powerlaw_seeded_reports(snapshot, tmp_path, capsys):
    out = tmp_path / "fit.tsv"
    summary = tmp_path / "fit.json"
    code, report = _run(
        capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "10", "--seed", "5",
        "--out", str(out), "--summary", str(summary),
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    assert doc["alpha"] > 1
    assert doc["xmin"] >= 1
    assert 0 <= doc["gof_p"] <= 1
    # same seed, same result
    code, report2 = _run(capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "10", "--seed", "5")
    assert report2["result"] == report["result"]


def test_fit_powerlaw_random_seed_is_reported(snapshot, capsys):
    code, report = _run(capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "0")
    assert code == 0
    assert isinstance(report["config"]["seed"], int)


def test_curve_output(snapshot, tmp_path, capsys):
    out = tmp_path / "curve.tsv"
    code, report = _run(capsys, "curve", str(snapshot), "--tag", "tag0",
                        "--bucket", "1s", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split("\t")[0] == "time"
    assert report["result"]["final_saturation"] > 0


def test_curve_unknown_tag_is_data_error(snapshot, capsys):
    code, _ = _run(capsys, "curve", str(snapshot), "--tag", "missing", "--bucket", "1s")
    assert code == 2


@pytest.mark.parametrize("bucket,code", [
    ("9223372036854775807", 0),
    ("9223372036854775808", 2),
    ("99999999999999999999d", 2),
])
def test_curve_bucket_below_2_63_ms(snapshot, capsys, bucket, code):
    assert main(["curve", str(snapshot), "--tag", "tag0", "--bucket", bucket]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert json.loads(captured.out)["result"]["bucket_ms"] == 2**63 - 1
    else:
        assert captured.err == f"data error: duration {bucket!r} is not below 2^63 ms\n"


@pytest.mark.parametrize("bucket", ["\u0661\u0660s", "\uff11\uff10s", "1_0s"])
def test_curve_bucket_takes_ascii_digits_only(snapshot, capsys, bucket):
    assert main(["curve", str(snapshot), "--tag", "tag0", "--bucket", bucket]) == 2
    assert capsys.readouterr().err == f"data error: unparsable duration: {bucket!r}\n"


def test_correlate_output(snapshot, tmp_path, capsys):
    out = tmp_path / "corr.tsv"
    code, report = _run(capsys, "correlate", str(snapshot), "--bins", "6", "--out", str(out))
    assert code == 0
    assert -1 <= report["result"]["rho"] <= 1
    assert len(out.read_text().splitlines()) == 7  # header + bins


@pytest.mark.parametrize("command,stage,key,value,message", [
    ("correlate", "correlate", "bins", 0, "--bins must be >= 1"),
    ("correlate", "correlate", "bins", -1, "--bins must be >= 1"),
    ("fit-powerlaw", "fit", "bootstrap", -3, "--bootstrap must be >= 0"),
])
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, snapshot, command, stage, key,
                                              value, message):
    out = tmp_path / "out.tsv"
    assert main([command, str(snapshot), f"--{key}", str(value), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "pipe"), "snapshot": str(snapshot),
                                "stages": [{"stage": stage, key: value}]}))
    assert main(["pipeline", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"stage '{stage}' failed" in err and message in err


# ---------------------------------------------------------------------------
# simulate / recover
# ---------------------------------------------------------------------------

def _sim_config(tmp_path, model="threshold"):
    cfg = {
        "graph": {"kind": "erdos_renyi", "n": 80, "mean_out_degree": 5},
        "params": {"thresholds": {"kind": "uniform", "a": 0.0, "b": 1.0}, "p": 0.4},
        "seeds": {"k": 3},
        "max_steps": 40,
        "model": model,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_reingestible_runs(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "runs"
    code, report = _run(capsys, "simulate", "--model", "threshold", "--config", str(cfg),
                        "--runs", "3", "--seed", "9", "--out", str(out))
    assert code == 0
    run_dir = out / "run_0000"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["model"] == "threshold"
    assert len(manifest["theta"]) == 80
    with open(run_dir / "adoptions.csv") as fh:
        header = fh.readline().strip()
    assert header == "user_id,tag_id,timestamp"


@pytest.mark.parametrize("graph", [
    {"kind": "preferential_attachment", "n": 300, "m": 3},
    {"kind": "erdos_renyi", "n": 300, "mean_out_degree": 4},
], ids=["pa", "er"])
def test_in_memory_and_on_disk_round_trips_agree(tmp_path, capsys, monkeypatch, graph):
    runs = []  # the SimRun of each run the command writes

    def kept_run(cfg):
        runs.append(run_model(cfg))
        return runs[-1]

    monkeypatch.setattr(tagcascade.cli, "run_model", kept_run)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"graph": graph, "seeds": {"k": 4},
                               "params": {"thresholds": {"kind": "uniform", "a": 0.0, "b": 0.5}}}))
    out = tmp_path / "runs"
    code, _ = _run(capsys, "simulate", "--model", "threshold", "--config", str(cfg),
                   "--runs", "1", "--seed", "5", "--out", str(out))
    assert code == 0 and len(runs) == 1 and runs[0].n_adopters > 4
    save_snapshot(runs[0].to_dataset(), tmp_path / "memory.cscd")
    adoptions, _ = read_adoptions(out / "run_0000" / "adoptions.csv")
    follows, _ = read_follows(out / "run_0000" / "follows.csv")
    save_snapshot(build_dataset(adoptions, follows), tmp_path / "disk.cscd")
    assert (tmp_path / "memory.cscd").read_bytes() == (tmp_path / "disk.cscd").read_bytes()


def test_simulate_deterministic_output_bytes(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code, _ = _run(capsys, "simulate", "--model", "threshold", "--config", str(cfg),
                       "--runs", "2", "--seed", "31", "--out", str(out))
        assert code == 0
        outs.append(out)
    for rel in ("run_0000/adoptions.csv", "run_0000/manifest.json",
                "run_0001/adoptions.csv", "run_0001/follows.csv"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


def test_recover_zero_violations(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "runs"
    _run(capsys, "simulate", "--model", "threshold", "--config", str(cfg),
         "--runs", "3", "--seed", "9", "--out", str(out))
    rec = tmp_path / "rec.json"
    code, report = _run(capsys, "recover", "--runs", str(out), "--out", str(rec))
    assert code == 0
    doc = json.loads(rec.read_text())
    assert doc["violations"] == 0
    assert doc["runs"] == 3


_THETA_OVERFLOW = "2" + "0" * 308 + ".0"  # 2e308 with no exponent: past the largest float


# theta elements that are no number, or an integer that no float holds
_BAD_THETA = {"theta-str": "0.1", "theta-null": None, "theta-list": [0.1],
              "theta-object": {"theta": 0.1}, "theta-huge-int": 10**400}


@pytest.mark.parametrize("damage,named", [
    ("delete", "manifest.json"),
    ("not-json", "manifest.json"),
    ("files", "files"),
    ("theta", "theta"),
    ("n_users", "n_users"),
    ("seed_users", "seed_users"),
    ("short-theta", "theta"),
    ("files-list", "files"),
    ("label", "alice"),
    ("huge-label", "node ids reach past int64"),
    ("n_users-bool", "n_users"),
    ("theta-bool", "theta"),
    ("theta-str", "theta"),
    ("theta-null", "theta"),
    ("theta-list", "theta"),
    ("theta-object", "theta"),
    ("theta-huge-int", "theta"),
    ("theta-nan", "NaN"),
    ("theta-overflow", _THETA_OVERFLOW),
])
def test_recover_malformed_manifest_is_data_error(tmp_path, capsys, damage, named):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "runs"
    code, _ = _run(capsys, "simulate", "--config", str(cfg), "--runs", "2", "--seed", "9",
                   "--out", str(out))
    assert code == 0
    manifest_path = out / "run_0001" / "manifest.json"
    if damage == "delete":
        manifest_path.unlink()
    elif damage in ("label", "huge-label"):  # a user who is no simulated node
        user = "alice" if damage == "label" else "u99999999999999999999"  # past int64
        with open(out / "run_0001" / "adoptions.csv", "a", encoding="utf-8") as fh:
            fh.write(f"{user},sim,3\n")
    elif damage == "not-json":
        manifest_path.write_text("{truncated")
    else:
        manifest = json.loads(manifest_path.read_text())
        if damage == "short-theta":
            manifest["theta"] = manifest["theta"][:10]
        elif damage == "files-list":
            manifest["files"]["adoptions"] = [manifest["files"]["adoptions"]]
        elif damage == "n_users-bool":
            manifest["n_users"] = True
        elif damage == "theta-bool":
            manifest["theta"][0] = True
        elif damage in _BAD_THETA:
            manifest["theta"][5] = _BAD_THETA[damage]
        elif damage == "theta-nan":  # json.dumps writes NaN, which no JSON number is
            manifest["theta"] = [float("nan")] * len(manifest["theta"])
        elif damage == "theta-overflow":  # json.dumps cannot write it: put in as text
            manifest["theta"][3] = _MARK
        else:
            del manifest[damage]
        manifest_path.write_text(json.dumps(manifest).replace(json.dumps(_MARK), _THETA_OVERFLOW))
    code = main(["recover", "--runs", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "run_0001" in err and named in err


def test_recover_cascade_run_is_data_error(tmp_path, capsys):
    cfg = _sim_config(tmp_path, model="cascade")
    out = tmp_path / "cascade_runs"
    code, _ = _run(capsys, "simulate", "--config", str(cfg),
                   "--runs", "1", "--seed", "9", "--out", str(out))
    assert code == 0
    code, _ = _run(capsys, "recover", "--runs", str(out))
    assert code == 2


def test_simulate_invalid_json_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text("{not json")
    code, _ = _run(capsys, "simulate", "--model", "threshold", "--config", str(path),
                   "--runs", "1", "--seed", "1", "--out", str(tmp_path / "r"))
    assert code == 1


def test_simulate_missing_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "sim.json"
    graph = {"kind": "erdos_renyi", "n": 10, "mean_out_degree": 2}
    params = {"thresholds": {"kind": "constant", "c": 0.5}}
    for cfg in (
        {"graph": {"kind": "erdos_renyi", "n": 10}},
        [{"graph": graph}],  # not an object
        {"graph": graph, "params": params, "seeds": [3]},
        {"graph": [1], "params": params},
        {"graph": {**graph, "n": "many"}, "params": params},
        {"graph": graph, "params": params, "max_steps": "lots"},
        {"graph": graph, "params": params, "seeds": {"users": ["u1", "someone"]}},
        # numbers of the wrong JSON type, which int()/float() used to accept
        {"graph": {"kind": "preferential_attachment", "n": 10, "m": True}, "params": params},
        {"graph": {**graph, "n": "60"}, "params": params},
        {"graph": {**graph, "n": 10.0}, "params": params},
        {"graph": {**graph, "mean_out_degree": "2"}, "params": params},
        {"graph": {**graph, "mean_out_degree": True}, "params": params},
        {"graph": graph, "params": params, "max_steps": 2.9},
        {"graph": graph, "params": params, "seeds": {"k": True}},
        {"graph": graph, "params": {"thresholds": {"kind": "constant", "c": "0.5"}}},
        {"graph": graph, "params": {"thresholds": {"kind": "constant", "c": 10**400}}},
        {"graph": {"kind": "dataset", "snapshot": 5}, "params": params},
        {"graph": graph, "params": params, "shared_graph": "no"},
        # seed users that are neither an integer nor u + ASCII digits
        {"graph": {**graph, "n": 20}, "params": params, "seeds": {"users": [True]}},
        {"graph": {**graph, "n": 20}, "params": params, "seeds": {"users": [1.9]}},
        {"graph": {**graph, "n": 20}, "params": params, "seeds": {"users": ["u\uff11\uff12"]}},
        {"graph": {**graph, "n": 20}, "params": params, "seeds": {"users": ["u 12"]}},
    ):
        path.write_text(json.dumps(cfg))
        code, _ = _run(capsys, "simulate", "--model", "threshold", "--config", str(path),
                       "--runs", "1", "--seed", "1", "--out", str(tmp_path / "r"))
        assert code == 1, cfg
        assert not (tmp_path / "r").exists(), cfg


def test_simulate_shared_graph_generates_one_graph(tmp_path, capsys):
    cfg = {"graph": {"kind": "preferential_attachment", "n": 40, "m": 2},
           "params": {"thresholds": {"kind": "constant", "c": 0.5}}}
    for shared in (True, False):
        path = tmp_path / f"sim_{shared}.json"
        path.write_text(json.dumps({**cfg, "shared_graph": shared}))
        out = tmp_path / f"runs_{shared}"
        code, _ = _run(capsys, "simulate", "--model", "threshold", "--config", str(path),
                       "--runs", "2", "--seed", "4", "--out", str(out))
        assert code == 0
        follows = [(out / f"run_{r:04d}" / "follows.csv").read_bytes() for r in range(2)]
        assert (follows[0] == follows[1]) is shared


def test_simulate_missing_config_file_is_data_error(tmp_path, capsys):
    code, _ = _run(capsys, "simulate", "--model", "threshold",
                   "--config", str(tmp_path / "absent.json"),
                   "--runs", "1", "--seed", "1", "--out", str(tmp_path / "r"))
    assert code == 2


def test_simulate_learning_model_from_config(tmp_path, capsys):
    cfg = {
        "graph": {"kind": "erdos_renyi", "n": 50, "mean_out_degree": 4},
        "model": "learning",
        "params": {"thresholds": {"kind": "constant", "c": 0.2}, "lag": 1},
        "seeds": {"k": 2},
        "max_steps": 30,
    }
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    code, report = _run(capsys, "simulate", "--config", str(path), "--runs", "1",
                        "--seed", "2", "--out", str(out))
    assert code == 0
    assert report["result"]["model"] == "learning"


@pytest.mark.parametrize("users,code,message", [
    (["user03", "user00"], 0, None),
    ([True], 1, "usage error: seeds: users of a dataset graph must be labels, got True"),
    ([3], 1, "usage error: seeds: users of a dataset graph must be labels, got 3"),
    (["nobody"], 2, "data error: unknown user: 'nobody'"),
], ids=["labels", "bool", "int", "unknown"])
def test_dataset_graph_seed_users_are_labels(snapshot, tmp_path, capsys, users, code, message):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({
        "graph": {"kind": "dataset", "snapshot": str(snapshot)}, "model": "threshold",
        "params": {"thresholds": {"kind": "constant", "c": 0.5}}, "seeds": {"users": users},
    }))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(path), "--seed", "1", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 0:  # handles of the snapshot, in node order
        manifest = json.loads((out / "run_0000" / "manifest.json").read_text())
        assert manifest["seed_users"] == ["u0000000", "u0000003"]
    else:
        assert err.splitlines() == [message]
        assert not out.exists()


def test_dataset_graph_digest_names_the_snapshot_bytes(tmp_path, capsys):
    # two logs over the same users, so only the snapshot bytes differ
    digests = []
    for name, follows in (("one", [["a", "b"]]), ("two", [["b", "a"]])):
        (tmp_path / name).mkdir()
        snap = _ingest_rows(tmp_path / name, capsys, [["a", "x", 1], ["b", "x", 2]], follows)
        cfg = tmp_path / name / "sim.json"
        cfg.write_text(json.dumps({"graph": {"kind": "dataset", "snapshot": str(snap)},
                                   "model": "threshold", "params": _THRESHOLD}))
        out = tmp_path / name / "runs"
        code, report = _run(capsys, "simulate", "--config", str(cfg), "--seed", "1",
                            "--runs", "2", "--out", str(out))
        assert code == 0
        for run in ("run_0000", "run_0001"):
            graph = json.loads((out / run / "manifest.json").read_text())["graph"]
            assert graph == {"kind": "dataset", "snapshot": str(snap), "sha256": _sha256(snap)}
        assert report["inputs"]["graph_snapshot"] == {"path": str(snap), "sha256": _sha256(snap)}
        digests.append(_sha256(snap))
    assert digests[0] != digests[1]


_THRESHOLD = {"thresholds": {"kind": "constant", "c": 0.5}}
_ER = {"kind": "erdos_renyi", "n": 20, "mean_out_degree": 2}


@pytest.mark.parametrize("cfg,argv,code,message", [
    ({"graph": _ER, "model": "threshold", "params": _THRESHOLD, "seeds": {"users": [0, "u3"]}},
     (), 0, None),
    ({"graph": _ER, "model": "threshold", "params": {"thresholds": {"kind": "beta"}}}, (), 1,
     "unknown threshold distribution: 'beta'"),
    ({"graph": _ER, "model": "contagion", "params": _THRESHOLD}, (), 1,
     "model must be one of ('threshold', 'cascade', 'learning'), got 'contagion'"),
    ({"graph": {"kind": "lattice"}, "model": "threshold", "params": _THRESHOLD}, (), 1,
     "unknown graph kind: 'lattice'"),
    ({"graph": _ER, "model": "threshold", "params": _THRESHOLD, "seeds": {"users": "u3"}}, (), 1,
     "seeds: users must be a list, got 'u3'"),
    ({"graph": _ER, "params": _THRESHOLD}, (), 1, "no model given"),
    ({"graph": _ER, "model": "threshold", "params": _THRESHOLD}, ("--runs", "0"), 1,
     "--runs must be >= 1"),
], ids=["int-and-label-seeds", "threshold-kind", "model", "graph-kind", "users-not-list",
        "no-model", "zero-runs"])
def test_simulate_config_table(tmp_path, capsys, cfg, argv, code, message):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(path), "--seed", "1", "--out", str(out),
                 *argv]) == code
    err = capsys.readouterr().err
    if code == 0:  # seed users as a node id and as a simulated label
        manifest = json.loads((out / "run_0000" / "manifest.json").read_text())
        assert manifest["seed_users"] == ["u0000000", "u0000003"]
    else:
        assert err.startswith("usage error: ") and message in err, err


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pipeline_full_run(tmp_path, capsys):
    adoptions, follows = _write_inputs(tmp_path)
    cfg = {
        "seed": 7,
        "out_dir": str(tmp_path / "pipe"),
        "stages": [
            {"stage": "ingest", "adoptions": str(adoptions), "follows": str(follows)},
            {"stage": "thresholds"},
            {"stage": "fit", "bootstrap": 5},
            {"stage": "correlate", "bins": 5},
            {"stage": "simulate", "model": "threshold", "runs": 2,
             "graph": {"kind": "erdos_renyi", "n": 60, "mean_out_degree": 4},
             "params": {"thresholds": {"kind": "uniform", "a": 0, "b": 1}},
             "seeds": {"k": 2}, "max_steps": 30},
            {"stage": "recover"},
        ],
    }
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(cfg))
    code, report = _run(capsys, "pipeline", "--config", str(path))
    assert code == 0
    stages = [s["stage"] for s in report["result"]["stages"]]
    assert stages == ["ingest", "thresholds", "fit", "correlate", "simulate", "recover"]
    out_dir = tmp_path / "pipe"
    for name in ("snapshot.cscd", "exposures.tsv", "thresholds.tsv", "powerlaw.json",
                 "correlation.json", "recovery.json", "report.json"):
        assert (out_dir / name).exists(), name
    recovery = json.loads((out_dir / "recovery.json").read_text())
    assert recovery["violations"] == 0


def test_pipeline_single_ingest_stage_equals_ingest(tmp_path, capsys):
    adoptions, follows = _write_inputs(tmp_path)
    cfg = {
        "out_dir": str(tmp_path / "pipe"),
        "stages": [{"stage": "ingest", "adoptions": str(adoptions), "follows": str(follows)}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    for _ in range(2):  # a pipeline's ingest overwrites its snapshot
        code, report = _run(capsys, "pipeline", "--config", str(path))
        assert code == 0
    pipeline_result = report["result"]["stages"][0]["result"]

    snap = tmp_path / "direct.cscd"
    code, direct = _run(capsys, "ingest", str(adoptions), str(follows), "--out", str(snap))
    assert code == 0
    assert pipeline_result == direct["result"]
    assert (tmp_path / "pipe" / "snapshot.cscd").read_bytes() == snap.read_bytes()


def test_pipeline_empty_stages_is_usage_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    stages = [{"stage": "ingest", "adoptions": "a.csv", "follows": "f.csv"}]
    for cfg in (
        {"stages": []},
        [1, 2],  # not an object
        {"seed": "x", "out_dir": str(tmp_path / "pipe"), "stages": stages},
        {"out_dir": 5, "stages": stages},
        {"out_dir": str(tmp_path / "pipe"), "snapshot": 5, "stages": [{"stage": "thresholds"}]},
        {"out_dir": str(tmp_path / "pipe"),
         "stages": [{"stage": "ingest", "adoptions": ["a.csv"], "follows": "f.csv"}]},
        {"out_dir": str(tmp_path / "pipe"),
         "stages": [{"stage": "ingest", "adoptions": "a.csv", "follows": "f.csv",
                     "strict": "false"}]},
        {"out_dir": str(tmp_path / "pipe"), "snapshot": "s.cscd",
         "stages": [{"stage": "fit", "bootstrap": 2.7}]},
        {"out_dir": str(tmp_path / "pipe"), "snapshot": "s.cscd",
         "stages": [{"stage": "fit", "bootstrap": True}]},
        {"out_dir": str(tmp_path / "pipe"), "snapshot": "s.cscd",
         "stages": [{"stage": "correlate", "bins": "10"}]},
    ):
        path.write_text(json.dumps(cfg))
        code, _ = _run(capsys, "pipeline", "--config", str(path))
        assert code == 1, cfg


def test_pipeline_unknown_stage_is_usage_error(tmp_path, capsys, snapshot):
    adoptions, follows = _write_inputs(tmp_path)
    path = tmp_path / "p.json"
    for stage in (
        {"stage": "frobnicate"},
        "ingest",  # not an object
        {"stage": "ingest", "follows": str(follows)},  # no adoptions
        {"stage": "ingest", "adoptions": str(adoptions), "follows": str(follows),
         "time_unit": "fortnights"},
        {"stage": "thresholds", "ties": "bogus"},
        {"stage": "fit", "bootstrap": "many"},
        {"stage": "simulate", "runs": "several", "model": "threshold",
         "graph": {"kind": "erdos_renyi", "n": 20, "mean_out_degree": 2},
         "params": {"thresholds": {"kind": "constant", "c": 0.5}}},
    ):
        path.write_text(json.dumps({
            "out_dir": str(tmp_path / "pipe"), "snapshot": str(snapshot), "stages": [stage],
        }))
        code, _ = _run(capsys, "pipeline", "--config", str(path))
        assert code == 1, stage
        assert not (tmp_path / "pipe").exists(), stage  # rejected before any stage ran


def test_pipeline_stage_failure_names_stage(tmp_path, capsys):
    adoptions, follows = _write_inputs(tmp_path, bad_timestamp_row=True)
    path = tmp_path / "p.json"
    for stage in (
        {"stage": "ingest", "adoptions": "missing.csv", "follows": "missing.csv"},
        {"stage": "ingest", "adoptions": str(adoptions), "follows": str(follows), "strict": True},
    ):
        path.write_text(json.dumps({"out_dir": str(tmp_path / "pipe"), "stages": [stage]}))
        code = main(["pipeline", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2, stage
        assert "stage 'ingest'" in err


def test_stats_of_one_user_has_no_density(tmp_path, capsys):
    (tmp_path / "a.csv").write_text("user_id,tag_id,timestamp\nalice,x,1\n")
    (tmp_path / "f.csv").write_text("src_id,dst_id\n")
    snap = tmp_path / "one.cscd"
    assert main(["ingest", str(tmp_path / "a.csv"), str(tmp_path / "f.csv"),
                 "--out", str(snap)]) == 0
    capsys.readouterr()
    code, report = _run(capsys, "stats", str(snap))
    assert code == 0
    assert report["result"]["giant_component_users"] == 1
    assert report["result"]["density_all"] is None
    assert report["result"]["density_giant_component"] is None


def test_recover_without_runs_is_data_error(tmp_path, capsys):
    assert main(["recover", "--runs", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"data error: no run_* directories under {tmp_path}\n"


def test_pipeline_stage_without_snapshot_is_usage_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"out_dir": str(tmp_path / "pipe"),
                                "stages": [{"stage": "thresholds"}]}))
    assert main(["pipeline", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: stage 'thresholds' needs a snapshot"), err
    assert not (tmp_path / "pipe").exists()


# ---------------------------------------------------------------------------
# hostile config values
# ---------------------------------------------------------------------------

# JSON texts put in place of one config value each. 1e309, 1e349 written
# out with a 2-digit exponent, and NaN are no number a float holds, so the
# config is refused as a whole (exit 1). json.dumps cannot write 1e309, so
# every value goes in as text.
_NO_FLOAT = ("1e309", "1" + "0" * 250 + "e99", "NaN")
_HOSTILE = ("null", "true", "0", "-1", "3", "2.5", *_NO_FLOAT, '"x"', '""', "[]", "{}",
            "[1]", '{"a": 1}')
_MARK = "\0hostile"


def _key_paths(value, path=()):
    """The path of every value inside `value`, a JSON object or list."""
    for key, inner in (value.items() if isinstance(value, dict) else enumerate(value)):
        yield path + (key,)
        if isinstance(inner, (dict, list)):
            yield from _key_paths(inner, path + (key,))


def _hostile_configs(cfg):
    """(label, JSON text) of `cfg` with each of its values in turn replaced
    by each hostile value."""
    for path in _key_paths(cfg):
        for text in _HOSTILE:
            copy = json.loads(json.dumps(cfg))
            inner = copy
            for key in path[:-1]:
                inner = inner[key]
            inner[path[-1]] = _MARK
            yield f"{'.'.join(map(str, path))}={text}", json.dumps(copy).replace(
                json.dumps(_MARK), text)


def _check_exit(capsys, code, label):
    """The exit code is 0, 1 or 2, and 1 for a number no float holds; a
    failure prints one line naming its kind."""
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (label, code, err)
    if label.endswith(_NO_FLOAT):
        assert code == 1, (label, code, err)
    if code:
        prefix = "usage error: " if code == 1 else "data error: "
        assert len(err.splitlines()) == 1 and err.startswith(prefix), (label, err)


def test_hostile_simulation_config_values(snapshot, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph = {"kind": "erdos_renyi", "n": 20, "mean_out_degree": 2}
    configs = {
        "threshold": {"graph": graph, "model": "threshold", "max_steps": 10, "seeds": {"k": 2},
                      "params": {"thresholds": {"kind": "truncnorm", "mu": 0.4, "sigma": 0.2}}},
        "learning": {"graph": {"kind": "preferential_attachment", "n": 20, "m": 2},
                     "model": "learning", "shared_graph": True, "seeds": {"users": [0, "u3"]},
                     "params": {"thresholds": {"kind": "constant", "c": 0.3}, "lag": 1}},
        "dataset": {"graph": {"kind": "dataset", "snapshot": str(snapshot)}, "model": "threshold",
                    "seeds": {"users": ["user03"]},
                    "params": {"thresholds": {"kind": "uniform", "a": 0.1, "b": 0.6}}},
        "cascade": {"graph": graph, "model": "cascade", "seeds": {"k": 1}, "params": {"p": 0.5}},
    }
    case = 0
    for name, cfg in configs.items():
        for label, text in _hostile_configs(cfg):
            case += 1
            path, out = tmp_path / f"sim{case}.json", tmp_path / f"runs{case}"
            path.write_text(text)
            argv = ["simulate", "--config", str(path), "--runs", "2", "--seed", "1",
                    "--out", str(out)]
            code = main(argv)
            _check_exit(capsys, code, f"{name}: {label}")
            if label.startswith("model="):  # checked alike when --model overrides it
                flagged = main(argv + ["--model", cfg["model"]])
                _check_exit(capsys, flagged, f"{name}: --model, {label}")
                assert code == flagged == 1, (name, label)
            if code == 0 and name != "cascade":  # the planted thresholds hold
                code = main(["recover", "--runs", str(out)])
                assert code == 0, (name, label, capsys.readouterr().err)
                capsys.readouterr()
    assert case > 500


def test_hostile_pipeline_config_values(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    adoptions, follows = _write_inputs(tmp_path)
    cfg = {"seed": 5, "out_dir": "OUT", "stages": [
        {"stage": "ingest", "adoptions": str(adoptions), "follows": str(follows),
         "time_unit": "s", "strict": False},
        {"stage": "thresholds", "ties": "inclusive", "popularity": "usages"},
        {"stage": "fit", "bootstrap": 2},
        {"stage": "correlate", "bins": 3, "method": "pearson"},
        {"stage": "simulate", "model": "threshold", "runs": 1,
         "graph": {"kind": "erdos_renyi", "n": 20, "mean_out_degree": 2},
         "params": {"thresholds": {"kind": "constant", "c": 0.5}}},
        {"stage": "recover", "ties": "strict"},
    ]}
    case = 0
    for label, text in _hostile_configs(cfg):
        case += 1
        path = tmp_path / f"pipeline{case}.json"
        path.write_text(text.replace('"OUT"', json.dumps(f"pipe{case}")))
        code = main(["pipeline", "--config", str(path)])
        _check_exit(capsys, code, label)
        if label.startswith("seed="):  # checked alike when --seed overrides it
            flagged = main(["pipeline", "--config", str(path), "--seed", "3"])
            _check_exit(capsys, flagged, f"--seed, {label}")
            assert code == flagged, label
    assert case > 200


def test_cascade_threads_env_does_not_change_results(snapshot, capsys, monkeypatch):
    _, base = _run(capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "20", "--seed", "3")
    monkeypatch.setenv("CASCADE_THREADS", "4")
    _, threaded = _run(capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "20", "--seed", "3")
    assert threaded["result"] == base["result"]
    assert threaded["config"]["threads"] == 4


@pytest.mark.parametrize("argv,seed", [
    (["simulate", "--config", "sim.json", "--seed", "-1", "--out", "runs"], -1),
    (["fit-powerlaw", "SNAPSHOT", "--seed", "-5"], -5),
    (["pipeline", "--config", "pipeline.json"], -1),
], ids=["simulate", "fit-powerlaw", "pipeline-key"])
def test_negative_seed_is_usage_error(snapshot, tmp_path, capsys, monkeypatch, argv, seed):
    monkeypatch.chdir(tmp_path)
    _sim_config(tmp_path)
    (tmp_path / "pipeline.json").write_text(json.dumps(
        {"seed": -1, "snapshot": str(snapshot), "stages": [{"stage": "fit"}]}))
    argv = [str(snapshot) if arg == "SNAPSHOT" else arg for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"usage error: seed must be >= 0, got {seed}"]
    assert not (tmp_path / "runs").exists() and not (tmp_path / "cascade_out").exists()


def test_invalid_cascade_threads_is_usage_error(snapshot, capsys, monkeypatch):
    monkeypatch.setenv("CASCADE_THREADS", "many")
    code, _ = _run(capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "0")
    assert code == 1


def test_internal_error_exits_three(snapshot, capsys, monkeypatch):
    import tagcascade.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "stage_stats", boom)
    code = main(["stats", str(snapshot)])
    assert code == 3
    assert "internal error" in capsys.readouterr().err


def test_unwritable_report_exits_three(snapshot, tmp_path, capsys):
    code = main(["stats", str(snapshot), "--report", str(tmp_path / "missing" / "r.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("internal error: FileNotFoundError")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_ingest_reverse_and_mutual_flags(tmp_path, capsys):
    adoptions = tmp_path / "a.csv"
    adoptions.write_text("user_id,tag_id,timestamp\nalice,x,1\n")
    follows = tmp_path / "f.csv"
    follows.write_text("src_id,dst_id\nalice,bob\n")

    snap_rev = tmp_path / "rev.cscd"
    code, _ = _run(capsys, "ingest", str(adoptions), str(follows),
                   "--out", str(snap_rev), "--reverse-edges")
    assert code == 0
    ds = load_snapshot(snap_rev)
    degree = ds.graph.out_degrees()
    assert degree[ds.user_handle("bob")] == 1
    assert degree[ds.user_handle("alice")] == 0

    snap_mut = tmp_path / "mut.cscd"
    code, report = _run(capsys, "ingest", str(adoptions), str(follows),
                        "--out", str(snap_mut), "--mutual-edges")
    assert code == 0
    assert report["result"]["follow_edges"] == 2


def test_quoted_labels_survive_cli_round_trip(tmp_path, capsys):
    adoptions = tmp_path / "a.csv"
    with open(adoptions, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "tag_id", "timestamp"])
        w.writerow(["u,comma", "tag,comma", 5])
        w.writerow(["plain", "tag,comma", 9])
    follows = tmp_path / "f.csv"
    follows.write_text("src_id,dst_id\n")
    snap = tmp_path / "q.cscd"
    code, _ = _run(capsys, "ingest", str(adoptions), str(follows), "--out", str(snap))
    assert code == 0
    ds = load_snapshot(snap)
    assert "u,comma" in ds.user_labels
    assert "tag,comma" in ds.tag_labels


def _ingest_rows(tmp_path, capsys, adoptions, follows):
    """The snapshot of adoption and follow rows written with csv.writer."""
    paths = []
    for name, header, rows in (("a.csv", ["user_id", "tag_id", "timestamp"], adoptions),
                               ("f.csv", ["src_id", "dst_id"], follows)):
        paths.append(tmp_path / name)
        with open(paths[-1], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + rows)
    snap = tmp_path / "d.cscd"
    code, _ = _run(capsys, "ingest", *map(str, paths), "--out", str(snap))
    assert code == 0
    return snap


def test_thresholds_refuses_labels_no_tsv_cell_can_hold(tmp_path, capsys):
    # A tab would add a field and a line break would split a row, so the
    # exposures TSV is refused, naming the label, before it is opened.
    snap = _ingest_rows(tmp_path, capsys, [["a\tb", "d\ne", 5], ["plain", "d\ne", 9]],
                        [["a\tb", "plain"]])
    out = tmp_path / "exp.tsv"
    assert main(["thresholds", str(snap), "--out", str(out)]) == 2
    assert "data error: user label 'a\\tb' holds a tab or a line break" in capsys.readouterr().err
    assert not out.exists()


def test_a_line_break_in_a_label_not_written_is_no_error(tmp_path, capsys):
    snap = _ingest_rows(tmp_path, capsys, [["u1", "d\re", 5], ["u2", "t", 9]],
                        [["u1", "u2"], ["u2", "x\ny"]])
    per_user, out = tmp_path / "per_user.tsv", tmp_path / "exp.tsv"
    code, _ = _run(capsys, "thresholds", str(snap), "--per-user", str(per_user))
    assert code == 0
    assert per_user.read_text().splitlines()[1:] == ["u1\t0.0\t1\t0", "u2\t0.0\t1\t0"]
    assert main(["thresholds", str(snap), "--out", str(out)]) == 2
    assert "data error: tag label 'd\\re' holds a tab or a line break" in capsys.readouterr().err


def test_snapshot_roundtrip_equals_direct_build(snapshot, tmp_path, capsys):
    import tagcascade as tc

    ds = load_snapshot(snapshot)
    rows = list(ds.adoption_rows())
    edges = list(ds.follow_rows())
    direct = tc.build_dataset(rows, edges)
    assert direct.user_labels == ds.user_labels
    np.testing.assert_array_equal(direct.event_time, ds.event_time)
    np.testing.assert_array_equal(direct.graph.dst, ds.graph.dst)


def _outcome(capsys, argv) -> tuple:
    """(exit code, stdout with a report's timing removed, stderr)."""
    code = main(argv)
    out, err = capsys.readouterr()
    if out.startswith("{"):
        report = json.loads(out)
        del report["timing"]
        out = report
    return code, out, err


def test_one_parser_serves_a_sequence_of_commands(snapshot, capsys):
    # The parser is built once per process; a usage error, a command and
    # --version run in turn on it give what each gives on a fresh parser.
    sequence = [["stats", str(snapshot), "--bogus"], ["stats", str(snapshot)], ["--version"]]
    separate = []
    for argv in sequence:
        build_parser.cache_clear()
        separate.append(_outcome(capsys, argv))
    parser = build_parser()
    assert [_outcome(capsys, argv) for argv in sequence] == separate
    assert build_parser() is parser
    assert [code for code, _, _ in separate] == [1, 0, 0]
    assert "usage error: unrecognized arguments: --bogus" in separate[0][2]
    assert separate[2][1] == f"tagcascade {tagcascade.__version__}\n"


def _fresh_env() -> dict:
    src = Path(tagcascade.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": str(src)}


def test_cli_import_loads_neither_scipy_nor_concurrent_futures():
    # scipy.stats and scipy.optimize take about a second to import and
    # scipy.special about 0.2 s; only fit-powerlaw needs scipy.special, and
    # only threaded bootstraps a thread pool, so each loads on first use
    probe = ("import sys, tagcascade.cli; print([m for m in ('scipy', 'scipy.special', "
             "'scipy.stats', 'scipy.optimize', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(), capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fit_powerlaw_in_a_fresh_process_equals_in_process(snapshot, tmp_path, capsys,
                                                           monkeypatch):
    # The fit needs no scipy: the fresh process has loaded no scipy module
    # when main returns, and gives the same report and files as this one.
    argv = ["fit-powerlaw", str(snapshot), "--bootstrap", "20", "--seed", "5",
            "--out", "fit.tsv", "--summary", "fit.json"]
    probe = ("import sys, tagcascade.cli; code = tagcascade.cli.main(sys.argv[1:]); "
             "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']; sys.exit(code)")
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    out = subprocess.run([sys.executable, "-c", probe, *argv], cwd=fresh, env=_fresh_env(),
                         capture_output=True, text=True, check=True)
    monkeypatch.chdir(here)
    code, report = _run(capsys, *argv)
    assert code == 0
    fresh_report = json.loads(out.stdout)
    del fresh_report["timing"], report["timing"]
    assert fresh_report == report
    for name in ("fit.tsv", "fit.json"):
        assert (fresh / name).read_bytes() == (here / name).read_bytes()


_STATS_GRAPHS = {
    # two components of two users each: the one holding handle 0 wins
    "tie": ("a,x,1\nb,x,2\nc,x,3\nd,x,4\n", "src_id,dst_id\na,d\nb,c\nc,b\n"),
    # users that only adopt sit outside every edge
    "isolated": ("e,x,1\nf,y,2\na,x,3\n",
                 "src_id,dst_id\na,b\nb,c\nc,a\nc,d\nd,d\n"),
    "no-edges": ("a,x,1\nb,x,2\nc,y,3\n", "src_id,dst_id\n"),
    "one-user": ("alice,x,1\n", "src_id,dst_id\n"),
    # repeated edges with other times are dropped; a missing time is "always"
    "timed": ("p,x,5\nq,x,6\nr,y,7\ns,y,8\nt,x,9\n",
              "src_id,dst_id,since\np,q,3\nq,p,1\np,q,1\nr,s,\ns,t,2\nt,r,4\nr,s,8\n"),
}


@pytest.mark.parametrize("case", sorted(_STATS_GRAPHS))
def test_stats_giant_component_matches_union_find_reference(tmp_path, capsys, case):
    adoptions, follows = _STATS_GRAPHS[case]
    (tmp_path / "a.csv").write_text("user_id,tag_id,timestamp\n" + adoptions)
    (tmp_path / "f.csv").write_text(follows)
    snap = tmp_path / "d.cscd"
    assert main(["ingest", str(tmp_path / "a.csv"), str(tmp_path / "f.csv"),
                 "--out", str(snap)]) == 0
    capsys.readouterr()
    code, report = _run(capsys, "stats", str(snap))
    assert code == 0

    ds = load_snapshot(snap)
    pairs = {(ds.user_handle(a), ds.user_handle(b))
             for a, b, *_ in (line.split(",") for line in follows.splitlines()[1:]) if a != b}
    members = giant_component_reference(ds.n_users, sorted(pairs))
    k = len(members)
    inside = sum(a in members and b in members for a, b in pairs)
    r = report["result"]
    assert r["giant_component_users"] == k
    assert r["density_giant_component"] == (inside / (k * (k - 1)) if k >= 2 else None)
    if k >= 2:
        assert tagcascade.density(ds, "giant_component") == r["density_giant_component"]
