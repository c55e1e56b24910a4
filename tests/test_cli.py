from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tagcascade
from tagcascade.cli import build_parser, main
from tagcascade.snapshot import load_snapshot


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
    ("n_users-bool", "n_users"),
    ("theta-bool", "theta"),
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
    elif damage == "label":  # a user who is no simulated node
        with open(out / "run_0001" / "adoptions.csv", "a", encoding="utf-8") as fh:
            fh.write("alice,sim,3\n")
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
        else:
            del manifest[damage]
        manifest_path.write_text(json.dumps(manifest))
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


_THRESHOLD = {"thresholds": {"kind": "constant", "c": 0.5}}
_ER = {"kind": "erdos_renyi", "n": 20, "mean_out_degree": 2}


@pytest.mark.parametrize("cfg,argv,code,message", [
    ({"graph": _ER, "model": "threshold", "params": _THRESHOLD, "seeds": {"users": [0, "u3"]}},
     (), 0, None),
    ({"graph": _ER, "model": "threshold", "params": {"thresholds": {"kind": "beta"}}}, (), 1,
     "unknown threshold distribution: 'beta'"),
    ({"graph": _ER, "model": "contagion", "params": _THRESHOLD}, (), 1,
     "unknown model: 'contagion'"),
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


def test_cascade_threads_env_does_not_change_results(snapshot, capsys, monkeypatch):
    _, base = _run(capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "20", "--seed", "3")
    monkeypatch.setenv("CASCADE_THREADS", "4")
    _, threaded = _run(capsys, "fit-powerlaw", str(snapshot), "--bootstrap", "20", "--seed", "3")
    assert threaded["result"] == base["result"]
    assert threaded["config"]["threads"] == 4


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
    assert ds.graph.out_degree(ds.user_handle("bob")) == 1
    assert ds.graph.out_degree(ds.user_handle("alice")) == 0

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


def test_cli_import_loads_neither_scipy_stats_nor_optimize():
    # both take about a second to import; the command line needs neither
    probe = ("import sys, tagcascade.cli; "
             "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    src = Path(tagcascade.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
