"""The benchmark's tracer finds its layers by name: every `module.function`
that perfbench/spans.py traces or hooks must exist in tagcascade, so that
renaming a traced entry point fails here and not only in a traced run. The
CLI must also keep calling the ingest and result entry points, or their
layers stay empty in a traced run."""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
from pathlib import Path

from tagcascade.cli import main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist_in_tagcascade():
    spans = _load_spans()
    names = {f for funcs in spans.LAYERS.values() for f in funcs} | set(spans.HOOKS)
    assert names
    missing = []
    for name in sorted(names):
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"tagcascade.{module_name}")
        fn = getattr(module, func_name, None)
        # The tracer matches a function by its __module__ and __name__.
        if not (callable(fn) and fn.__module__ == module.__name__ and fn.__name__ == func_name):
            missing.append(name)
    assert missing == []


_INGEST_ENTRIES = ("textio.read_adoptions", "textio.read_follows", "events.build_dataset",
                   "events.build_follower_graph")


def _record_calls(monkeypatch, names) -> dict:
    """Rebind each function, in every tagcascade module that holds it, as
    the tracer does, to a wrapper that records each call's result."""
    results: dict = {name: [] for name in names}
    for name in names:
        module_name, func_name = name.split(".")
        fn = getattr(importlib.import_module(f"tagcascade.{module_name}"), func_name)

        def recorded(*args, _fn=fn, _results=results[name], **kwargs):
            result = _fn(*args, **kwargs)
            _results.append(result)
            return result

        for loaded, module in list(sys.modules.items()):
            if loaded.split(".")[0] != "tagcascade":
                continue
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, recorded)
    return results


def _data_rows(path) -> int:
    return sum(1 for line in Path(path).read_text(encoding="utf-8").splitlines()[1:] if line)


def test_ingest_and_recover_call_the_traced_entries(tmp_path, monkeypatch, capsys):
    adoptions, follows = tmp_path / "a.csv", tmp_path / "f.csv"
    adoptions.write_text("user_id,tag_id,timestamp\na,x,1\nb,x,2\n\nc,y,3\na,y,4\n")
    follows.write_text("src_id,dst_id,since\na,b,1\nb,c,\nc,a,2\n")
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps({
        "graph": {"kind": "erdos_renyi", "n": 40, "mean_out_degree": 4},
        "params": {"thresholds": {"kind": "uniform", "a": 0.0, "b": 1.0}},
        "seeds": {"k": 3}, "max_steps": 20,
    }))
    runs = tmp_path / "runs"
    assert main(["simulate", "--model", "threshold", "--config", str(sim), "--runs", "2",
                 "--seed", "3", "--out", str(runs)]) == 0

    results = _record_calls(monkeypatch, _INGEST_ENTRIES)
    assert main(["ingest", str(adoptions), str(follows), "--out", str(tmp_path / "d.cscd")]) == 0
    assert [len(rows) for rows, _ in results["textio.read_adoptions"]] == [4]
    assert [len(rows) for rows, _ in results["textio.read_follows"]] == [3]
    assert len(results["events.build_dataset"]) == len(results["events.build_follower_graph"]) == 1

    results = _record_calls(monkeypatch, _INGEST_ENTRIES)
    assert main(["recover", "--runs", str(runs)]) == 0
    run_dirs = sorted(runs.glob("run_*"))
    assert [len(rows) for rows, _ in results["textio.read_adoptions"]] == [
        _data_rows(d / "adoptions.csv") for d in run_dirs]
    assert [len(rows) for rows, _ in results["textio.read_follows"]] == [
        _data_rows(d / "follows.csv") for d in run_dirs]
    assert len(results["events.build_dataset"]) == len(results["events.build_follower_graph"]) == 2
    capsys.readouterr()


_RESULT_ENTRIES = ("exposure.population_thresholds", "exposure.threshold_summary",
                   "stats.adoption_curve", "stats.popularity_threshold_correlation")


def test_result_commands_call_the_traced_entries(tmp_path, monkeypatch, capsys):
    adoptions, follows = tmp_path / "a.csv", tmp_path / "f.csv"
    adoptions.write_text("user_id,tag_id,timestamp\n" + "".join(
        f"{u},{x},{t}\n" for t, (u, x) in enumerate(
            zip("abcdefabcdefab", "xxxxyyyyzzxyyz"))))
    follows.write_text("src_id,dst_id\n" + "".join(
        f"{u},{v}\n" for u in "abcdef" for v in "abcdef" if u != v and (ord(u) + ord(v)) % 3))
    snap = str(tmp_path / "d.cscd")
    assert main(["ingest", str(adoptions), str(follows), "--out", snap]) == 0

    tsv = [str(tmp_path / f"{name}.tsv") for name in ("exposures", "per_user", "curve", "bins")]
    commands = [
        (["thresholds", snap, "--out", tsv[0], "--per-user", tsv[1]], tsv[:2],
         ("exposure.population_thresholds", "exposure.threshold_summary")),
        (["curve", snap, "--tag", "x", "--bucket", "2", "--out", tsv[2]], tsv[2:3],
         ("stats.adoption_curve",)),
        (["correlate", snap, "--bins", "3", "--out", tsv[3]], tsv[3:],
         ("stats.popularity_threshold_correlation",)),
    ]
    for argv, outputs, called in commands:
        results = _record_calls(monkeypatch, _RESULT_ENTRIES + ("textio.write_tsv",))
        assert main(argv) == 0, argv
        assert {name: len(results[name]) for name in _RESULT_ENTRIES} == {
            name: int(name in called) for name in _RESULT_ENTRIES}
        assert results["textio.write_tsv"] == [_data_rows(path) for path in outputs]
        assert all(n > 0 for n in results["textio.write_tsv"])
    capsys.readouterr()
