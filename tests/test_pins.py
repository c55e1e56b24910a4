"""Behaviour pins: SHA-256 digests of every command's outputs and run
reports, and of each subcommand's parser surface.

Each case runs `cascade` in-process inside a fresh temporary directory with
relative paths only, so the digests do not depend on where the tests run
(config files holding absolute paths would change the `sha256` fields of
the reports). Run reports are pinned without their `timing` key, the only
part that may differ between identical runs.

A pin changes only together with a deliberate output change that
CHANGES.md names; it is never edited to get past a failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

from tagcascade.cli import build_parser, main


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(text: str) -> str:
    report = json.loads(text)
    report.pop("timing")
    return _digest(json.dumps(report, indent=2, sort_keys=True).encode())


def _report_file_digest(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return _report_digest(fh.read())


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


def _tree_digest(root: str) -> str:
    """Digest of every file under `root`: relative path and bytes, in sorted
    order; JSON reports inside the tree are pinned without `timing`."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            if name == "report.json":
                h.update(_report_file_digest(path).encode())
            else:
                h.update(_file_digest(path).encode())
    return h.hexdigest()


def _cascade(*argv: str) -> str:
    """Run one command, require exit 0, and return its report's digest."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return _report_digest(out.getvalue())


def _write_log() -> None:
    """A 30-user log with same-timestamp co-adoptions (strict and inclusive
    ties differ) and repeated usages (adopters and usages differ)."""
    rng = np.random.Generator(np.random.PCG64(2024))
    users = [f"user{i:02d}" for i in range(30)]
    tags = [f"tag{i}" for i in range(10)]
    with open("adoptions.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["user_id", "tag_id", "timestamp"])
        for _ in range(400):
            tag = min(int(rng.zipf(1.6)), 10) - 1
            w.writerow([users[rng.integers(30)], tags[tag], int(rng.integers(0, 200)) * 10])
    with open("follows.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["src_id", "dst_id"])
        for _ in range(180):
            w.writerow([users[rng.integers(30)], users[rng.integers(30)]])


def _write_timed_follows() -> None:
    """Follows with a `since` column over the log's users: a quarter of the
    edges carry no `since` (always present), and half of the others start
    exactly at one of the observer's adoption times (the `since <= t`
    boundary). Needs the log from `_write_log`."""
    with open("adoptions.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    rng = np.random.Generator(np.random.PCG64(2025))
    users = [f"user{i:02d}" for i in range(30)]
    with open("follows_timed.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["src_id", "dst_id", "since"])
        for _ in range(240):
            src = users[rng.integers(30)]
            own = [t for u, _, t in rows if u == src]
            if rng.integers(4) == 0:
                since = ""
            elif own and rng.integers(2) == 0:
                since = own[rng.integers(len(own))]
            else:
                since = int(rng.integers(0, 200)) * 10
            w.writerow([src, users[rng.integers(30)], since])


def _write_sim_config(path: str, graph: dict, model: str) -> None:
    cfg = {
        "graph": graph,
        "model": model,
        "params": {"thresholds": {"kind": "uniform", "a": 0.0, "b": 0.6}, "p": 0.35, "lag": 1},
        "seeds": {"k": 3},
        "max_steps": 40,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CASCADE_THREADS", raising=False)
    _write_log()
    return tmp_path


@pytest.fixture
def snapshot(workdir):
    _cascade("ingest", "adoptions.csv", "follows.csv", "--out", "data.cscd")
    return "data.cscd"


# ---------------------------------------------------------------------------
# log measurement
# ---------------------------------------------------------------------------

def test_pin_ingest_and_stats(workdir):
    got = {
        "ingest.report": _cascade("ingest", "adoptions.csv", "follows.csv", "--out", "data.cscd",
                                  "--report", "ingest.json"),
        "ingest.report_file": _report_file_digest("ingest.json"),
        "ingest.snapshot": _file_digest("data.cscd"),
        "ingest_mutual.report": _cascade("ingest", "adoptions.csv", "follows.csv", "--out",
                                         "mutual.cscd", "--mutual-edges", "--time-unit", "s"),
        "ingest_mutual.snapshot": _file_digest("mutual.cscd"),
        "stats.report": _cascade("stats", "data.cscd"),
    }
    assert got == PINS["ingest_stats"]


@pytest.mark.parametrize("ties", ["strict", "inclusive"])
@pytest.mark.parametrize("popularity", ["adopters", "usages"])
def test_pin_thresholds(snapshot, ties, popularity):
    got = {
        "report": _cascade("thresholds", snapshot, "--out", "e.tsv", "--per-user", "u.tsv",
                           "--summary", "s.json", "--ties", ties, "--popularity", popularity),
        "exposures": _file_digest("e.tsv"),
        "per_user": _file_digest("u.tsv"),
        "summary": _file_digest("s.json"),
    }
    assert got == PINS[f"thresholds-{ties}-{popularity}"]


@pytest.mark.parametrize("ties", ["strict", "inclusive"])
@pytest.mark.parametrize("popularity", ["adopters", "usages"])
def test_pin_thresholds_timed_edges(workdir, ties, popularity):
    _write_timed_follows()
    _cascade("ingest", "adoptions.csv", "follows_timed.csv", "--out", "timed.cscd")
    got = {
        "snapshot": _file_digest("timed.cscd"),
        "report": _cascade("thresholds", "timed.cscd", "--out", "e.tsv", "--per-user", "u.tsv",
                           "--summary", "s.json", "--ties", ties, "--popularity", popularity),
        "exposures": _file_digest("e.tsv"),
        "per_user": _file_digest("u.tsv"),
        "summary": _file_digest("s.json"),
    }
    assert got == PINS[f"thresholds-timed-{ties}-{popularity}"]


def test_pin_fit_curve_correlate(snapshot):
    got = {
        "fit.report": _cascade("fit-powerlaw", snapshot, "--bootstrap", "10", "--seed", "5",
                               "--out", "fit.tsv", "--summary", "fit.json",
                               "--report", "fit_report.json"),
        "fit.tsv": _file_digest("fit.tsv"),
        "fit.json": _file_digest("fit.json"),
        "fit.report_file": _report_file_digest("fit_report.json"),
        "fit_usages.report": _cascade("fit-powerlaw", snapshot, "--popularity", "usages",
                                      "--bootstrap", "0", "--seed", "1"),
        "curve.report": _cascade("curve", snapshot, "--tag", "tag0", "--bucket", "100",
                                 "--out", "curve.tsv", "--summary", "curve.json"),
        "curve.tsv": _file_digest("curve.tsv"),
        "curve.json": _file_digest("curve.json"),
        "spearman.report": _cascade("correlate", snapshot, "--bins", "6", "--out", "sp.tsv",
                                    "--summary", "sp.json"),
        "spearman.tsv": _file_digest("sp.tsv"),
        "spearman.json": _file_digest("sp.json"),
        "pearson.report": _cascade("correlate", snapshot, "--method", "pearson", "--ties",
                                   "inclusive", "--popularity", "usages", "--out", "pe.tsv",
                                   "--summary", "pe.json"),
        "pearson.tsv": _file_digest("pe.tsv"),
        "pearson.json": _file_digest("pe.json"),
    }
    assert got == PINS["fit_curve_correlate"]


# ---------------------------------------------------------------------------
# simulation and recovery
# ---------------------------------------------------------------------------

GRAPHS = {
    "er": {"kind": "erdos_renyi", "n": 60, "mean_out_degree": 4},
    "pa": {"kind": "preferential_attachment", "n": 60, "m": 3},
    "dataset": {"kind": "dataset", "snapshot": "data.cscd"},
}

@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("model", ["threshold", "cascade", "learning"])
def test_pin_simulate(snapshot, graph, model):
    _write_sim_config("sim.json", GRAPHS[graph], model)
    got = {
        "report": _cascade("simulate", "--config", "sim.json", "--runs", "2", "--seed", "13",
                           "--out", "runs"),
        "runs": _tree_digest("runs"),
    }
    assert got == PINS[f"simulate-{graph}-{model}"]


def test_pin_recover(workdir):
    _write_sim_config("sim.json", GRAPHS["pa"], "threshold")
    _cascade("simulate", "--config", "sim.json", "--runs", "3", "--seed", "21", "--out", "runs")
    got = {
        "recover.report": _cascade("recover", "--runs", "runs", "--out", "rec.json",
                                   "--report", "rec_report.json"),
        "recover.json": _file_digest("rec.json"),
        "recover.report_file": _report_file_digest("rec_report.json"),
        "recover_inclusive.report": _cascade("recover", "--runs", "runs", "--ties", "inclusive"),
    }
    assert got == PINS["recover"]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_pin_pipeline_full(workdir):
    cfg = {
        "seed": 7,
        "out_dir": "pipe",
        "stages": [
            {"stage": "ingest", "adoptions": "adoptions.csv", "follows": "follows.csv"},
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
    with open("pipeline.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    got = {
        "report": _cascade("pipeline", "--config", "pipeline.json"),
        "out_dir": _tree_digest("pipe"),
    }
    assert got == PINS["pipeline_full"]


def test_pin_pipeline_options(snapshot):
    _write_sim_config("sim.json", GRAPHS["er"], "learning")
    _cascade("simulate", "--config", "sim.json", "--runs", "2", "--seed", "3", "--out", "given")
    cfg = {
        "out_dir": "pipe2",
        "snapshot": snapshot,
        "stages": [
            {"stage": "thresholds", "ties": "inclusive", "popularity": "usages"},
            {"stage": "fit", "popularity": "usages", "bootstrap": 3},
            {"stage": "correlate", "bins": 4, "method": "pearson", "ties": "inclusive"},
            {"stage": "recover", "runs": "given", "ties": "inclusive"},
        ],
    }
    with open("pipeline.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
    got = {
        "report": _cascade("pipeline", "--config", "pipeline.json", "--seed", "11"),
        "out_dir": _tree_digest("pipe2"),
    }
    assert got == PINS["pipeline_options"]


# ---------------------------------------------------------------------------
# parser surface
# ---------------------------------------------------------------------------

def _parser_surface() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    surface = {}
    for name, sp in sub.choices.items():
        surface[name] = {
            "help": helps.get(name),
            "options": [
                {
                    "option_strings": list(a.option_strings),
                    "dest": a.dest,
                    "default": a.default,
                    "choices": None if a.choices is None else list(a.choices),
                    "required": a.required,
                    "type": None if a.type is None else a.type.__name__,
                    "nargs": a.nargs,
                    "help": a.help,
                }
                for a in sp._actions
                if not isinstance(a, argparse._HelpAction)
            ],
        }
    return surface


def test_pin_parser_surface():
    surface = _parser_surface()
    got = {
        name: _digest(json.dumps(spec, sort_keys=True).encode())
        for name, spec in surface.items()
    }
    got["subcommands"] = " ".join(surface)
    assert got == PINS["parser"]


# Digests captured from the code before the command-table rewrite of cli.py;
# the thresholds-timed-* entries from the per-record exposure loop, before the
# sort-join kernel replaced it. A run report names the tool version, so every
# report digest changes with `__version__`; a digest of an output file changes
# only with that file.
PINS = {
    "ingest_stats": {
        "ingest.report": "ee698b8c146aaecb92c8c3e67563bd231329538bc8e0b26bdd544d98361d3192",
        "ingest.report_file": "ee698b8c146aaecb92c8c3e67563bd231329538bc8e0b26bdd544d98361d3192",
        "ingest.snapshot": "b98ae3cec53c10997f30b3bfaa4666a0886559a6c3b832db018dd0e0611ea36d",
        "ingest_mutual.report": "faeac76ed750b20995f3900b5bef69cbcd778997cbca57ee9a0ec7764838d18b",
        "ingest_mutual.snapshot": "146f01264b937fc3a94605c21fca04db223a8f6db654856a82c15633ffe40fc4",
        "stats.report": "78d243dee7a8276c6e5aff1408438423316d7535140acff661d6da2d44ca92a9",
    },
    "thresholds-strict-adopters": {
        "report": "22acff037597c149ed5efd50379069f9ff31ced4c260012a46db56f8976ea388",
        "exposures": "b27256118cadf02630905f3150f7fbf7e8c5a584ebb0e857a90f7a72acd593a9",
        "per_user": "c74428b33143e681bd2f725e2fa94e56721577b161120c0d3f7db0d8812c9074",
        "summary": "9644b4976da339da5cf4a05bf09624b6f3dedd4e7fc7c40cb60625dd2e2e999e",
    },
    "thresholds-strict-usages": {
        "report": "4136f78349309bd40c31e487a2824990781504092c36c47460a6f95a5b7cd61b",
        "exposures": "b401d67f6847bdefa99505d10a2fde05858b4e34f33f8cec39453011bf437d4b",
        "per_user": "c74428b33143e681bd2f725e2fa94e56721577b161120c0d3f7db0d8812c9074",
        "summary": "9644b4976da339da5cf4a05bf09624b6f3dedd4e7fc7c40cb60625dd2e2e999e",
    },
    "thresholds-inclusive-adopters": {
        "report": "e2c7b9602c2d8ae91094713c28bead92deebee4f4081df78ed8fe8b4e231effa",
        "exposures": "ac62098925616052092ef6aef974ef9102650b8942c9e9a8b497c53cb746083b",
        "per_user": "0cf9eae54839d4548c5dde4c380425e08d2b25166514340a4fac88731d87464d",
        "summary": "2edbeb2c726db6fcbc80dbd9ad34eb95d824cb2b19ab28203ad64a92a95e5eee",
    },
    "thresholds-inclusive-usages": {
        "report": "3d80d585494144b83f930680096a946a50f7031804b6a40125e8e543feea6fc9",
        "exposures": "cc2289a0e71f508ec675ad5b9ab5088edd579220e864b659234ecd7bc09bfbea",
        "per_user": "0cf9eae54839d4548c5dde4c380425e08d2b25166514340a4fac88731d87464d",
        "summary": "2edbeb2c726db6fcbc80dbd9ad34eb95d824cb2b19ab28203ad64a92a95e5eee",
    },
    "thresholds-timed-strict-adopters": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "b102a6a3333d0712a25164fa1cc469e845be7c9d593259d4192a2e9db677885b",
        "exposures": "71c6564146ca2c31ad08f55ba105f174d413e92af3bfbef8c3a037c15f045ce6",
        "per_user": "2b4e4f367db40486339c34626f1137d64789e7bf3c64c07d720f4da7099a3519",
        "summary": "c6f30a5523463afd6e165c3c31e2e516fd3c7277aee892a236dc131a6965c30a",
    },
    "thresholds-timed-strict-usages": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "b02991f91396934ca6ddd24d23fcf07b5bf786aa8f885b4b548ff5adba441b17",
        "exposures": "60dd905e9504a375d76bd5d17f6ed40e5b8aa71f5b588517e2ba53741ece75a2",
        "per_user": "2b4e4f367db40486339c34626f1137d64789e7bf3c64c07d720f4da7099a3519",
        "summary": "c6f30a5523463afd6e165c3c31e2e516fd3c7277aee892a236dc131a6965c30a",
    },
    "thresholds-timed-inclusive-adopters": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "1b86f38d9b87c26847d10a22491fd4733ed96e989c2aa6f6cbccee07e3c463bc",
        "exposures": "753d60bf644951e4339178c0ab94e75d5850ee04d9e3dfe3405a4eccc555000c",
        "per_user": "fe4b12439e1d6c9a58c636f7ad5dad4ae0fb24df981e1e4882caaea3eaf31f47",
        "summary": "2cf83fb9074e0301c89594fd3b34cb329c8afe2cb2042105c558d6254699e5de",
    },
    "thresholds-timed-inclusive-usages": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "ca7e25bda606303a52299ebef3fc3389e1afa95563ab835d38e7ad63392a0256",
        "exposures": "d97b1889dc8399af64ad19e091810b4a38c42b513ce9f20e5f63fb38c6a169e2",
        "per_user": "fe4b12439e1d6c9a58c636f7ad5dad4ae0fb24df981e1e4882caaea3eaf31f47",
        "summary": "2cf83fb9074e0301c89594fd3b34cb329c8afe2cb2042105c558d6254699e5de",
    },
    "fit_curve_correlate": {
        "fit.report": "785a815877ed777c96b48e4efdeabef4763b3b6aab3f481686eea0b6ef47fd29",
        "fit.tsv": "5ff09b5715d17d12af5deaa59ac305f26aae1e64516a74b5692934063f2b2506",
        "fit.json": "c0e87ed67b37b7b283fcf1de4d460d9b874e28f84677f25c7f795d54087cfff1",
        "fit.report_file": "785a815877ed777c96b48e4efdeabef4763b3b6aab3f481686eea0b6ef47fd29",
        "fit_usages.report": "45e215aa72c8dcd616e533577c59405e91c07b114a72b1077694da93c4c47e69",
        "curve.report": "7b911dcb41f653557e4de7d4034faad48cbc15b1b3340c1d84f2479dd37396be",
        "curve.tsv": "ebf56dfaac1edee103a248a7de6d80b4a3bba85c57d9ac8f43407bb181271cd8",
        "curve.json": "46622f8df490510d5763d692f8135291135cbdd49628b29368e097604f53cded",
        "spearman.report": "cf1702808398519d4994a0033f42ad2f68d07fb435e07f4a49682ca4661c4551",
        "spearman.tsv": "9a1b947bc5f9081a5bcb66bf60fb07cae7417c6e52bc3dbedf5d12a41b0a9ff0",
        "spearman.json": "b73264e72fd4efb15938eb210ce19debc1fc9bef8de674af41173a67fefa3d94",
        "pearson.report": "453a48e0a1732c8c8b6e5663d5ac7d965a3bb74b661c8bbdd96a9a09d77fd9c4",
        "pearson.tsv": "97345bac971e40249a01efe8d09ab0c310ddda903f2a7e48240bf4804f483c8f",
        "pearson.json": "483727e7a54a82d16ef8affaa58163ad7c53326d48f6c3282dd66165175496ae",
    },
    "simulate-dataset-threshold": {
        "report": "e4938aeee2075760181f37497ad680a2acac0a329c642023a60220fa23822df8",
        "runs": "982cfa537fe2e5c77d42b3e20267f157668195ec48bc3038ae35eb1948c2f10a",
    },
    "simulate-dataset-cascade": {
        "report": "f7096728cb7b83d81b8c4471c959913941e3e23d8e415ffea939e9ca12b234f2",
        "runs": "adae511a774c0d3fc19bd67facb449d965f1f8bf0b8d60973faf422ba49e89f5",
    },
    "simulate-dataset-learning": {
        "report": "73f2ceb8fa6684b4dfc0fdb4b060f888c9e86f070911618e255bc7541ee1f5c6",
        "runs": "bf198e3bc2d118b91856fc03eb5e298cacdc7b318048d210483a4efb0d8908d3",
    },
    "simulate-er-threshold": {
        "report": "c4e56ea658cca21f0da10407bccddfed6c1b2120859845e90a64ef18e8a33d53",
        "runs": "b291c634ad8d664f8ef47da17bace5d8efbfb88cbfd93c2a06fff32151d8b18e",
    },
    "simulate-er-cascade": {
        "report": "4e8f9885a806483a80fee1551e44c5ada29b160b408cddca204c1ccaefcef7c1",
        "runs": "b7b72407ee5a21e4cd4406dae106c517f72a8ef6bac1b9a1d6bbf03f121db5a9",
    },
    "simulate-er-learning": {
        "report": "75a3effeb3e7b4ca17242a0d6feb769afd89e47d54eaea73fb2a855753a380da",
        "runs": "cd9b91f35413ac28b240dc4ecf0903a09839fdb7824279d0defa2e62f2c9f00d",
    },
    "simulate-pa-threshold": {
        "report": "b9003ccc01466888436870de1c6f8710e1f0fdae210acb2a55595015fda7f2e4",
        "runs": "ed0c0c5b287947b771eb5a786a99bba71728040f3221a566d86797414862506d",
    },
    "simulate-pa-cascade": {
        "report": "c47ca4e629f62c056605cca5ab6d7e249e5c4a956c7815af7c0cf338fb6e7ebd",
        "runs": "848570a41036878657e4a18ae371f008512e9c524d876724f0acacf4c6e9999a",
    },
    "simulate-pa-learning": {
        "report": "7d81ea0df85af0a55630f6f729d7d2bc958ce06e0e682bd0762e5951fdb9196b",
        "runs": "fbc521965d05a0ded3f99d70445ff2e4192f19c17c766962b05fd1bbebe6d07a",
    },
    "recover": {
        "recover.report": "90299c5193be312f09668739673aac7abbc6b20e1d3b52f5c74e03760104b5b6",
        "recover.json": "253cd205c819e0e4bcdfed6f28bdbac3af81fdacd3395e731dbd1ea94f230bd3",
        "recover.report_file": "90299c5193be312f09668739673aac7abbc6b20e1d3b52f5c74e03760104b5b6",
        "recover_inclusive.report": "3c67d47538c060b6e33f75c6b34e68442e0ed16ba221b7a8c079b80768006d2c",
    },
    "pipeline_full": {
        "report": "501bf654b3bec04ad41bae3da49e60a7a0946eabf4241982d3b6290899db676b",
        "out_dir": "26282045d9fc82a85dcfcb6da3c061662091091ffeb1d4a0f6a4959f55bea36e",
    },
    "pipeline_options": {
        "report": "ee352bf221597c0514de46557ea37a14c7a1e16235b15ffb7eb9c1a8e5ae3acf",
        "out_dir": "0857158c56aa20b85ddf0be2598d21bab657645781e949ef18d2a19f0a77ef60",
    },
    "parser": {
        "ingest": "bd98bccc19097fdb3db697c68099a69c90441e77ab564faabdfcd004f287ad35",
        "stats": "622baa700b25f6bb52333b11dcf0309313f06ccf4add0947e460bf5f30d39e99",
        "thresholds": "3602789087a2346f20bd9a20e06c8f1c6d00f26aec085883c15d1ccf72f00955",
        "fit-powerlaw": "a60f8f57a1933ce66045ce76a1cf770ebe4127b9ef0c4ac3197210a2c7bbd5f7",
        "curve": "cf3b6a93d28d6214241d0f3d00d060e7d58b3270ce9c285243ddab6cec8d02ac",
        "correlate": "d7d9dd4febdc44f1c11276a4154acbbd5c44adc664c648a40f7897794e7f678d",
        "simulate": "4deb6d48e68fcf57bdc2728934814efdfd9f1d05cb157c2cec498018637526da",
        "recover": "01e51436138bb56bd01db6b5355740af19bcaaf3bd4fd7ad37101393b5b57457",
        "pipeline": "594327a8ceae8e0b747e2229af7962c32c50f8a92956d35b201f96cde6efdaeb",
        "subcommands": "ingest stats thresholds fit-powerlaw curve correlate simulate recover pipeline",
    },
}
