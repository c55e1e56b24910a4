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
# sort-join kernel replaced it.
PINS = {
    "ingest_stats": {
        "ingest.report": "c65e675035130a555a50f7a5a4525cf8f00776ab0ec69bbf33da7cad3b14e163",
        "ingest.report_file": "c65e675035130a555a50f7a5a4525cf8f00776ab0ec69bbf33da7cad3b14e163",
        "ingest.snapshot": "b98ae3cec53c10997f30b3bfaa4666a0886559a6c3b832db018dd0e0611ea36d",
        "ingest_mutual.report": "2249e074820257e5bbebfff3626ca6ab7b729168bf72c4f884a53de81e3214c6",
        "ingest_mutual.snapshot": "146f01264b937fc3a94605c21fca04db223a8f6db654856a82c15633ffe40fc4",
        "stats.report": "84e753e18c2c9772ebc485676f0da041cddd08dc49b8ed61a4e4e2e785ec710e",
    },
    "thresholds-strict-adopters": {
        "report": "f0f09038c13c2a0abbf32a4d82efbe59941641daccaffd160015b78289eeaa7d",
        "exposures": "b27256118cadf02630905f3150f7fbf7e8c5a584ebb0e857a90f7a72acd593a9",
        "per_user": "c74428b33143e681bd2f725e2fa94e56721577b161120c0d3f7db0d8812c9074",
        "summary": "9644b4976da339da5cf4a05bf09624b6f3dedd4e7fc7c40cb60625dd2e2e999e",
    },
    "thresholds-strict-usages": {
        "report": "faaf563c88fbfe5a74ed9304cd7afcbe8f3212334f686619de118f6224959850",
        "exposures": "b401d67f6847bdefa99505d10a2fde05858b4e34f33f8cec39453011bf437d4b",
        "per_user": "c74428b33143e681bd2f725e2fa94e56721577b161120c0d3f7db0d8812c9074",
        "summary": "9644b4976da339da5cf4a05bf09624b6f3dedd4e7fc7c40cb60625dd2e2e999e",
    },
    "thresholds-inclusive-adopters": {
        "report": "16d156d08fa1b710fe461a00af58b0f7545144d9fe63da6b311a447ddbfdf95a",
        "exposures": "ac62098925616052092ef6aef974ef9102650b8942c9e9a8b497c53cb746083b",
        "per_user": "0cf9eae54839d4548c5dde4c380425e08d2b25166514340a4fac88731d87464d",
        "summary": "2edbeb2c726db6fcbc80dbd9ad34eb95d824cb2b19ab28203ad64a92a95e5eee",
    },
    "thresholds-inclusive-usages": {
        "report": "0cc383fbb074b92c20042cd1c39f33da123fe588d6f284c49f5c4ccf66394036",
        "exposures": "cc2289a0e71f508ec675ad5b9ab5088edd579220e864b659234ecd7bc09bfbea",
        "per_user": "0cf9eae54839d4548c5dde4c380425e08d2b25166514340a4fac88731d87464d",
        "summary": "2edbeb2c726db6fcbc80dbd9ad34eb95d824cb2b19ab28203ad64a92a95e5eee",
    },
    "thresholds-timed-strict-adopters": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "90c03b9cbf84b94affc678507c981924c0bba5e1e6a4866d0e0958a640c175f2",
        "exposures": "71c6564146ca2c31ad08f55ba105f174d413e92af3bfbef8c3a037c15f045ce6",
        "per_user": "2b4e4f367db40486339c34626f1137d64789e7bf3c64c07d720f4da7099a3519",
        "summary": "c6f30a5523463afd6e165c3c31e2e516fd3c7277aee892a236dc131a6965c30a",
    },
    "thresholds-timed-strict-usages": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "f4af853e66699daa1b8b272bbf2eed750e1bf06324bcfccf3d45e9b7f01a5261",
        "exposures": "60dd905e9504a375d76bd5d17f6ed40e5b8aa71f5b588517e2ba53741ece75a2",
        "per_user": "2b4e4f367db40486339c34626f1137d64789e7bf3c64c07d720f4da7099a3519",
        "summary": "c6f30a5523463afd6e165c3c31e2e516fd3c7277aee892a236dc131a6965c30a",
    },
    "thresholds-timed-inclusive-adopters": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "6f71717585de7852db4f1e2815ed9ab1136cbaf9a4231863722705401c33d44e",
        "exposures": "753d60bf644951e4339178c0ab94e75d5850ee04d9e3dfe3405a4eccc555000c",
        "per_user": "fe4b12439e1d6c9a58c636f7ad5dad4ae0fb24df981e1e4882caaea3eaf31f47",
        "summary": "2cf83fb9074e0301c89594fd3b34cb329c8afe2cb2042105c558d6254699e5de",
    },
    "thresholds-timed-inclusive-usages": {
        "snapshot": "abc4fd7f2a2858878174352fbdeccf3464ee0912049d7e95ba5b0043e33f2480",
        "report": "afec526a06452d8cbd14db393cd3c2f66b44d5e86ff053fe8b79e6aa895cb36e",
        "exposures": "d97b1889dc8399af64ad19e091810b4a38c42b513ce9f20e5f63fb38c6a169e2",
        "per_user": "fe4b12439e1d6c9a58c636f7ad5dad4ae0fb24df981e1e4882caaea3eaf31f47",
        "summary": "2cf83fb9074e0301c89594fd3b34cb329c8afe2cb2042105c558d6254699e5de",
    },
    "fit_curve_correlate": {
        "fit.report": "738dcd8513794f2d1c392a6dc75b2276408d2666e271c5a2538e91543375c7c2",
        "fit.tsv": "5ff09b5715d17d12af5deaa59ac305f26aae1e64516a74b5692934063f2b2506",
        "fit.json": "c0e87ed67b37b7b283fcf1de4d460d9b874e28f84677f25c7f795d54087cfff1",
        "fit.report_file": "738dcd8513794f2d1c392a6dc75b2276408d2666e271c5a2538e91543375c7c2",
        "fit_usages.report": "2055df644438bf9ea7e32bcb952501a9f6a848eab1b0d1eaee7eff23ebc73a28",
        "curve.report": "07bae4111180907e9bb93b0446727ea1867d1512309c9ed122cb1db67f076d7e",
        "curve.tsv": "ebf56dfaac1edee103a248a7de6d80b4a3bba85c57d9ac8f43407bb181271cd8",
        "curve.json": "46622f8df490510d5763d692f8135291135cbdd49628b29368e097604f53cded",
        "spearman.report": "9fe658d0ac6e0b713830d72153c8b4ac2908af5466e217dd53a512a77032761a",
        "spearman.tsv": "9a1b947bc5f9081a5bcb66bf60fb07cae7417c6e52bc3dbedf5d12a41b0a9ff0",
        "spearman.json": "b73264e72fd4efb15938eb210ce19debc1fc9bef8de674af41173a67fefa3d94",
        "pearson.report": "9c112b237e1edf1bfc338e70b78530cbf2156d32ff7fc901415b2a367ea0293b",
        "pearson.tsv": "97345bac971e40249a01efe8d09ab0c310ddda903f2a7e48240bf4804f483c8f",
        "pearson.json": "483727e7a54a82d16ef8affaa58163ad7c53326d48f6c3282dd66165175496ae",
    },
    "simulate-dataset-threshold": {
        "report": "61c80a97e1da87cc1584b07b7b63c16d2542a2627f6b319119bcaa66dd00ce56",
        "runs": "982cfa537fe2e5c77d42b3e20267f157668195ec48bc3038ae35eb1948c2f10a",
    },
    "simulate-dataset-cascade": {
        "report": "d9306d56a48f0d76a3013c4fb3bdc750566fc20acff659406a097eff31a0a560",
        "runs": "adae511a774c0d3fc19bd67facb449d965f1f8bf0b8d60973faf422ba49e89f5",
    },
    "simulate-dataset-learning": {
        "report": "9fba7503b67690e6f5fa89da926582d30310aee2550b208188a110dfd7d5d661",
        "runs": "bf198e3bc2d118b91856fc03eb5e298cacdc7b318048d210483a4efb0d8908d3",
    },
    "simulate-er-threshold": {
        "report": "2037fa31fc9dea6c124bb02529f1719dfa5dd00ee41c59503b45e6ea67e064f4",
        "runs": "4504daff0b6e40fc7792383d360bee31682b39c92d43bf37638f683c7758b8a4",
    },
    "simulate-er-cascade": {
        "report": "13157f49b08a07c7d476af9d6e5cb227e6e92726cd61d7d87a458d0fd7e16dba",
        "runs": "aa4738fcabdb87b9d57bff6c00730715fcdfd91455367762acb794b55748931e",
    },
    "simulate-er-learning": {
        "report": "701243626d7d3b48f372d0260c0c6432d3b04cf3ea39c5e5863b6a5e1b601646",
        "runs": "c281745459d4f1e660e7202838dc167e4462bfc07379fbcd3a330c2de34c1fbf",
    },
    "simulate-pa-threshold": {
        "report": "6159a563690c411f86d8df565babb71cc14a2d01a92d28bb3674cce6355d3e36",
        "runs": "888cd56004b6eac40044250297aaa735acea8fbd75ad8952fb5615522e285496",
    },
    "simulate-pa-cascade": {
        "report": "fee2d6307edf5e345167cd7e24e5976b787acb2ba174ab3ea3053216c6967312",
        "runs": "f830d04df88b0ea41156e37d5763cf34d5b3cb4329bf4d06f0f849123b098946",
    },
    "simulate-pa-learning": {
        "report": "2c35e74dc0b6db75c97982894de4b90534f58507bd9179d22bd2c885e4878696",
        "runs": "dca7c158069314c1fdf9c6deed2e86edeed80b6956133866183c3dd3c8c1354b",
    },
    "recover": {
        "recover.report": "b95f9311540a99da950d1fadc1ba58352c9e1530c76770a7d162a028cad61189",
        "recover.json": "902b170320523f4a9004bbeaf662e64be2e314676001209cafd33c3d8f7c77de",
        "recover.report_file": "b95f9311540a99da950d1fadc1ba58352c9e1530c76770a7d162a028cad61189",
        "recover_inclusive.report": "bbba07e31da7430923fe6cbfc216b69d839a80bca30d2803b12a5ffc16ee28ca",
    },
    "pipeline_full": {
        "report": "9ec656bb97d1f81c575a33fb16c05b7308ddcc8c886ebf99e3eb55d59bc4d578",
        "out_dir": "68610a4972ff8dd1f7587c88baaa5881531b7ebb53055817ae679873fab0e520",
    },
    "pipeline_options": {
        "report": "4a825f9e52750f719c3f51f71dd3b0eb24468dcc514c27ce9ea3fbcbd1f22f10",
        "out_dir": "6e43e1ed87cd3aa8534bcbf13149c44f2262871fd5397ea6f9dfc7b42a5263d4",
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
