"""Command-line surface: reproducible analysis and simulation pipelines.

Every command emits a JSON run report (stdout, plus --report to a file)
carrying the tool version, input digests, the fully resolved configuration
and a result summary; timing lives in its own key so reports from repeated
runs are comparable byte-for-byte. Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import CascadeError, DataError, UsageError
from .events import _MS_PER_UNIT, _component_density, build_dataset, density, giant_component
from .exposure import (
    POPULARITY_MODES,
    TIE_RULES,
    all_exposures,
    population_thresholds,
    threshold_summary,
)
from .powerlaw import fit_power_law, fitted_tail_ccdf
from .simulate import (
    GRAPH_PARAMS,
    MODELS,
    THRESHOLD_PARAMS,
    CascadeParams,
    LearningParams,
    SimConfig,
    ThresholdParams,
    ThresholdSpec,
    _node_id,
    gen_graph,
    recover_from_ingested,
    run_model,
)
from .snapshot import load_snapshot, save_snapshot
from .stats import (
    adoption_curve,
    popularity_samples,
    popularity_threshold_correlation,
    spearman_rho,
)
from .textio import (
    LabelColumn,
    dump_json,
    file_digest,
    parse_duration_ms,
    read_adoptions,
    read_follows,
    read_json_object,
    write_adoptions_csv,
    write_follows_csv,
    write_tsv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _threads() -> int:
    raw = os.environ.get("CASCADE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise UsageError(f"CASCADE_THREADS must be an integer, got {raw!r}")


def _resolve_seed(seed) -> int:
    """One root seed per invocation; a missing --seed draws a fresh one
    (reported, so the run stays reproducible after the fact)."""
    if seed is not None:
        if seed < 0:
            raise UsageError(f"seed must be >= 0, got {seed}")
        return int(seed)
    return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0] >> 1)


def derive_seed(root: int, *key: int) -> int:
    """Deterministic child seed for (root, key) — used for per-run and
    per-graph streams so batches reproduce regardless of scheduling."""
    ss = np.random.SeedSequence(entropy=root, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _report(command: str, config: dict, inputs: dict, outputs: dict, result: dict, started: float) -> dict:
    return {
        "tool": {"name": "tagcascade", "version": __version__},
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "result": result,
        "timing": {"seconds": time.monotonic() - started},
    }


def _input_entry(path, sha256=None) -> dict:
    """An input's path and the SHA-256 of the bytes the command read from it:
    `sha256` when the command hashed them as it read (a snapshot or a CSV
    log), else a regular file's digest. A directory of runs is named only,
    and so is a piped config, whose bytes are gone once read."""
    if sha256 is None:
        if not Path(path).is_file():
            return {"path": str(path)}
        sha256 = file_digest(path)
    return {"path": str(path), "sha256": sha256}


# ---------------------------------------------------------------------------
# stage bodies (shared by subcommands and the pipeline); each takes the
# resolved options of its command and returns the result summary
# ---------------------------------------------------------------------------

def _load(o):
    """The Dataset in `o.snapshot`. The digest of the bytes loaded goes on
    `o.snapshot_sha256`, for the report."""
    ds = load_snapshot(o.snapshot)
    o.snapshot_sha256 = ds.sha256
    return ds


def stage_ingest(o) -> dict:
    out_path = Path(o.out)
    if out_path.exists() and not o.force:
        raise DataError(f"refusing to overwrite existing snapshot {out_path} without --force")
    on_bad = "raise" if o.strict else "drop"
    adoptions, dropped_a = read_adoptions(o.adoptions, time_unit=o.time_unit, on_bad=on_bad)
    follows, dropped_f = read_follows(o.follows, time_unit=o.time_unit, on_bad=on_bad)
    o.adoptions_sha256, o.follows_sha256 = adoptions.sha256, follows.sha256
    ds = build_dataset(adoptions, follows,
                       reverse_edges=o.reverse_edges, mutual_edges=o.mutual_edges)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_snapshot(ds, out_path)
    summary = ds.summary()
    summary["dropped_rows"] = dropped_a + dropped_f
    summary["dropped_adoption_rows"] = dropped_a
    summary["dropped_follow_rows"] = dropped_f
    return summary


def stage_stats(o) -> dict:
    ds = _load(o)
    result = ds.summary()
    if ds.n_users >= 2:
        members = giant_component(ds)
        result["giant_component_users"] = len(members)
        result["density_all"] = density(ds, "all")
        result["density_giant_component"] = (
            _component_density(ds, members) if len(members) >= 2 else None
        )
    else:
        result["giant_component_users"] = ds.n_users
        result["density_all"] = None
        result["density_giant_component"] = None
    return result


def stage_thresholds(o) -> dict:
    ds = _load(o)
    table = all_exposures(ds, ties=o.ties, popularity=o.popularity)
    thresholds = population_thresholds(ds, ties=o.ties, table=table)
    summary = threshold_summary(table, thresholds)

    if o.out is not None:
        write_tsv(
            o.out,
            ["user", "tag", "time", "active_alters", "neighborhood_size",
             "exposure", "tag_popularity_at_adoption"],
            [LabelColumn(ds.user_table, table.user), LabelColumn(ds.tag_table, table.tag),
             table.time, table.active_alters, table.neighborhood_size, table.exposure,
             table.tag_popularity_at_adoption],
        )
    if o.per_user is not None:
        write_tsv(o.per_user, ["user", "beta", "defined_adoptions", "undefined_adoptions"],
                  [LabelColumn(ds.user_table, thresholds.user), thresholds.beta,
                   thresholds.defined_adoptions, thresholds.undefined_adoptions])
    return summary


def stage_fit(o) -> dict:
    if o.bootstrap < 0:
        raise UsageError("--bootstrap must be >= 0")
    ds = _load(o)
    samples = popularity_samples(ds, o.popularity)
    samples = samples[samples >= 1]
    o.threads = _threads()
    fit = fit_power_law(samples, bootstrap=o.bootstrap, seed=o.seed, threads=o.threads)
    if o.out is not None:
        values, counts = np.unique(samples, return_counts=True)
        n = samples.shape[0]
        emp_ccdf = counts[::-1].cumsum()[::-1] / n
        model_ccdf = np.full(values.shape[0], np.nan)
        tail = values >= fit.xmin
        model_ccdf[tail] = fitted_tail_ccdf(fit, values[tail]) * (fit.n_tail / n)
        write_tsv(o.out, ["value", "count", "empirical_ccdf", "fitted_ccdf"],
                  [values, counts, emp_ccdf, np.where(np.isnan(model_ccdf), None, model_ccdf)])
    result = fit.as_dict()
    result["popularity"] = o.popularity
    return result


def stage_curve(o) -> dict:
    o.bucket_ms = parse_duration_ms(o.bucket)
    ds = _load(o)
    curve = adoption_curve(ds, ds.tag_handle(o.tag), o.bucket_ms)
    if o.out is not None:
        write_tsv(o.out, ["time", "new_first_usages", "cumulative_first_usages",
                          "subsequent_usages", "saturation"],
                  [curve.time, curve.new_first_usages, curve.cumulative_first_usages,
                   curve.subsequent_usages, curve.saturation])
    return {
        "tag": o.tag, "bucket_ms": o.bucket_ms, "points": len(curve.time),
        "final_saturation": curve.final_saturation,
        "distinct_adopters": int(curve.cumulative_first_usages[-1]),
    }


def stage_correlate(o) -> dict:
    if o.bins < 1:
        raise UsageError("--bins must be >= 1")
    ds = _load(o)
    table = all_exposures(ds, ties=o.ties, popularity=o.popularity)
    report = popularity_threshold_correlation(table, bins=o.bins, method=o.method)
    if o.out is not None:
        write_tsv(o.out, ["popularity_lo", "popularity_hi", "mean_exposure", "count"],
                  [report.lo, report.hi, report.mean_exposure, report.count])
    return {"method": report.method, "rho": report.rho, "n_pairs": report.n_pairs,
            "bins": len(report.count)}


def _json_is(value, kind) -> bool:
    """Whether JSON already gives `value` the type `kind`. A bool is never a
    number: an int is an integer that is not a bool, a float an integer or
    float that is not a bool, a bool true or false, a str a string."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


_JSON_TYPES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list", dict: "an object"}
_REQUIRED = object()  # the default of a key that must be given


def _cfg_value(cfg: dict, key: str, where: str, kind=str, default=_REQUIRED, choices=None):
    """cfg[key] as JSON gives it, never converted. It must be of the JSON
    type `kind` (`_json_is`, so never null), within a float's range for a
    float key, and one of `choices` when they are given; any other value is
    a usage error. A missing key takes `default`, or is a usage error when
    there is none."""
    if key not in cfg:
        if default is _REQUIRED:
            raise UsageError(f"{where} needs a {key!r} entry")
        return default
    value = cfg[key]
    if not _json_is(value, kind):
        raise UsageError(f"{where}: {key} must be {_JSON_TYPES[kind]}, got {value!r}")
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise UsageError(f"{where}: {key} is out of range for a float")
    if choices is not None and value not in choices:
        raise UsageError(f"{where}: {key} must be one of {choices}, got {value!r}")
    return value


def _threshold_spec_from_config(cfg: dict) -> ThresholdSpec:
    kind = _cfg_value(cfg, "kind", "thresholds")
    values = (float(_cfg_value(cfg, key, f"{kind} threshold", float))
              for key in THRESHOLD_PARAMS.get(kind, ()))
    return ThresholdSpec(kind, tuple(values))


def _params_from_config(model: str, params_cfg: dict):
    if model == "cascade":
        return CascadeParams(float(_cfg_value(params_cfg, "p", "cascade model", float)))
    where = f"{model} model"
    spec = _threshold_spec_from_config(_cfg_value(params_cfg, "thresholds", where, dict))
    if model == "threshold":
        return ThresholdParams(spec)
    return LearningParams(spec, _cfg_value(params_cfg, "lag", where, int, default=0))


def _resolve_graph(graph_cfg: dict, kind: str, seed: int):
    if kind == "dataset":
        snapshot = _cfg_value(graph_cfg, "snapshot", "dataset graph")
        ds = load_snapshot(snapshot)
        return ds.graph, ds, {"kind": "dataset", "snapshot": snapshot, "sha256": ds.sha256}
    params = {key: _cfg_value(graph_cfg, key, f"{kind} graph", json_type)
              for key, json_type in GRAPH_PARAMS.get(kind, ())}
    graph = gen_graph(kind, seed, **params)
    echo = dict(graph_cfg)
    echo["seed"] = seed
    return graph, None, echo


def _resolve_seed_users(seeds_cfg: dict, source_ds) -> tuple | None:
    users = _cfg_value(seeds_cfg, "users", "seeds", list, default=None)
    if users is None:
        return None
    if source_ds is None:
        return tuple(map(_seed_node, users))
    handles = []
    for user in users:  # a label of the dataset, looked up as it is
        if not _json_is(user, str):
            raise UsageError(f"seeds: users of a dataset graph must be labels, got {user!r}")
        handles.append(source_ds.user_handle(user))
    return tuple(handles)


def _seed_node(user) -> int:
    """The node id of a seed user given as a JSON integer (not a bool) or as
    a simulated label: u followed by ASCII digits."""
    if _json_is(user, int):
        return user
    if isinstance(user, str):
        try:
            return _node_id(user)
        except DataError:
            pass
    raise UsageError(f"seeds: users must be node ids or u-labels, got {user!r}")


def stage_simulate(o) -> dict:
    """`o.config` is a config file path, or (in a pipeline) the config itself."""
    sim_cfg = o.config if isinstance(o.config, dict) else read_json_object(o.config, UsageError)
    # read even when --model overrides it, so a bad value fails either way
    cfg_model = _cfg_value(sim_cfg, "model", "simulation config", default=None, choices=MODELS)
    o.model = o.model or cfg_model
    if o.model is None:
        raise UsageError("no model given (use --model or put \"model\" in the config)")
    if o.runs < 1:
        raise UsageError("--runs must be >= 1")
    out_dir = Path(o.out)  # created with the first run's directory: a rejected config leaves none

    graph_cfg = _cfg_value(sim_cfg, "graph", "simulation config", dict)
    seeds_cfg = _cfg_value(sim_cfg, "seeds", "simulation config", dict, default={})
    n_seeds = _cfg_value(seeds_cfg, "k", "seeds", int, default=1)
    max_steps = _cfg_value(sim_cfg, "max_steps", "simulation config", int, default=100)
    params = _params_from_config(o.model, _cfg_value(sim_cfg, "params", "simulation config", dict,
                                                     default={}))

    kind = _cfg_value(graph_cfg, "kind", "graph")
    shared = None  # (graph, source dataset, graph echo), resolved once for all runs
    if (_cfg_value(sim_cfg, "shared_graph", "simulation config", bool, default=False)
            or kind == "dataset"):
        shared = _resolve_graph(graph_cfg, kind, derive_seed(o.seed, 0))
    if kind == "dataset":
        o.found_inputs = {"graph_snapshot": _input_entry(shared[2]["snapshot"], shared[1].sha256)}
    run_summaries = []
    for r in range(o.runs):
        graph, ds_source, g_echo = (shared
                                    or _resolve_graph(graph_cfg, kind, derive_seed(o.seed, 0, r)))
        seed_users = _resolve_seed_users(seeds_cfg, ds_source)
        cfg = SimConfig(graph=graph, model=o.model, params=params,
                        n_seeds=n_seeds, seed_users=seed_users,
                        max_steps=max_steps, seed=derive_seed(o.seed, 1, r))
        run = run_model(cfg)

        run_dir = out_dir / f"run_{r:04d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        write_adoptions_csv(run_dir / "adoptions.csv", run.adoption_rows())
        write_follows_csv(run_dir / "follows.csv", run.follow_rows())
        manifest = {
            "model": run.model,
            "run_index": r,
            "run_seed": run.config_seed,
            "graph": g_echo,
            "n_users": graph.n,
            "n_edges": graph.n_edges,
            "seed_users": [run.user_label(int(u)) for u in run.seed_users],
            "max_steps": run.max_steps,
            "step_counts": [int(c) for c in run.step_counts],
            "n_adopters": run.n_adopters,
            "final_saturation": run.final_saturation,
            "theta": None if run.theta is None else run.theta.tolist(),
            "edge_prob": run.edge_prob,
            "lag": run.lag,
            "files": {"adoptions": "adoptions.csv", "follows": "follows.csv"},
        }
        dump_json(manifest, run_dir / "manifest.json")
        run_summaries.append({"run": r, "n_adopters": run.n_adopters,
                              "final_saturation": run.final_saturation,
                              "steps": len(run.step_counts) - 1})
    return {"model": o.model, "runs": o.runs, "out_dir": str(out_dir),
            "run_summaries": run_summaries}


def _read_manifest(run_dir: Path) -> dict:
    manifest = read_json_object(run_dir / "manifest.json", DataError)
    missing = [key for key in ("files", "theta", "n_users", "seed_users") if key not in manifest]
    if missing:
        raise DataError(f"{run_dir}: manifest.json has no {', '.join(missing)}")
    files, theta = manifest["files"], manifest["theta"]
    well_formed = {
        "files": isinstance(files, dict)
        and all(isinstance(files.get(key), str) for key in ("adoptions", "follows")),
        "theta": theta is None  # bool is a type of its own, so true is no number
        or (isinstance(theta, list) and set(map(type, theta)) <= {int, float}),
        "n_users": _json_is(manifest["n_users"], int),
        "seed_users": isinstance(manifest["seed_users"], list),
    }
    bad = [key for key, ok in well_formed.items() if not ok]
    if bad:
        raise DataError(f"{run_dir}: manifest.json has a malformed {', '.join(bad)}")
    if theta is not None:
        try:
            manifest["theta"] = np.asarray(theta, dtype=np.float64)
        except OverflowError:  # a JSON integer past the largest float
            raise DataError(f"{run_dir}: manifest.json has a malformed theta") from None
    return manifest


def stage_recover(o) -> dict:
    runs_dir = Path(o.runs)
    run_dirs = sorted(p for p in runs_dir.glob("run_*") if p.is_dir())
    if not run_dirs:
        raise DataError(f"no run_* directories under {runs_dir}")

    reports = []
    for run_dir in run_dirs:
        manifest = _read_manifest(run_dir)
        if manifest["theta"] is None:
            raise DataError(f"{run_dir.name}: model {manifest.get('model')!r} has no planted "
                            "thresholds to recover")
        adoptions, _ = read_adoptions(run_dir / manifest["files"]["adoptions"])
        follows, _ = read_follows(run_dir / manifest["files"]["follows"])
        ds = build_dataset(adoptions, follows)
        try:
            reports.append(recover_from_ingested(
                ds,
                theta=manifest["theta"],
                n_users=int(manifest["n_users"]),
                n_seeds=len(manifest["seed_users"]),
                ties=o.ties,
            ))
        except DataError as exc:
            raise DataError(f"{run_dir}: {exc}") from None

    margins = [r.min_margin for r in reports if r.min_margin is not None]
    return {
        "runs": len(reports),
        "compared_adoptions": sum(r.n_compared for r in reports),
        "violations": sum(r.n_violations for r in reports),
        "min_margin": min(margins, default=None),
        "pooled_spearman_popularity_exposure": spearman_rho(
            np.concatenate([r.popularity for r in reports]),
            np.concatenate([r.exposure for r in reports]),
        ),
        "per_run": [{"run": d.name, **r.as_dict()} for d, r in zip(run_dirs, reports)],
    }


# ---------------------------------------------------------------------------
# command table: argparse subcommands, run reports and pipeline stages are
# all derived from it
# ---------------------------------------------------------------------------

class Opt(NamedTuple):
    """One command option, stated once. `flag` is "--name" or a positional
    name; type `bool` makes a store_true flag. A pipeline stage key named
    like the option's dest goes through the same type and choices."""
    flag: str
    help: str | None = None
    default: object = None
    type: type | None = None
    choices: tuple | None = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    """One subcommand. `body` names its stage function, looked up at call
    time. Its report echoes the resolved values named in `config`, records
    the positional options, the `inputs` flags and the files a stage puts in
    `found_inputs` (a dataset graph's snapshot) under "inputs" (files with
    their digest), and lists `outputs` under their key; inside a pipeline
    out_dir each output gets a fixed file name. The result JSON is written
    to the path of the `summary` option."""
    help: str
    body: str
    opts: tuple
    config: tuple = ()
    inputs: dict = {}
    outputs: dict = {}
    summary: str | None = None


SNAPSHOT = Opt("snapshot")
TIES = Opt("--ties", default="strict", choices=TIE_RULES)
POPULARITY = Opt("--popularity", default="adopters", choices=POPULARITY_MODES)
SEED = Opt("--seed", type=int)
SUMMARY = Opt("--summary", "summary JSON path")
REPORT = Opt("--report", "write the run report JSON here too")


def _flag(flag: str, help: str) -> Opt:
    return Opt(flag, help, default=False, type=bool)


COMMANDS = {
    "ingest": Command(
        "parse CSV logs into a binary snapshot", "stage_ingest",
        (Opt("adoptions", "adoptions CSV (user_id,tag_id,timestamp)"),
         Opt("follows", "follows CSV (src_id,dst_id[,since])"),
         Opt("--out", "snapshot output path", required=True),
         _flag("--force", "overwrite an existing snapshot"),
         _flag("--reverse-edges", "treat rows as dst observing src"),
         _flag("--mutual-edges", "treat each follow row as a mutual relation (both directions)"),
         Opt("--time-unit", "unit for integer timestamps (default ms)", "ms",
             choices=tuple(_MS_PER_UNIT)),
         _flag("--strict", "fail on malformed rows instead of dropping them")),
        config=("reverse_edges", "mutual_edges", "time_unit", "strict"),
        outputs={"out": ("snapshot", "snapshot.cscd")}),
    "stats": Command("dataset summary counts and densities", "stage_stats", (SNAPSHOT,)),
    "thresholds": Command(
        "per-adoption exposures and per-user thresholds", "stage_thresholds",
        (SNAPSHOT, Opt("--out", "exposures TSV path"),
         Opt("--per-user", "per-user thresholds TSV path"), SUMMARY,
         TIES._replace(help="whether same-timestamp alters count as active (default strict)"),
         POPULARITY._replace(help="popularity-at-adoption counts distinct adopters or all usages")),
        config=("ties", "popularity"),
        outputs={"out": ("exposures", "exposures.tsv"), "per_user": ("per_user", "thresholds.tsv"),
                 "summary": ("summary", "thresholds_summary.json")},
        summary="summary"),
    "fit-powerlaw": Command(
        "fit a discrete power law to tag popularity", "stage_fit",
        (SNAPSHOT, POPULARITY,
         Opt("--bootstrap", "goodness-of-fit bootstrap replicates (default 100)", 100, int),
         SEED, Opt("--out", "distribution TSV path"), Opt("--summary", "fit summary JSON path")),
        config=("popularity", "bootstrap", "seed", "threads"),
        outputs={"out": ("tsv", "powerlaw.tsv"), "summary": ("summary", "powerlaw.json")},
        summary="summary"),
    "curve": Command(
        "adoption/saturation curve for one tag", "stage_curve",
        (SNAPSHOT, Opt("--tag", "tag label", required=True),
         Opt("--bucket", "bucket duration (e.g. 1d, 3600s, 500)", required=True),
         Opt("--out", "curve TSV path"), SUMMARY),
        config=("tag", "bucket_ms"),
        outputs={"out": ("tsv", None), "summary": ("summary", None)},
        summary="summary"),
    "correlate": Command(
        "popularity-vs-exposure correlation", "stage_correlate",
        (SNAPSHOT, Opt("--bins", "logarithmic popularity bins", 10, int),
         Opt("--method", default="spearman", choices=("spearman", "pearson")),
         TIES, POPULARITY, Opt("--out", "binned-means TSV path"), SUMMARY),
        config=("bins", "method", "ties", "popularity"),
        outputs={"out": ("tsv", "correlation.tsv"), "summary": ("summary", "correlation.json")},
        summary="summary"),
    "simulate": Command(
        "run seeded diffusion simulations", "stage_simulate",
        (Opt("--model", choices=MODELS),
         Opt("--config", "simulation config JSON", required=True),
         Opt("--runs", default=1, type=int), SEED, Opt("--out", "output directory", required=True)),
        config=("model", "runs", "seed"),
        inputs={"config": "config"},
        outputs={"out": ("out_dir", "runs")}),
    "recover": Command(
        "check measured exposures against planted thresholds", "stage_recover",
        (Opt("--runs", "directory produced by simulate", required=True), TIES,
         Opt("--out", "recovery report JSON path")),
        config=("ties",),
        inputs={"runs": "runs_dir"},
        outputs={"out": ("report", "recovery.json")},
        summary="out"),
}

PIPELINE_OPTS = (Opt("--config", "pipeline config JSON", required=True), SEED)
# pipeline stage -> command; "fit" is the pipeline's name for fit-powerlaw
PIPELINE_STAGES = {"ingest": "ingest", "thresholds": "thresholds", "fit": "fit-powerlaw",
                   "correlate": "correlate", "simulate": "simulate", "recover": "recover"}


def _inputs(cmd: Command) -> dict:
    """Option -> key under "inputs": the positionals, then `cmd.inputs`."""
    positional = {opt.dest: opt.dest for opt in cmd.opts if not opt.flag.startswith("-")}
    return {**positional, **cmd.inputs}


def _run_stage(cmd: Command, o) -> dict:
    result = globals()[cmd.body](o)
    path = getattr(o, cmd.summary) if cmd.summary else None
    if path is not None:
        dump_json(result, path)
        if "per_run" in result:  # the per-run list stays in the file; the report counts it
            result = {**result, "per_run": len(result["per_run"])}
    return result


def _run_command(name: str, args) -> dict:
    cmd = COMMANDS[name]
    started = time.monotonic()
    if hasattr(args, "seed"):
        args.seed = _resolve_seed(args.seed)
    result = _run_stage(cmd, args)
    outputs = {key: getattr(args, dest) for dest, (key, _) in cmd.outputs.items()}
    inputs = {key: _input_entry(getattr(args, dest), getattr(args, f"{dest}_sha256", None))
              for dest, key in _inputs(cmd).items()}
    return _report(
        name,
        {key: getattr(args, key) for key in cmd.config},
        {**inputs, **getattr(args, "found_inputs", {})},
        {key: str(path) for key, path in outputs.items() if path},
        result,
        started,
    )


def _plan_stage(entry, out_dir: Path, seed: int, flow: dict):
    """(name, command, resolved options) of one pipeline stage entry. An
    option takes the value the pipeline fixes, else the entry's key (checked
    like the flag), else the flag's default. `flow` carries the snapshot and
    the runs directory that earlier stages write."""
    if not isinstance(entry, dict):
        raise UsageError(f"pipeline stage {entry!r} is not a JSON object")
    name = _cfg_value(entry, "stage", "pipeline stage", choices=tuple(PIPELINE_STAGES))
    cmd = COMMANDS[PIPELINE_STAGES[name]]
    fixed = {dest: out_dir / file for dest, (_, file) in cmd.outputs.items()}
    if "snapshot" in _inputs(cmd):
        if flow["snapshot"] is None:
            raise UsageError(f"stage '{name}' needs a snapshot: add an ingest stage first or a "
                             "top-level \"snapshot\" path")
        fixed["snapshot"] = flow["snapshot"]
    # rules only the pipeline has
    if name == "ingest":
        fixed["force"] = True
    elif name == "fit":
        fixed["seed"] = derive_seed(seed, 100)
    elif name == "simulate":
        fixed["seed"] = derive_seed(seed, 200)
        fixed["config"] = {k: v for k, v in entry.items() if k != "stage"}
    elif name == "recover":
        entry = {"runs": str(out_dir / "runs"), **entry}
        if flow["runs"] is not None:
            fixed["runs"] = flow["runs"]

    o = argparse.Namespace()
    for opt in cmd.opts:
        if opt.dest in fixed:
            value = fixed[opt.dest]
        else:
            required = opt.required or not opt.flag.startswith("-")
            value = _cfg_value(entry, opt.dest, f"stage '{name}'", opt.type or str,
                               _REQUIRED if required else opt.default, opt.choices)
        setattr(o, opt.dest, value)
    if name == "ingest":
        flow["snapshot"] = o.out
    elif name == "simulate":
        flow["runs"] = o.out
    return name, cmd, o


def _run_pipeline(args) -> dict:
    started = time.monotonic()
    cfg = read_json_object(args.config, UsageError)
    stages = _cfg_value(cfg, "stages", "pipeline config", list, default=[])
    if not stages:
        raise UsageError("pipeline config must name at least one stage")
    out_dir = Path(_cfg_value(cfg, "out_dir", "pipeline config", default="cascade_out"))
    seed = _cfg_value(cfg, "seed", "pipeline config", int, default=None)
    if seed is not None:  # checked even when --seed overrides it
        _resolve_seed(seed)
    seed = _resolve_seed(args.seed if args.seed is not None else seed)
    flow = {"snapshot": _cfg_value(cfg, "snapshot", "pipeline config", default=None),
            "runs": None}
    plan = [_plan_stage(entry, out_dir, seed, flow) for entry in stages]

    out_dir.mkdir(parents=True, exist_ok=True)
    stage_results = []
    for name, cmd, o in plan:
        try:
            result = _run_stage(cmd, o)
        except CascadeError as exc:
            kind = next(k for k in (UsageError, DataError, CascadeError) if isinstance(exc, k))
            raise kind(f"stage '{name}' failed: {exc}") from exc
        stage_results.append({"stage": name, "result": result})

    report = _report(
        "pipeline",
        {"seed": seed, "out_dir": str(out_dir), "stages": [name for name, _, _ in plan]},
        {"config": _input_entry(args.config)},
        {"out_dir": str(out_dir)},
        {"stages": stage_results},
        started,
    )
    dump_json(report, out_dir / "report.json")
    return report


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_option(parser: argparse.ArgumentParser, opt: Opt) -> None:
    kwargs = {"help": opt.help}
    if opt.flag.startswith("-"):
        kwargs["required"] = opt.required
    if opt.type is bool:
        kwargs["action"] = "store_true"
    else:
        kwargs.update(default=opt.default, type=opt.type, choices=opt.choices)
    parser.add_argument(opt.flag, **kwargs)


@functools.cache  # one argparse tree per process, reused by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cascade", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tagcascade {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for opt in cmd.opts + (REPORT,):
            _add_option(p, opt)
    p = sub.add_parser("pipeline", help="run configured stages end to end")
    for opt in PIPELINE_OPTS:
        _add_option(p, opt)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "pipeline":
            report = _run_pipeline(args)
        else:
            report = _run_command(args.command, args)
        # the --report file is written first, so a failed write prints no report
        text = dump_json(report, getattr(args, "report", None) or None)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CascadeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001  - contract: internal errors exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
