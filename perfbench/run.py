"""tagcascade benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

This process makes the workload's inputs from the seed and the harness's
own expected answers; it does not import tagcascade. It then times a cold
`import tagcascade.cli` in fresh processes, starts the workload process
(perfbench/session.py), which runs the session's commands pass after pass
for --seconds, and checks the outputs. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; a human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import spans
import workloads

# Session steps in order; each step's wall time is the end-to-end metric
# "<step>_s" (the sum over the step's commands).
STEPS = ("ingest", "stats", "thresholds", "correlate", "fit", "curves",
         "simulate", "recover", "cascade")

END_TO_END = {
    "setup_s": "s",
    **{f"{step}_s": "s" for step in STEPS},
    "session_s": "s",
    "peak_rss_mb": "MB",
}

COUNTS = {
    "textio.rows_read": "count",
    "textio.tsv_rows_written": "count",
    "textio.csv_rows_written": "count",
    "events.first_usages": "count",
    "events.edges": "count",
    "events.duplicate_edges_dropped": "count",
    "snapshot.load_calls": "count",
    "snapshot.bytes": "bytes",
    "exposure.records": "count",
    "exposure.alters_scanned": "count",
    "powerlaw.bootstrap_replicates": "count",
    "powerlaw.distinct_values": "count",
    "simulate.steps": "count",
    "simulate.adopters": "count",
}

PER_LAYER = {
    **{metric: "s" for metric in spans.LAYERS},
    "cli.self_s": "s",
    "cli.session_s": "s",
    "cli.tracing_overhead_s": "s",
    **COUNTS,
    "exposure.defined_frac": "frac",
    **{f"{name}.rss_growth_mb": "MB" for name in spans.RSS_SPANS},
    "host.calib_s": "s",
    "failed_ops_frac": "frac",
}

SETUP_PROBES = 4          # fresh processes timing the import, besides the workload process
MIN_PASSES = 3
MAX_PASS_SECONDS = 100    # stop starting passes after this, whatever --seconds says
CHILD_TIMEOUT = 160

# Host speed on this kind of machine swings by more than half between
# neighbouring seconds, so every time reported end to end is scaled by a
# calibration loop timed on both sides of it (session.calibrate): value =
# wall seconds * CALIB_REF_S / calibration seconds, i.e. seconds on a host
# whose calibration loop takes CALIB_REF_S.
CALIB_REF_S = 0.005

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import tagcascade.cli\n"
    "elapsed = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from session import calibrate\n"
    "print(elapsed, calibrate())\n"
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _check_benchmark_json() -> str | None:
    """The metric and workload names here must match BENCHMARK.json."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        "workloads": {w["name"] for w in spec["workloads"]},
        "end_to_end": {(m["name"], m["unit"]) for m in spec["end_to_end"]},
        "per_layer": {(m["name"], m["unit"]) for m in spec["per_layer"]},
    }
    actual = {
        "workloads": set(workloads.WORKLOADS),
        "end_to_end": set(END_TO_END.items()),
        "per_layer": set(PER_LAYER.items()),
    }
    for key in declared:
        if declared[key] != actual[key]:
            return f"BENCHMARK.json {key} differ from perfbench/run.py: {sorted(declared[key] ^ actual[key])}"
    return None


class Checks:
    """Counts operations (commands and correctness checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


def _session_steps(work: str, pass_dir: str, seed: int, sim_runs: int, tags: list[str]) -> list[dict]:
    def p(name):
        return f"{pass_dir}/{name}"

    snap = p("data.cscd")
    cfg = f"{work}/sim.json"
    sim = ["--config", cfg, "--runs", str(sim_runs), "--seed", str(seed)]

    def step(name, calls, outputs):
        return {"name": name, "calls": calls, "outputs": outputs}

    return [
        step("ingest", [["ingest", f"{work}/adoptions.csv", f"{work}/follows.csv", "--out", snap]],
             ["data.cscd"]),
        step("stats", [["stats", snap]], []),
        step("thresholds", [["thresholds", snap, "--out", p("exposures.tsv"),
                             "--per-user", p("thresholds.tsv"), "--summary", p("thresholds.json")]],
             ["exposures.tsv", "thresholds.tsv", "thresholds.json"]),
        step("correlate", [["correlate", snap, "--out", p("correlation.tsv"),
                            "--summary", p("correlation.json")]],
             ["correlation.tsv", "correlation.json"]),
        step("fit", [["fit-powerlaw", snap, "--seed", str(seed), "--out", p("powerlaw.tsv"),
                      "--summary", p("powerlaw.json")]],
             ["powerlaw.tsv", "powerlaw.json"]),
        step("curves", [["curve", snap, "--tag", t, "--bucket", "1d", "--out", p(f"curve_{t}.tsv")]
                        for t in tags],
             [f"curve_{t}.tsv" for t in tags]),
        step("simulate", [["simulate", "--model", "threshold", *sim, "--out", p("threshold")]],
             ["threshold"]),
        step("recover", [["recover", "--runs", p("threshold"), "--out", p("recovery.json")]],
             ["recovery.json"]),
        step("cascade", [["simulate", "--model", "cascade", *sim, "--out", p("cascade")]],
             ["cascade"]),
    ]


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _check_recount(checks: Checks, tsv_path: str, expected: list[dict]) -> None:
    want = {(e["user"], e["tag"]): e for e in expected}
    got, col = {}, {}
    if os.path.isfile(tsv_path):
        with open(tsv_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            col = {name: i for i, name in enumerate(header)}
            for line in fh:
                cells = line.rstrip("\n").split("\t")
                key = (cells[col["user"]], cells[col["tag"]])
                if key in want:
                    got[key] = cells
    for key, e in want.items():
        cells = got.get(key)
        ok = cells is not None and (
            int(cells[col["time"]]) == e["time"]
            and int(cells[col["active_alters"]]) == e["active_alters"]
            and int(cells[col["neighborhood_size"]]) == e["neighborhood_size"]
        )
        checks.check(ok, f"exposure recount for user {key[0]} tag {key[1]}: expected {e}, got {cells}")


def _check_outputs(checks: Checks, result: dict, pass_dir: str, expected: list[dict]) -> None:
    passes = result["passes"]
    for p in passes:
        for step, codes in p["exit_codes"].items():
            for code in codes:
                checks.check(code == 0, f"{step} exited {code}")
    for p in passes[1:]:
        for step, digest in p["digests"].items():
            checks.check(digest == passes[0]["digests"][step],
                         f"{step} outputs differ between passes of one run")

    _check_recount(checks, f"{pass_dir}/exposures.tsv", expected)

    fit = _load_json(f"{pass_dir}/powerlaw.json") or {}
    alpha, xmin, gof = fit.get("alpha"), fit.get("xmin"), fit.get("gof_p")
    checks.check(alpha is not None and 1 < alpha < 20 and xmin is not None and xmin >= 1
                 and gof is not None and 0 <= gof <= 1, f"power-law fit out of range: {fit}")

    recovery = _load_json(f"{pass_dir}/recovery.json") or {}
    checks.check(recovery.get("violations") == 0 and (recovery.get("compared_adoptions") or 0) > 0,
                 f"recover: {recovery.get('violations')} violations over "
                 f"{recovery.get('compared_adoptions')} compared adoptions")


def _median(values):
    return statistics.median(values)


def _calib_mean(result: dict) -> float:
    return statistics.mean(c for p in result["passes"] for c in p["calib_s"])


def _step_factors(p: dict) -> dict:
    """Host-speed factor of each step of a pass, from the calibrations
    timed right before and after it."""
    calib = p["calib_s"]
    return {step: CALIB_REF_S * 2 / (calib[i] + calib[i + 1]) for i, step in enumerate(STEPS)}


def _scaled_steps(p: dict) -> dict:
    factors = _step_factors(p)
    return {step: p["step_s"][step] * factors[step] for step in STEPS}


def _end_to_end(result: dict, setup: list[tuple[float, float]]) -> dict:
    """Medians over the untraced passes of host-scaled times."""
    scaled = [_scaled_steps(p) for p in result["passes"] if not p["traced"]]
    out = {"setup_s": _median([t * CALIB_REF_S / c for t, c in setup])}
    for step in STEPS:
        out[f"{step}_s"] = _median([s[step] for s in scaled])
    out["session_s"] = _median([sum(s.values()) for s in scaled])
    out["peak_rss_mb"] = result["peak_rss_mb"]
    return out


def _per_layer(checks: Checks, result: dict) -> dict:
    """Host-scaled layer self times, counts and ru_maxrss growth. Times are
    means over the traced passes, so that the layer self times plus
    cli.self_s equal cli.session_s (untraced median) plus the overhead."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    # The first traced pass runs cold in a fresh process; time from the
    # later ones when there are any. Counts and ru_maxrss growth come from
    # the first, where growth is measured from the post-import baseline.
    warm = traced[1:] or traced
    for name in result["untraceable"]:
        checks.check(False, f"traced function {name} not found in tagcascade")

    def scaled_layers(p):
        factors = _step_factors(p)
        layers, cli_self = {}, 0.0
        for step, t in p["trace"].items():
            for metric, seconds in t["layers"].items():
                layers[metric] = layers.get(metric, 0.0) + seconds * factors[step]
            cli_self += t["cli_self_s"] * factors[step]
        return layers, cli_self

    per_pass = [scaled_layers(p) for p in warm]
    out = {}
    for metric in spans.LAYERS:
        values = [layers.get(metric) for layers, _ in per_pass]
        # A layer whose span never fired is reported missing, not as 0.
        if checks.check(all(v is not None for v in values), f"no span of {metric} fired"):
            out[metric] = statistics.mean(values)
    out["cli.self_s"] = statistics.mean(cli_self for _, cli_self in per_pass)
    out["cli.session_s"] = _median([sum(_scaled_steps(p).values()) for p in plain])
    out["cli.tracing_overhead_s"] = (
        statistics.mean(sum(_scaled_steps(p).values()) for p in warm) - out["cli.session_s"]
    )
    first = traced[0]["trace"].values()
    counts: dict = {}
    for t in first:
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    out["exposure.defined_frac"] = counts.get("exposure.defined_records", 0) / max(counts.get("exposure.records", 0), 1)
    for name in spans.RSS_SPANS:
        growth = [t["rss_growth_mb"][name] for t in first if name in t["rss_growth_mb"]]
        if growth:
            out[f"{name}.rss_growth_mb"] = max(growth)
    out["host.calib_s"] = _calib_mean(result)
    return out


def run(args, work: str) -> int:
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(work)
    pass_dir = f"{work}/pass"

    log = workloads.gen_log(wl.log, args.seed)
    workloads.write_log(log, f"{work}/adoptions.csv", f"{work}/follows.csv")
    tags = workloads.top_tags(log)
    expected = workloads.recount_exposures(log, args.seed)
    del log
    workloads.write_sim_config(wl.sim, args.seed, f"{work}/sim.json")

    plan = {
        "src": "src",
        "pass_dir": pass_dir,
        "steps": _session_steps(work, pass_dir, args.seed, wl.sim["runs"], tags),
        "seconds": args.seconds,
        "max_seconds": MAX_PASS_SECONDS,
        "min_passes": MIN_PASSES,
        "trace": bool(args.trace),
    }
    with open(f"{work}/plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")]))
    env.pop("CASCADE_THREADS", None)

    here = os.path.dirname(os.path.abspath(__file__))
    setup = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, here], env=env,
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            return _fail(f"import tagcascade.cli failed:\n{probe.stderr}")
        import_s, calib_s = probe.stdout.split()
        setup.append((float(import_s), float(calib_s)))

    result_path = f"{work}/result.json"
    child = subprocess.Popen([sys.executable, os.path.join(here, "session.py"), f"{work}/plan.json",
                              result_path], env=env, stdout=subprocess.DEVNULL)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return _fail(f"workload process ran past {CHILD_TIMEOUT} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or not os.path.isfile(result_path):
        return _fail(f"workload process exited {code}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setup.append((result["import_s"], result["import_calib_s"]))

    checks = Checks()
    _check_outputs(checks, result, pass_dir, expected)
    e2e = _end_to_end(result, setup)
    layers = _per_layer(checks, result) if args.trace else None

    plain = [p for p in result["passes"] if not p["traced"]]
    wall = {f"{step}_s": _median([p["step_s"][step] for p in plain]) for step in STEPS}
    wall["session_s"] = _median([p["session_s"] for p in plain])
    print(f"perfbench: {args.workload} seed {args.seed}: {len(result['passes'])} passes "
          f"({len(plain)} untraced)", file=sys.stderr)
    print("  host-scaled: " + ", ".join(f"{k}={v:.4g}" for k, v in e2e.items()), file=sys.stderr)
    print("  wall:        " + ", ".join(f"{k}={v:.4g}" for k, v in wall.items())
          + f", host.calib_s={_calib_mean(result):.4g}", file=sys.stderr)
    if layers is not None:
        layers["failed_ops_frac"] = checks.failed / checks.attempted
        metrics = {name: {"value": layers[name], "unit": PER_LAYER[name]}
                   for name in PER_LAYER if name in layers}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "tagcascade", "cli.py")):
        return _fail("no tagcascade source at ./src/tagcascade; run from the root of a checkout")
    problem = _check_benchmark_json()
    if problem:
        return _fail(problem)

    # On SIGTERM, unwind through the finally clauses that stop the workload
    # process and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work = os.path.join(".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".perfbench-work")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
