"""Workload process: imports tagcascade.cli cold, then runs the session's
commands as a single-client closed loop of in-process `cli.main(argv)`
calls, pass after pass, until the run window is used up.

Usage: python3 perfbench/session.py PLAN_JSON RESULT_JSON

Only the standard library is imported before the timed import, so
numpy and scipy load as part of it, as they do for every `cascade` run.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time


def _report_digest(text: str) -> str:
    """Digest of a run report without its `timing` key, the only part that
    may differ between identical runs."""
    report = json.loads(text)
    report.pop("timing", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _tree_digest(h, path: str) -> None:
    if os.path.isdir(path):
        for entry in sorted(os.listdir(path)):
            _tree_digest(h, os.path.join(path, entry))
        return
    h.update(path.encode() + b"\0")
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)


def calibrate() -> float:
    """Time a fixed mix of interpreter work (string keys into a dict) and
    numpy work (sorting 1.6 MB); its duration tracks host speed. The faster
    of two back-to-back repetitions is kept."""
    import numpy as np

    data = np.arange(200_000, dtype=np.int64) * 7919 % 200_003
    best = None
    for _ in range(2):
        started = time.perf_counter()
        table = {}
        for i in range(15_000):
            table[f"k{i * 7919 % 15_013}"] = i
        np.sort(data)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def run_pass(cli, plan: dict, tracer=None) -> dict:
    """One pass over the session's steps. calib_s[i] and calib_s[i + 1] are
    timed right before and after step i; with a tracer, trace[step] holds
    that step's layer summary."""
    pass_dir = plan["pass_dir"]
    shutil.rmtree(pass_dir, ignore_errors=True)
    os.makedirs(pass_dir)
    step_seconds, exit_codes, digests, traces = {}, {}, {}, {}
    calib = [calibrate()]
    for step in plan["steps"]:
        h = hashlib.sha256()
        command_seconds, codes = [], []
        if tracer is not None:
            tracer.reset()
        for argv in step["calls"]:
            out = io.StringIO()
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a crashing command is a failed operation
                print(f"{step['name']}: {type(exc).__name__}: {exc}", file=sys.stderr)
                code = -1
            command_seconds.append(time.perf_counter() - started)
            codes.append(code)
            if code == 0:
                h.update(_report_digest(out.getvalue()).encode())
        if tracer is not None:
            traces[step["name"]] = tracer.summary(sum(command_seconds))
        calib.append(calibrate())
        for rel in step["outputs"]:
            path = os.path.join(pass_dir, rel)
            if os.path.exists(path):
                _tree_digest(h, path)
            else:
                h.update(b"missing:" + rel.encode())
        step_seconds[step["name"]] = sum(command_seconds)
        exit_codes[step["name"]] = codes
        digests[step["name"]] = h.hexdigest()
    result = {
        "traced": tracer is not None,
        "step_s": step_seconds,
        "session_s": sum(step_seconds.values()),
        "calib_s": calib,
        "exit_codes": exit_codes,
        "digests": digests,
    }
    if tracer is not None:
        result["trace"] = traces
    return result


def main() -> int:
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    started = time.perf_counter()
    import tagcascade.cli as cli
    import_s = time.perf_counter() - started
    import_calib_s = calibrate()

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"tagcascade was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = missing = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
    passes = []
    window = time.perf_counter()
    while True:
        # With tracing, traced and untraced passes alternate, traced first,
        # so the first traced pass starts from the fresh process.
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            missing = tracer.install()
            try:
                passes.append(run_pass(cli, plan, tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(run_pass(cli, plan))
        elapsed = time.perf_counter() - window
        if elapsed >= plan["max_seconds"]:
            break
        # Stop once another pass would end nearer after the window than before.
        if len(passes) >= plan["min_passes"] and elapsed + elapsed / len(passes) / 2 >= plan["seconds"]:
            break

    result = {
        "import_s": import_s,
        "import_calib_s": import_calib_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "untraceable": missing or [],
        "passes": passes,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
