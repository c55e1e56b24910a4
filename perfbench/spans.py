"""Spans around calls into tagcascade's layers, recorded from outside.

Each traced function is rebound, in every tagcascade module that holds a
reference to it, to a wrapper that records a span: name, start, end, the
enclosing span and its ru_maxrss growth. A layer's self time is its spans'
durations minus the durations of their direct child spans; cli self time
is the commands' wall time minus their top-level spans.

Importing this module imports nothing from tagcascade.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time

# Metric name -> the public functions whose self time it sums. These are
# the layers measured; a function left out here is not traced and its time
# stays with its caller. Per-row helpers (parse_timestamp, format_cell) are
# left out on purpose: a span per input row would cost more than the call.
LAYERS = {
    "textio.read_adoptions_s": ("textio.read_adoptions",),
    "textio.read_follows_s": ("textio.read_follows",),
    "textio.write_tsv_s": ("textio.write_tsv",),
    "textio.write_csv_s": ("textio.write_adoptions_csv", "textio.write_follows_csv"),
    "textio.report_s": ("textio.dump_json", "textio.file_digest", "textio.parse_duration_ms"),
    "events.build_dataset_s": ("events.build_dataset",),
    "events.build_graph_s": ("events.build_follower_graph",),
    "events.giant_component_s": ("events.giant_component",),
    "events.density_s": ("events.density", "events.directed_density"),
    "snapshot.save_s": ("snapshot.save_snapshot",),
    "snapshot.load_s": ("snapshot.load_snapshot",),
    "exposure.all_exposures_s": ("exposure.all_exposures",),
    "exposure.population_thresholds_s": ("exposure.population_thresholds",
                                         "exposure.user_thresholds_from_table"),
    "exposure.threshold_summary_s": ("exposure.threshold_summary",),
    "stats.correlation_s": ("stats.popularity_threshold_correlation",),
    "stats.adoption_curve_s": ("stats.adoption_curve",),
    "stats.popularity_samples_s": ("stats.popularity_samples",),
    "stats.spearman_s": ("stats.spearman_rho",),
    "powerlaw.fit_s": ("powerlaw.fit_power_law", "powerlaw.fitted_tail_ccdf"),
    "simulate.gen_graph_s": ("simulate.gen_graph", "simulate.preferential_attachment",
                             "simulate.erdos_renyi"),
    "simulate.run_model_s": ("simulate.run_model", "simulate.run_threshold_model",
                             "simulate.run_independent_cascade", "simulate.run_social_learning"),
    "simulate.recover_from_ingested_s": ("simulate.recover_from_ingested",),
}

# Spans whose ru_maxrss growth is reported, as "<function>.rss_growth_mb".
RSS_SPANS = ("events.build_dataset", "exposure.all_exposures", "snapshot.load_snapshot")


def _add(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _hook_read(counts, args, kwargs, result):
    _add(counts, "textio.rows_read", len(result[0]))


def _hook_build_dataset(counts, args, kwargs, ds):
    _add(counts, "events.first_usages", ds.n_first_usages)
    _add(counts, "events.edges", ds.n_edges)
    _add(counts, "events.duplicate_edges_dropped", int(ds.warnings["duplicate_edges_dropped"]))


def _hook_save(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    _add(counts, "snapshot.bytes", os.path.getsize(path))


def _hook_exposures(counts, args, kwargs, table):
    _add(counts, "exposure.records", len(table))
    _add(counts, "exposure.alters_scanned", int(table.neighborhood_size.sum()))
    _add(counts, "exposure.defined_records", table.n_defined)


def _hook_fit(counts, args, kwargs, fit):
    import numpy as np

    _add(counts, "powerlaw.bootstrap_replicates", int(kwargs.get("bootstrap", 100)))
    _add(counts, "powerlaw.distinct_values", int(np.unique(args[0]).shape[0]))


def _hook_run_model(counts, args, kwargs, run):
    _add(counts, "simulate.steps", len(run.step_counts) - 1)
    _add(counts, "simulate.adopters", run.n_adopters)


HOOKS = {
    "textio.read_adoptions": _hook_read,
    "textio.read_follows": _hook_read,
    "textio.write_tsv": lambda c, a, k, n: _add(c, "textio.tsv_rows_written", n),
    "textio.write_adoptions_csv": lambda c, a, k, n: _add(c, "textio.csv_rows_written", n),
    "textio.write_follows_csv": lambda c, a, k, n: _add(c, "textio.csv_rows_written", n),
    "events.build_dataset": _hook_build_dataset,
    "snapshot.save_snapshot": _hook_save,
    "snapshot.load_snapshot": lambda c, a, k, r: _add(c, "snapshot.load_calls", 1),
    "exposure.all_exposures": _hook_exposures,
    "powerlaw.fit_power_law": _hook_fit,
    "simulate.run_model": _hook_run_model,
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Installs span-recording wrappers into the loaded tagcascade modules
    and removes them again; spans stay in memory until summarized."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, rss growth kb]
        self.counts = {}
        self._stack = []
        self._saved = []     # (module, attribute, original function)
        self._wanted = {f for funcs in LAYERS.values() for f in funcs}

    def install(self) -> list[str]:
        """Rebind every traced function in every tagcascade module that
        holds it; returns the traced functions that could not be found."""
        wrappers = {}
        modules = [m for n, m in sys.modules.items() if n == "tagcascade" or n.startswith("tagcascade.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                name = self._layer_name(obj)
                if name not in self._wanted:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(name, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        found = {self._layer_name(fn) for fn in wrappers}
        return sorted(self._wanted - found)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    @staticmethod
    def _layer_name(obj):
        module = getattr(obj, "__module__", None)
        if not callable(obj) or not isinstance(module, str) or not module.startswith("tagcascade."):
            return None
        return f"{module.rsplit('.', 1)[1]}.{getattr(obj, '__name__', '')}"

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_kb()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = _maxrss_kb() - rss0
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts = {}

    def summary(self, command_seconds: float) -> dict:
        """Self time per layer metric, cli self time, counts and ru_maxrss
        growth of the spans recorded since the last reset, during which the
        commands took `command_seconds` of wall time."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        by_function: dict = {}
        rss: dict = {}
        for i, (name, start, end, _, growth) in enumerate(self.spans):
            by_function[name] = by_function.get(name, 0.0) + (end - start) - child[i]
            if name in RSS_SPANS:
                rss[name] = max(rss.get(name, 0), growth)
        layers = {
            metric: sum(by_function.get(f, 0.0) for f in funcs)
            for metric, funcs in LAYERS.items()
            if any(f in by_function for f in funcs)
        }
        return {
            "layers": layers,
            "cli_self_s": command_seconds - top,
            "counts": dict(self.counts),
            "rss_growth_mb": {name: kb / 1024.0 for name, kb in rss.items()},
        }
