"""Seeded inputs for the benchmark workloads, and the harness's own recount
of exposures from the generated arrays.

Nothing here imports tagcascade: inputs are made and answers are recounted
independently of the code under test, in the parent process, so input
generation counts toward no metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

YEAR_MS = 365 * 86_400_000
N_CURVE_TAGS = 20
N_RECOUNT = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    log: dict          # event log and follower graph fed to `ingest`
    sim: dict          # graph and model parameters fed to `simulate`
    why: str


# Every workload runs the same session (ingest, stats, thresholds, correlate,
# fit-powerlaw, curves, then simulate, recover and a cascade simulate), so
# every metric is measured on every workload; the workloads differ in input
# shape, which decides the layer that dominates. Sizes are the shapes of the
# design (desk: 1e5 users, 1e6 events, 1e5 edges; dense: 2e6 timed edges;
# roundtrip: 20 runs on n=2e4 graphs) scaled down so that a run repeats its
# session several times on a 2-core host, because the run-to-run spread
# falls with the number of passes; the ratios that pick the dominant layer
# (events per user, out-degree, timed or static edges) are kept.
SIM_TAIL = {"n": 10_000, "m": 4, "runs": 1, "seeds": 200, "seed_pool": 1_000,
            "threshold_b": 0.4, "cascade_p": 0.8}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk",
            {"users": 12_500, "events": 125_000, "edges": 12_500, "timed": False,
             "zipf": 1.8, "tag_cap": 4_750},
            SIM_TAIL,
            "event-heavy log (Zipf tags, sparse static graph): ingest goes to adoption rows, "
            "exposure to many records with tiny neighbourhoods, a large exposures TSV",
        ),
        Workload(
            "dense",
            {"users": 6_250, "events": 12_500, "edges": 125_000, "timed": True, "tags": 500},
            SIM_TAIL,
            "edge-heavy log (timed edges, out-degree 20, few tags): ingest goes to follow rows "
            "and dedup, stats to union-find, exposure to timed neighbourhood scans",
        ),
        Workload(
            "roundtrip",
            {"users": 2_500, "events": 25_000, "edges": 2_500, "timed": False,
             "zipf": 1.8, "tag_cap": 950},
            dict(SIM_TAIL, runs=3),
            "simulate then recover over many preferential-attachment graphs: graph generation, "
            "CSV writes, re-ingest; the log part is small",
        ),
    )
}


def user_label(u: int) -> str:
    return f"u{u:06d}"


def tag_label(x: int) -> str:
    return f"x{x:05d}"


# ---------------------------------------------------------------------------
# event log and follower graph
# ---------------------------------------------------------------------------

def gen_log(sizes: dict, seed: int) -> dict:
    """Arrays of one synthetic event log and follower graph."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_users, n_events, n_edges = sizes["users"], sizes["events"], sizes["edges"]
    users = rng.integers(0, n_users, n_events)
    if "zipf" in sizes:
        tags = np.minimum(rng.zipf(sizes["zipf"], n_events), sizes["tag_cap"]) - 1
    else:
        weights = 1.0 / np.arange(1, sizes["tags"] + 1)
        tags = rng.choice(sizes["tags"], size=n_events, p=weights / weights.sum())
    times = rng.integers(0, YEAR_MS, n_events)
    src = rng.integers(0, n_users, n_edges)
    dst = rng.integers(0, n_users, n_edges)
    since = None
    if sizes["timed"]:
        # One edge in five has an empty `since` (present for all time).
        since = rng.integers(0, YEAR_MS, n_edges)
        since[rng.random(n_edges) < 0.2] = -1
    return {"users": users, "tags": tags, "times": times, "src": src, "dst": dst, "since": since}


def write_log(log: dict, adoptions_path, follows_path) -> None:
    users = [user_label(u) for u in log["users"].tolist()]
    tags = [tag_label(x) for x in log["tags"].tolist()]
    with open(adoptions_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("user_id,tag_id,timestamp\n")
        fh.write("".join(f"{u},{x},{t}\n" for u, x, t in zip(users, tags, log["times"].tolist())))
    src = [user_label(u) for u in log["src"].tolist()]
    dst = [user_label(u) for u in log["dst"].tolist()]
    with open(follows_path, "w", encoding="utf-8", newline="") as fh:
        if log["since"] is None:
            fh.write("src_id,dst_id\n")
            fh.write("".join(f"{a},{b}\n" for a, b in zip(src, dst)))
        else:
            fh.write("src_id,dst_id,since\n")
            since = ["" if s < 0 else str(s) for s in log["since"].tolist()]
            fh.write("".join(f"{a},{b},{s}\n" for a, b, s in zip(src, dst, since)))


def top_tags(log: dict, k: int = N_CURVE_TAGS) -> list[str]:
    """Labels of the k tags with the most distinct adopters (ties: lower id)."""
    pairs = np.unique(log["users"].astype(np.int64) * (1 << 32) + log["tags"])
    adopters = np.bincount(pairs & 0xFFFFFFFF)
    order = np.lexsort((np.arange(adopters.shape[0]), -adopters))
    return [tag_label(int(x)) for x in order[:k]]


def recount_exposures(log: dict, seed: int, k: int = N_RECOUNT) -> list[dict]:
    """Exposure of k sampled first usages, counted straight from the
    generated arrays: distinct observed alters whose edge exists at the
    ego's first-usage time, and how many of them first used the tag
    strictly earlier."""
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    users, tags, times = log["users"].astype(np.int64), log["tags"].astype(np.int64), log["times"]
    key = users * (1 << 32) + tags
    order = np.lexsort((times, key))
    key_sorted = key[order]
    starts = np.flatnonzero(np.r_[True, key_sorted[1:] != key_sorted[:-1]])
    first_key = key_sorted[starts]
    first_time = times[order][starts]

    src, dst, since = log["src"], log["dst"], log["since"]
    by_src = np.argsort(src, kind="stable")
    src_starts = np.searchsorted(src[by_src], np.arange(int(src.max()) + 2))

    def first_time_of(v: int, x: int):
        i = np.searchsorted(first_key, v * (1 << 32) + x)
        if i < first_key.shape[0] and first_key[i] == v * (1 << 32) + x:
            return int(first_time[i])
        return None

    picks = rng.choice(first_key.shape[0], size=min(k, first_key.shape[0]), replace=False)
    out = []
    for i in np.sort(picks).tolist():
        u, x, t = int(first_key[i] >> 32), int(first_key[i] & 0xFFFFFFFF), int(first_time[i])
        alters: dict = {}  # alter -> earliest since (-1 = always)
        if u + 1 < src_starts.shape[0]:
            for e in by_src[src_starts[u]:src_starts[u + 1]].tolist():
                v = int(dst[e])
                if v == u:
                    continue
                s = -1 if since is None else int(since[e])
                prev = alters.get(v)
                alters[v] = s if prev is None else min(prev, s)
        present = [v for v, s in alters.items() if s <= t]
        active = 0
        for v in present:
            tv = first_time_of(v, x)
            if tv is not None and tv < t:
                active += 1
        out.append({"user": user_label(u), "tag": tag_label(x), "time": t,
                    "active_alters": active, "neighborhood_size": len(present)})
    return out


# ---------------------------------------------------------------------------
# simulation config
# ---------------------------------------------------------------------------

def write_sim_config(sizes: dict, seed: int, path) -> None:
    """Simulation config for `simulate`. Seed users are drawn from the
    earliest nodes of the preferential-attachment graph, which the most
    users observe, so saturation (and with it the work per run) hardly
    depends on the seed."""
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    seed_users = np.sort(rng.choice(sizes["seed_pool"], size=sizes["seeds"], replace=False))
    cfg = {
        "graph": {"kind": "preferential_attachment", "n": sizes["n"], "m": sizes["m"]},
        "params": {"thresholds": {"kind": "uniform", "a": 0.0, "b": sizes["threshold_b"]},
                   "p": sizes["cascade_p"]},
        "seeds": {"users": seed_users.tolist()},
        "max_steps": 100,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
