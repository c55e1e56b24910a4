"""Independent oracles for the test suite.

These deliberately avoid the library's data structures and algorithms:
the exposure oracle rescans raw event rows per first usage, and the
power-law sampler inverts the discrete CDF by doubling + binary search
on the survival function, the cutoff scan fits one candidate at a
time with scipy's scalar brentq, the preferential-attachment generator
draws each pick with its own `Generator.integers` call, the giant
component comes from a union-find that merges one edge at a time, the
diffusion models walk adopters and edges one Python step at a time, the
version 1 snapshot writer encodes one label at a time, the reference
ingest checks and interns one row at a time, and the result references
build per-user thresholds, curve buckets and correlation bins one row at a
time. Tests compare library output against these, never the other way round.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.special import zeta

from tagcascade.errors import DegenerateSampleError, InsufficientTailError, MalformedRowError
from tagcascade.events import SINCE_ALWAYS, Dataset, FollowerGraph, parse_timestamp

# ---------------------------------------------------------------------------
# brute-force exposure oracle
# ---------------------------------------------------------------------------

def brute_force_exposures(adoption_rows, follow_rows, *, ties="strict", popularity="adopters"):
    """Recompute every exposure record by rescanning the raw rows.

    adoption_rows: (user, tag, time_ms) tuples, any order, duplicates allowed.
    follow_rows: (src, dst) or (src, dst, since_ms_or_None).

    Returns {(user, tag): dict} with exact-rational exposure (None when the
    ego had no alters at adoption time).
    """
    firsts = {}
    for u, x, t in adoption_rows:
        key = (u, x)
        if key not in firsts or t < firsts[key]:
            firsts[key] = t

    edges = {}
    for row in follow_rows:
        src, dst = row[0], row[1]
        since = row[2] if len(row) > 2 else None
        if src == dst:
            continue
        key = (src, dst)
        if key not in edges:
            edges[key] = since
        elif edges[key] is not None and (since is None or since < edges[key]):
            edges[key] = since

    out = {}
    for (u, x), t0 in firsts.items():
        nbrs = [
            dst
            for (src, dst), since in edges.items()
            if src == u and (since is None or since <= t0)
        ]
        active = 0
        for v in nbrs:
            tv = firsts.get((v, x))
            if tv is None:
                continue
            if tv < t0 or (ties == "inclusive" and tv == t0):
                active += 1
        if popularity == "adopters":
            pop = sum(1 for (w, y), tw in firsts.items() if y == x and tw < t0)
        else:
            pop = sum(1 for _, y, tw in adoption_rows if y == x and tw < t0)
        out[(u, x)] = {
            "time": t0,
            "active": active,
            "neighborhood": len(nbrs),
            "exposure": Fraction(active, len(nbrs)) if nbrs else None,
            "popularity": pop,
        }
    return out


def assert_table_matches_oracle(ds, table, oracle):
    __tracebackhide__ = True
    assert len(table) == len(oracle)
    for rec in table:
        key = (ds.user_label(rec.user), ds.tag_label(rec.tag))
        want = oracle[key]
        assert rec.time == want["time"], key
        assert rec.active_alters == want["active"], key
        assert rec.neighborhood_size == want["neighborhood"], key
        assert rec.tag_popularity_at_adoption == want["popularity"], key
        if want["exposure"] is None:
            assert math.isnan(rec.exposure), key
        else:
            assert abs(rec.exposure - float(want["exposure"])) < 1e-12, key


# ---------------------------------------------------------------------------
# random micro-datasets (deliberate timestamp ties)
# ---------------------------------------------------------------------------

def random_micro_rows(rng: np.random.Generator):
    n_users = int(rng.integers(1, 31))
    n_tags = int(rng.integers(1, 11))
    n_events = int(rng.integers(0, 201))
    users = [f"u{i}" for i in range(n_users)]
    tags = [f"x{i}" for i in range(n_tags)]
    # narrow time range forces plenty of exact ties
    adoptions = [
        (
            users[int(rng.integers(n_users))],
            tags[int(rng.integers(n_tags))],
            int(rng.integers(0, 40)),
        )
        for _ in range(n_events)
    ]
    timed = bool(rng.integers(0, 2))
    follows = []
    n_edges = int(rng.integers(0, 120))
    for _ in range(n_edges):
        a = users[int(rng.integers(n_users))]
        b = users[int(rng.integers(n_users))]
        if timed:
            since = int(rng.integers(0, 40)) if rng.integers(0, 2) else None
            follows.append((a, b, since))
        else:
            follows.append((a, b))
    return adoptions, follows


# ---------------------------------------------------------------------------
# independent discrete power-law sampler (inverse CDF)
# ---------------------------------------------------------------------------

def zeta_sample(alpha: float, xmin: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Exact inverse-CDF draws: the smallest k >= xmin with
    zeta(alpha, k+1) <= (1-u) * zeta(alpha, xmin), located by doubling
    then binary search."""
    znorm = zeta(alpha, float(xmin))
    u = rng.random(size)
    target = (1.0 - u) * znorm
    lo = np.full(size, xmin, dtype=np.int64)
    hi = np.full(size, xmin, dtype=np.int64)
    active = zeta(alpha, hi + 1.0) > target
    while active.any():
        lo[active] = hi[active] + 1
        hi[active] = hi[active] * 2 + 1
        active = zeta(alpha, hi + 1.0) > target
    while (lo < hi).any():
        mid = (lo + hi) // 2
        le = zeta(alpha, mid + 1.0) <= target
        hi = np.where(le & (lo < hi), mid, hi)
        lo = np.where(~le & (lo < hi), mid + 1, lo)
    return lo


# ---------------------------------------------------------------------------
# scalar power-law cutoff scan (one brentq solve and one KS pass per cutoff)
# ---------------------------------------------------------------------------

_ALPHA_LO = 1.01
_ALPHA_HI = 20.0
_MLE_DIFF_H = 1e-6


def _log_zeta(alpha: float, q: float) -> float:
    if alpha <= 1.0:
        return math.inf  # zeta pole: likelihood -inf this side of the bracket
    z = zeta(alpha, q)
    if z > 0 and math.isfinite(z):
        return math.log(z)
    if math.isinf(z):
        return math.inf
    # Underflow guard: zeta(a, q) ~ q^-a for large a.
    return -alpha * math.log(q)


def alpha_mle(log_sum: float, n: int, xmin: int) -> float:
    """Maximize -alpha * sum(log x) - n * log(zeta(alpha, xmin)) by solving
    the stationarity condition mean(log x) + d/da log zeta(a, xmin) = 0
    with scipy's scalar brentq."""
    from scipy.optimize import brentq

    mean_log = log_sum / n

    def grad(a: float) -> float:
        dlz = (_log_zeta(a + _MLE_DIFF_H, xmin) - _log_zeta(a - _MLE_DIFF_H, xmin))
        return mean_log + dlz / (2.0 * _MLE_DIFF_H)

    # grad is strictly increasing (the log-likelihood is concave in alpha)
    if grad(_ALPHA_HI) <= 0:
        return _ALPHA_HI
    if grad(_ALPHA_LO) >= 0:
        return _ALPHA_LO
    return float(brentq(grad, _ALPHA_LO, _ALPHA_HI, xtol=1e-12))


def ks_distance(alpha: float, xmin: int, vals: np.ndarray, cum_counts: np.ndarray, n: int) -> float:
    """Sup-norm distance between the empirical tail CDF and the fitted CDF.

    vals: sorted unique tail values (vals[0] == xmin); cum_counts[i] is the
    number of tail samples <= vals[i]. The supremum is attained at an
    observed value or just before the next one.
    """
    surv_next = zeta(alpha, vals + 1.0)          # zeta(a, v+1)
    surv_at = surv_next + np.power(vals, -alpha)  # zeta(a, v)
    z_norm = surv_at[0]                           # zeta(a, xmin)
    fit_at = 1.0 - surv_next / z_norm             # F(v)
    fit_before = 1.0 - surv_at / z_norm           # F(v - 1)
    emp = cum_counts / n
    emp_prev = np.concatenate(([0.0], emp[:-1]))
    return float(np.maximum(np.abs(emp - fit_at), np.abs(emp_prev - fit_before)).max())


def scan_xmin(sorted_samples: np.ndarray, min_tail: int = 2):
    """(alpha, xmin, D, n_tail) of the first cutoff with the smallest KS
    distance, one candidate at a time."""
    n = sorted_samples.shape[0]
    vals, starts = np.unique(sorted_samples, return_index=True)
    if vals.shape[0] < 2:
        raise DegenerateSampleError("need at least two distinct sample values")
    log_suffix = np.cumsum(np.log(sorted_samples[::-1]))[::-1]

    best = None
    for ci in range(vals.shape[0] - 1):
        pos = int(starts[ci])
        n_tail = n - pos
        if n_tail < max(2, min_tail):
            continue
        xmin = int(vals[ci])
        alpha = alpha_mle(float(log_suffix[pos]), n_tail, xmin)
        tail_vals = vals[ci:].astype(np.float64)
        cum = np.concatenate((np.diff(starts[ci:]), [n - starts[-1]])).cumsum()
        dist = ks_distance(alpha, xmin, tail_vals, cum.astype(np.float64), n_tail)
        if best is None or dist < best[2]:
            best = (alpha, xmin, dist, n_tail)
    if best is None:
        raise InsufficientTailError("no cutoff leaves at least two tail samples")
    return best


# ---------------------------------------------------------------------------
# preferential attachment, one Generator.integers call per draw
# ---------------------------------------------------------------------------

def preferential_attachment_reference(n: int, m: int, seed: int):
    """(indptr, dst) of the preferential-attachment graph: node i >= m
    observes m distinct nodes drawn from a pool that holds every node once
    at birth and once per incoming edge, each draw a scalar
    `rng.integers(0, len(pool))`."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = list(range(m))
    indptr = [0] * (m + 1)
    dst = []
    for i in range(m, n):
        picks: set = set()
        while len(picks) < m:
            picks.add(pool[int(rng.integers(0, len(pool)))])
        for v in sorted(picks):
            dst.append(v)
            pool.append(v)
        pool.append(i)
        indptr.append(len(dst))
    return np.asarray(indptr, dtype=np.int64), np.asarray(dst, dtype=np.int64)


# ---------------------------------------------------------------------------
# largest weakly-connected component, union-find one edge at a time
# ---------------------------------------------------------------------------

def giant_component_reference(n: int, edges) -> set:
    """Members of the largest weakly-connected component of the graph on
    users 0..n-1 with (src, dst) `edges`. Users with no edges are singleton
    components; ties go to the component holding the smallest user."""
    parent = list(range(n))

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = [find(u) for u in range(n)]
    sizes = Counter(roots)
    if not sizes:
        return set()
    best = max(sizes.values())
    winner = min(r for r, size in sizes.items() if size == best)
    return {u for u in range(n) if roots[u] == winner}


# ---------------------------------------------------------------------------
# diffusion models, one adopter and one edge at a time
# ---------------------------------------------------------------------------

def simulate_reference(cfg):
    """(adopt_step, step_counts, theta) of the run `cfg` describes, with the
    same draws as `tagcascade.simulate.run_model` (theta, then seeds, then
    edge uniforms). Active-alter counts go up by one per observer of each
    adopter; a cascade step tries every edge of every frontier member."""
    graph = cfg.graph
    n = graph.n
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta = None if cfg.model == "cascade" else cfg.params.thresholds.draw(n, rng)
    if cfg.seed_users is not None:
        seeds = sorted(set(int(u) for u in cfg.seed_users))
    else:
        seeds = sorted(rng.choice(n, size=cfg.n_seeds, replace=False).tolist())
    observers = [[] for _ in range(n)]  # (observer, forward edge slot) per observed node
    for slot, (src, dst) in enumerate(graph.edge_list().tolist()):
        observers[dst].append((src, slot))

    adopt_step = np.full(n, -1, dtype=np.int64)
    adopt_step[seeds] = 0
    step_counts = [len(seeds)]
    if cfg.model == "cascade":
        edge_u = rng.random(graph.n_edges)
        frontier = seeds
        step = 0
        while frontier and step < cfg.max_steps:
            step += 1
            newly = []
            for a in frontier:
                for v, slot in observers[a]:
                    if adopt_step[v] < 0 and edge_u[slot] < cfg.params.p:
                        adopt_step[v] = step
                        newly.append(v)
            frontier = newly
            if frontier:
                step_counts.append(len(frontier))
        return adopt_step, np.asarray(step_counts, dtype=np.int64), theta

    lag = cfg.params.lag if cfg.model == "learning" else 0
    outdeg = graph.out_degrees().astype(np.int64)
    can_adopt = outdeg > 0
    active_count = np.zeros(n, dtype=np.int64)
    for s in seeds:
        for v, _ in observers[s]:
            active_count[v] += 1
    exposure = np.zeros(n, dtype=np.float64)
    streak = np.zeros(n, dtype=np.int64)
    for step in range(1, cfg.max_steps + 1):
        open_mask = (adopt_step < 0) & can_adopt
        np.divide(active_count, outdeg, out=exposure, where=can_adopt)
        satisfied = open_mask & (exposure >= theta)
        streak[satisfied] += 1
        streak[open_mask & ~satisfied] = 0
        newly = np.flatnonzero(satisfied & (streak >= lag + 1))
        if newly.shape[0] == 0:
            if not np.any(satisfied):
                break
            step_counts.append(0)
            continue
        adopt_step[newly] = step
        step_counts.append(int(newly.shape[0]))
        for u in newly:
            for v, _ in observers[u]:
                active_count[v] += 1
    return adopt_step, np.asarray(step_counts, dtype=np.int64), theta


# ---------------------------------------------------------------------------
# version 1 snapshot writer
# ---------------------------------------------------------------------------

def save_snapshot_v1(d, path) -> None:
    """Write `d` as a version 1 snapshot: per label a u32 byte length and the
    UTF-8 bytes, and no checksum trailer; otherwise the version 2 layout."""
    buf = bytearray(b"CSCD")
    flags = 1 if d.graph.since is not None else 0
    buf += struct.pack("<II", 1, flags)
    buf += struct.pack("<QQQQ", d.n_users, d.n_tags, d.n_events, d.n_edges)
    for table in (d.user_labels, d.tag_labels):
        for label in table:
            raw = label.encode("utf-8")
            buf += struct.pack("<I", len(raw))
            buf += raw
    buf += d.event_time.astype("<i8").tobytes()
    buf += d.event_user.astype("<i4").tobytes()
    buf += d.event_tag.astype("<i4").tobytes()
    buf += d.event_first.astype("<u1").tobytes()
    buf += d.graph.indptr.astype("<i8").tobytes()
    buf += d.graph.dst.astype("<i4").tobytes()
    if d.graph.since is not None:
        buf += d.graph.since.astype("<i8").tobytes()
    buf += struct.pack("<I", len(d.warnings))
    for key in sorted(d.warnings):
        raw = key.encode("utf-8")
        buf += struct.pack("<I", len(raw))
        buf += raw
        buf += struct.pack("<q", int(d.warnings[key]))
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


# ---------------------------------------------------------------------------
# per-row TSV writer
# ---------------------------------------------------------------------------

def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_tsv_reference(path, header, rows) -> int:
    """Write rows of Python values as TSV one cell at a time: None is an
    empty cell, a float its repr, anything else str(). Returns the row
    count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(format_cell(v) for v in row) + "\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# row-loop ingest
# ---------------------------------------------------------------------------

def build_dataset_reference(adoptions, follows, *, reverse_edges=False, mutual_edges=False,
                            time_unit="ms"):
    """`build_dataset` one row at a time: each row is checked, parsed and
    collected in a Python loop, self-loops are dropped before the labels are
    interned, and edges are deduplicated by one lexsort and sorted into CSR
    order by another."""
    ad_users, ad_tags, ad_times = [], [], []
    for rowno, row in enumerate(adoptions, start=1):
        try:
            user, tag, when = row[0], row[1], row[2]
        except (IndexError, TypeError):
            raise MalformedRowError(rowno, f"adoption row needs 3 fields, got {row!r}")
        try:
            t = parse_timestamp(when, unit=time_unit)
        except ValueError as exc:
            raise MalformedRowError(rowno, str(exc)) from None
        ad_users.append(str(user))
        ad_tags.append(str(tag))
        ad_times.append(t)

    follow_src, follow_dst, follow_since = [], [], []
    self_loops = 0
    has_since = False
    for rowno, row in enumerate(follows, start=1):
        if len(row) not in (2, 3):
            raise MalformedRowError(rowno, f"follow row needs 2 or 3 fields, got {row!r}")
        src, dst = str(row[0]), str(row[1])
        since = SINCE_ALWAYS
        if len(row) == 3 and row[2] not in (None, ""):
            try:
                since = parse_timestamp(row[2], unit=time_unit)
            except ValueError as exc:
                raise MalformedRowError(rowno, str(exc)) from None
            has_since = has_since or since != SINCE_ALWAYS  # -2^63 means "always" too
        if reverse_edges:
            src, dst = dst, src
        if src == dst:
            self_loops += 1
            continue
        follow_src.append(src)
        follow_dst.append(dst)
        follow_since.append(since)
    if mutual_edges:
        follow_src, follow_dst = follow_src + follow_dst, follow_dst + follow_src
        follow_since += follow_since

    user_labels = tuple(sorted(set(ad_users).union(follow_src, follow_dst)))
    tag_labels = tuple(sorted(set(ad_tags)))
    user_index = {lab: i for i, lab in enumerate(user_labels)}
    tag_index = {lab: i for i, lab in enumerate(tag_labels)}

    ev_user = np.array([user_index[u] for u in ad_users], dtype=np.int32)
    ev_tag = np.array([tag_index[x] for x in ad_tags], dtype=np.int32)
    ev_time = np.array(ad_times, dtype=np.int64)
    order = np.lexsort((ev_tag, ev_user, ev_time))
    ev_user, ev_tag, ev_time = ev_user[order], ev_tag[order], ev_time[order]
    ev_first = np.zeros(len(ad_users), dtype=bool)
    seen = set()
    for i, pair in enumerate(zip(ev_user.tolist(), ev_tag.tolist())):
        if pair not in seen:
            seen.add(pair)
            ev_first[i] = True

    n_rows = len(follow_src)
    src = np.array([user_index[u] for u in follow_src], dtype=np.int32)
    dst = np.array([user_index[u] for u in follow_dst], dtype=np.int32)
    since = np.array(follow_since, dtype=np.int64)
    order = np.lexsort((since, dst, src))
    src, dst, since = src[order], dst[order], since[order]
    keep = np.ones(n_rows, dtype=bool)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst, since = src[keep], dst[keep], since[keep]
    timed = has_since and n_rows > 0  # an empty graph is static
    order = np.lexsort((dst, since, src) if timed else (dst, src))
    n = len(user_labels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    graph = FollowerGraph(n, indptr, np.ascontiguousarray(dst[order]),
                          np.ascontiguousarray(since[order]) if timed else None)
    return Dataset(
        user_table=user_labels,
        tag_table=tag_labels,
        event_time=np.ascontiguousarray(ev_time),
        event_user=np.ascontiguousarray(ev_user),
        event_tag=np.ascontiguousarray(ev_tag),
        event_first=ev_first,
        graph=graph,
        warnings={"self_loops_dropped": self_loops,
                  "duplicate_edges_dropped": n_rows - int(keep.sum())},
    )


# ---------------------------------------------------------------------------
# per-row result builders
# ---------------------------------------------------------------------------

def user_thresholds_reference(table, n_users: int) -> list:
    """(user, beta, defined_adoptions, undefined_adoptions) per user with a
    defined record, in handle order, built one user at a time."""
    defined = table.defined_mask
    users_def = table.user[defined]
    sums = np.bincount(users_def, weights=table.exposure[defined], minlength=n_users)
    counts = np.bincount(users_def, minlength=n_users)
    undef_counts = np.bincount(table.user[~defined], minlength=n_users)
    return [(int(u), float(sums[u] / counts[u]), int(counts[u]), int(undef_counts[u]))
            for u in np.flatnonzero(counts)]


def adoption_curve_reference(d, x: int, bucket_ms: int) -> list:
    """(time, new_first_usages, cumulative_first_usages, subsequent_usages,
    saturation) per bucket of tag x, built one bucket at a time; `time` is a
    Python int, exact below -2^63."""
    mask = d.event_tag == x
    times = d.event_time[mask]
    firsts = d.event_first[mask]
    buckets = times // bucket_ms
    lo, hi = int(buckets.min()), int(buckets.max())
    span = hi - lo + 1
    new_first = np.bincount(buckets[firsts] - lo, minlength=span)
    total = np.bincount(buckets - lo, minlength=span)
    subsequent = total - new_first
    cumulative = np.cumsum(new_first)
    return [(int((lo + i) * bucket_ms), int(new_first[i]), int(cumulative[i]),
             int(subsequent[i]), float(cumulative[i] / d.n_users))
            for i in range(span)]


def correlation_bins_reference(table, bins: int) -> list:
    """(lo, hi, mean_exposure, count) per logarithmic popularity bin of the
    defined records, built one bin at a time; an empty bin's mean is None."""
    defined = table.defined_mask
    pop = table.tag_popularity_at_adoption[defined].astype(np.float64)
    expo = table.exposure[defined]
    shifted = pop + 1.0
    edges = np.logspace(0.0, math.log10(float(shifted.max())), bins + 1)
    edges[0], edges[-1] = 1.0, float(shifted.max())
    idx = np.clip(np.searchsorted(edges, shifted, side="right") - 1, 0, bins - 1)
    rows = []
    for b in range(bins):
        sel = idx == b
        count = int(np.count_nonzero(sel))
        rows.append((float(edges[b] - 1.0), float(edges[b + 1] - 1.0),
                     float(expo[sel].mean()) if count else None, count))
    return rows
