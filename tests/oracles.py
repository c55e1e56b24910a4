"""Independent oracles for the test suite.

These deliberately avoid the library's data structures and algorithms:
the exposure oracle rescans raw event rows per first usage, the exposure
kernel's previous form answers its time ranks, popularity and alter join
by global binary searches, and the
power-law sampler inverts the discrete CDF by doubling + binary search
on the survival function, the cutoff scan fits one candidate at a
time with scipy's scalar brentq on a gradient from its own term-by-term
zeta series, the batched KS pass is replayed in one
unblocked pass (it reuses the library's `_hurwitz`, so it checks the
blocking and nothing else), the preferential-attachment generator
keeps its pool as a Python list and looks each drawn position up in it,
G(n, p) walks the node pairs one geometric gap at a time, the giant
component comes from a union-find that merges one edge at a time, the
diffusion models walk adopters and edges one Python step at a time, the
reference ingest checks and interns one row at a time, the result references
build per-user thresholds, curve buckets and correlation bins one row at a
time, the JSON text comes from the standard library's own encoder, the
reference CSV reader takes one csv.reader row at a time, and simulated node
ids are parsed one label at a time. Tests compare library output against
these, never the other way round.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.special import zeta

from tagcascade.errors import (
    DataError,
    DegenerateSampleError,
    InsufficientTailError,
    MalformedRowError,
)
from tagcascade.events import SINCE_ALWAYS, Dataset, FollowerGraph, Labels, parse_timestamp

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


# Alters expanded per pass of the active-alter join in `measure_reference`.
_REFERENCE_BLOCK = 1 << 17


def measure_reference(d, fidx, ties, popularity):
    """The exposure records of `exposure._measure`, by global binary
    searches: each record's time ranked among all events, popularity from
    sorted (tag, rank) keys and two searches, and each alter's first use of
    the tag looked up among all the records' sorted keys. The library
    derives the same answers from the order the events already have; it
    must give these bits."""
    from tagcascade.events import _csr_sources
    from tagcascade.exposure import ExposureTable

    k = fidx.shape[0]
    f_user = d.event_user[fidx].astype(np.int32, copy=False)
    f_tag = d.event_tag[fidx].astype(np.int32, copy=False)
    f_time = d.event_time[fidx].astype(np.int64, copy=False)
    graph = d.graph

    # Events are time-sorted, so an event time's or a `since`'s position in
    # event_time keeps every <, <= and == between them, and fits in
    # [0, n_events]: (row, time) and (tag, time) pack into one int64 key.
    span = d.n_events + 1
    f_rank = np.searchsorted(d.event_time, f_time, "left")
    f_tag_key = f_tag.astype(np.int64) * span

    # Distinct adopters (or total usages) of the tag strictly before each
    # adoption: the keys of the tag that sort before the record's own.
    if popularity == "adopters":
        pop_keys = np.sort(f_tag_key + f_rank)
    else:
        ev_rank = np.searchsorted(d.event_time, d.event_time, "left")
        pop_keys = np.sort(d.event_tag.astype(np.int64) * span + ev_rank)
    out_pop = (np.searchsorted(pop_keys, f_tag_key + f_rank, "left")
               - np.searchsorted(pop_keys, f_tag_key, "left"))

    # Alters present at adoption: a prefix of the ego's row, whose edges are
    # sorted by `since`.
    row_lo = graph.indptr[f_user]
    if graph.since is None:
        nbh = graph.indptr[f_user + 1] - row_lo
    else:
        edge_keys = (_csr_sources(graph.indptr, graph.n).astype(np.int64) * span
                     + np.searchsorted(d.event_time, graph.since, "left"))
        nbh = np.searchsorted(edge_keys, f_user.astype(np.int64) * span + f_rank, "right") - row_lo

    # Active alters: look up each present alter's first usage of the ego's
    # tag among the records, compare under the tie rule and count by record.
    # The alters of all records are scanned as one flat sequence, _BLOCK at
    # a time, so memory stays bounded whatever the neighbourhood sizes.
    use_key = f_user.astype(np.int64) * d.n_tags + f_tag
    by_key = np.argsort(use_key)
    use_key = use_key[by_key]
    use_time = f_time[by_key]
    earlier = np.less if ties == "strict" else np.less_equal
    flat_end = np.cumsum(nbh)
    flat_to_edge = row_lo + nbh - flat_end
    out_active = np.zeros(k, dtype=np.int64)
    total = int(flat_end[-1]) if k else 0
    for lo in range(0, total, _REFERENCE_BLOCK):
        hi = min(lo + _REFERENCE_BLOCK, total)
        first = int(np.searchsorted(flat_end, lo, "right"))
        last = int(np.searchsorted(flat_end, hi - 1, "right")) + 1
        ends = flat_end[first:last]
        starts = ends - nbh[first:last]
        rec = np.repeat(np.arange(first, last), np.minimum(ends, hi) - np.maximum(starts, lo))
        alter = graph.dst[flat_to_edge[rec] + np.arange(lo, hi)]
        q = alter.astype(np.int64) * d.n_tags + f_tag[rec]
        at = np.minimum(np.searchsorted(use_key, q), k - 1)
        hit = (use_key[at] == q) & earlier(use_time[at], f_time[rec])
        out_active += np.bincount(rec[hit], minlength=k)

    out_nbh = nbh.astype(np.int32)
    out_expo = np.divide(out_active, out_nbh, out=np.full(k, np.nan), where=out_nbh > 0)
    return ExposureTable(f_user, f_tag, f_time, out_active.astype(np.int32), out_nbh,
                         out_expo, out_pop.astype(np.int64, copy=False))


def assert_tables_identical(got, want):
    """Two ExposureTables hold the same bits: every column's dtype and
    bytes, and `exposure`'s NaN positions."""
    __tracebackhide__ = True
    for column in ("user", "tag", "time", "active_alters", "neighborhood_size", "exposure",
                   "tag_popularity_at_adoption"):
        x, y = getattr(got, column), getattr(want, column)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), column
        assert x.tobytes() == y.tobytes(), column
    np.testing.assert_array_equal(np.isnan(got.exposure), np.isnan(want.exposure))


def assert_table_matches_oracle(ds, table, oracle):
    """Each row of the ExposureTable `table`, read from its columns, equals
    the oracle's record of its (user, tag)."""
    __tracebackhide__ = True
    assert len(table) == len(oracle)
    for user, tag, time, active, nbh, expo, pop in zip(
            table.user.tolist(), table.tag.tolist(), table.time.tolist(),
            table.active_alters.tolist(), table.neighborhood_size.tolist(),
            table.exposure.tolist(), table.tag_popularity_at_adoption.tolist()):
        key = (ds.user_label(user), ds.tag_label(tag))
        want = oracle[key]
        assert time == want["time"], key
        assert active == want["active"], key
        assert nbh == want["neighborhood"], key
        assert pop == want["popularity"], key
        if want["exposure"] is None:
            assert math.isnan(expo), key
        else:
            assert abs(expo - float(want["exposure"])) < 1e-12, key


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
_ZETA_DIRECT = 40  # terms summed one by one before the Euler-Maclaurin tail


def _bernoulli_over_factorial(count: int) -> list:
    """B_2j / (2j)! for j = 1..count, exact, from the recurrence
    sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return [float(b[2 * j] / math.factorial(2 * j)) for j in range(1, count + 1)]


_BERNOULLI = _bernoulli_over_factorial(8)


def _zeta_and_derivative(alpha: float, q: float) -> tuple:
    """(zeta(alpha, q), d zeta / d alpha), both times q^alpha, one term at a
    time: sum (q+k)^-alpha and -sum log(q+k) (q+k)^-alpha over the first
    _ZETA_DIRECT terms, then the Euler-Maclaurin tail at a = q +
    _ZETA_DIRECT, differentiated in alpha term by term."""
    log_q = math.log(q)
    z = dz = 0.0
    for k in range(_ZETA_DIRECT):
        log_x = math.log(q + k)
        w = math.exp(-alpha * (log_x - log_q))
        z += w
        dz -= log_x * w
    a = q + _ZETA_DIRECT
    log_a = math.log(a)
    w = math.exp(-alpha * (log_a - log_q))  # a^-alpha q^alpha
    # the integral a^(1 - alpha) / (alpha - 1), and half the first term left out
    z += a * w / (alpha - 1) + w / 2
    dz -= a * w * (log_a / (alpha - 1) + 1 / (alpha - 1) ** 2) + log_a * w / 2
    # B_2j / (2j)! (alpha)_(2j-1) a^(-alpha-2j+1), with d/dalpha of the Pochhammer symbol
    poch, dpoch = alpha, 1.0
    for j, weight in enumerate(_BERNOULLI, start=1):
        t = weight * w * a ** (1 - 2 * j)
        z += t * poch
        dz += t * (dpoch - log_a * poch)
        for c in (2 * j - 1, 2 * j):
            dpoch = dpoch * (alpha + c) + poch
            poch *= alpha + c
    return z, dz


def alpha_mle(log_sum: float, n: int, xmin: int) -> float:
    """Maximize -alpha * sum(log x) - n * log(zeta(alpha, xmin)) by solving
    the stationarity condition mean(log x) + zeta'/zeta(alpha, xmin) = 0
    with scipy's scalar brentq."""
    from scipy.optimize import brentq

    mean_log = log_sum / n

    def grad(a: float) -> float:
        z, dz = _zeta_and_derivative(a, float(xmin))
        return mean_log + dz / z

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


def ks_distances_reference(alpha, first, stop, below, n_tail, vals, starts, ends) -> np.ndarray:
    """The distances of `powerlaw._ks_distances`, over the whole tail
    triangle in one pass, each element's zeta from its own `_hurwitz`
    call: any blocking, and any gathering of the series' rows, must give
    these bits."""
    from tagcascade.powerlaw import _hurwitz

    sizes = stop - first
    heads = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.shape[0]), sizes)  # lane of each element
    idx = np.arange(seg.shape[0]) - heads[seg] + first[seg]
    a = alpha[seg]
    v = vals[idx]
    x0 = v[heads][seg]
    surv_next = np.power((v + 1.0) / x0, -a) * _hurwitz(a, v + 1.0)  # zeta(a, v+1) x0^a
    surv_at = surv_next + np.power(v / x0, -a)                        # zeta(a, v) x0^a
    z_norm = surv_at[heads][seg]                                      # zeta(a, x0) x0^a
    fit_at = 1.0 - surv_next / z_norm         # F(v)
    fit_before = 1.0 - surv_at / z_norm       # F(v - 1)
    b, n = below[seg], n_tail[seg]
    emp = (ends[idx] - b) / n
    emp_prev = (starts[idx] - b) / n
    gap = np.maximum(np.abs(emp - fit_at), np.abs(emp_prev - fit_before))
    return np.maximum.reduceat(gap, heads)


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
# graph generators, one pool entry and one slot at a time
# ---------------------------------------------------------------------------

def preferential_attachment_reference(n: int, m: int, seed: int):
    """(indptr, dst) of the preferential-attachment graph from an explicit
    pool list: node i >= m observes the distinct nodes at its m positions
    in the pool as it stands before i, and the pool then grows by those m
    nodes and by i. The positions are those `simulate.preferential_attachment`
    draws: one `rng.integers` call, m per node, each below the length the
    pool has before that node."""
    rng = np.random.Generator(np.random.PCG64(seed))
    bounds, size = [], m
    for _ in range(m, n):
        bounds += [size] * m
        size += m + 1
    positions = iter(rng.integers(0, bounds).tolist())
    pool = list(range(m))
    indptr, dst = [0] * (m + 1), []
    for i in range(m, n):
        picks = [pool[next(positions)] for _ in range(m)]
        dst += sorted(set(picks))
        indptr.append(len(dst))
        pool += picks
        pool.append(i)
    return np.asarray(indptr, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def erdos_renyi_reference(n: int, mean_out_degree: float, seed: int):
    """(indptr, dst) of directed G(n, p), p = mean_out_degree / (n - 1), by
    a walk over the ordered pairs of distinct nodes in (src, dst) order:
    one scalar `rng.geometric(p)` draw at a time moves the walk on to the
    next pair that holds an edge, until it walks off the last row. p = 0
    draws nothing."""
    p = mean_out_degree / (n - 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = [[] for _ in range(n)]
    src, col = 0, -1  # col: the position of dst among the n - 1 nodes other than src
    while p > 0:
        col += int(rng.geometric(p))
        src, col = src + col // (n - 1), col % (n - 1)
        if src >= n:
            break
        rows[src].append(col if col < src else col + 1)
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return indptr.astype(np.int64), np.asarray([v for row in rows for v in row], dtype=np.int64)


# ---------------------------------------------------------------------------
# largest weakly-connected component, union-find one edge at a time
# ---------------------------------------------------------------------------

def component_roots_reference(n: int, edges) -> list:
    """Smallest user in each user's weakly-connected component of the graph
    on users 0..n-1 with (src, dst) `edges`."""
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
    return [find(u) for u in range(n)]


def giant_component_reference(n: int, edges) -> set:
    """Members of the largest weakly-connected component of the graph on
    users 0..n-1 with (src, dst) `edges`. Users with no edges are singleton
    components; ties go to the component holding the smallest user."""
    roots = component_roots_reference(n, edges)
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
# per-row TSV and CSV writers and the stock JSON encoder
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
    count. A cell holding a tab, CR or LF raises DataError before the file
    is opened, naming the first such cell of the first column with one."""
    cells = [[format_cell(v) for v in row] for row in rows]
    for column in zip(*cells):
        for text in column:
            if "\t" in text or "\r" in text or "\n" in text:
                raise DataError(f"text {text!r} holds a tab or a line break, "
                                f"which a TSV cell cannot hold")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in cells:
            fh.write("\t".join(row) + "\n")
    return len(cells)


def writerow_reference(path, header, rows) -> None:
    """Write a CSV log with one csv.writer.writerow call per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _sanitize(obj):
    """Replace NaN/inf (invalid in strict JSON) with None, recursively."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def dump_json_reference(obj) -> str:
    """The canonical JSON text of `obj` from the standard library's own
    indent=2 encoder, non-finite floats written as null."""
    return json.dumps(_sanitize(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


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
        user_table=Labels.from_text(user_labels, "user"),
        tag_table=Labels.from_text(tag_labels, "tag"),
        event_time=np.ascontiguousarray(ev_time),
        event_user=np.ascontiguousarray(ev_user),
        event_tag=np.ascontiguousarray(ev_tag),
        event_first=ev_first,
        graph=graph,
        warnings={"self_loops_dropped": self_loops,
                  "duplicate_edges_dropped": n_rows - int(keep.sum())},
    )


def node_ids_reference(table: Labels) -> np.ndarray:
    """The node id of each label of `table`, one label at a time: u followed
    by ASCII digits, else DataError; an id past int64 raises OverflowError."""
    def node_id(label: str) -> int:
        digits = label[1:]
        if label[:1] != "u" or not (digits.isascii() and digits.isdigit()):
            raise DataError(f"user {label!r} is not a simulated node label (u followed by digits)")
        return int(digits)

    return np.fromiter(map(node_id, table.labels), dtype=np.int64, count=len(table))


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


# ---------------------------------------------------------------------------
# csv.reader row loop
# ---------------------------------------------------------------------------

def read_log_reference(path, headers, time_unit="ms", on_bad="raise"):
    """(first, second, times, dropped) of a CSV log whose header is one of
    `headers`, parsed one csv.reader row at a time: the row width comes from
    the header, a third field is a timestamp (None when empty under the
    follows `since` header), `times` is None for two-field rows, and a bad
    row raises MalformedRowError on the physical line it ends on or, with
    on_bad="drop", is counted and left out."""
    first: list = []
    second: list = []
    times: list = []
    dropped = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in headers:
            expected = " or ".join(map(str, headers))
            raise MalformedRowError(1, f"expected header {expected}, got {header}")
        width = len(header)
        may_be_empty = header == ["src_id", "dst_id", "since"]
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                if width == 3:
                    cell = row[2]
                    times.append(None if may_be_empty and cell == ""
                                 else parse_timestamp(cell, time_unit))
            except ValueError as exc:
                if on_bad == "drop":
                    dropped += 1
                    continue
                raise MalformedRowError(reader.line_num, str(exc)) from None
            first.append(row[0])
            second.append(row[1])
    return first, second, times if width == 3 else None, dropped
