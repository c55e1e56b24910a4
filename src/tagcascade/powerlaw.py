"""Discrete power-law tail fitting.

Maximum-likelihood exponent for p(x) ~ x^-alpha (x >= xmin, integer), with
the cutoff chosen to minimize the Kolmogorov-Smirnov distance between the
empirical tail and the fitted model, and a semi-parametric bootstrap
goodness-of-fit p-value. All randomness flows from one root seed through
per-replicate generators, so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InsufficientTailError

_ALPHA_LO = 1.01
_ALPHA_HI = 20.0


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    xmin: int
    ks_distance: float
    gof_p: float | None
    n_tail: int
    n_total: int

    def as_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "xmin": self.xmin,
            "ks_distance": self.ks_distance,
            "gof_p": self.gof_p,
            "n_tail": self.n_tail,
            "n_total": self.n_total,
        }


_EM_DIRECT = 10  # terms of the Hurwitz zeta sum taken one by one
# B_2j / (2j)!, j = 1..7: the Euler-Maclaurin weights of the rest of the sum
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
               -691 / 1307674368000, 1 / 74724249600)


def _q_terms(q) -> list:
    """The rows of S that depend on q alone: log1p(k/q) for k = 1.._EM_DIRECT
    (the last is log(a/q)), a = q + _EM_DIRECT, then weight_j a^(1-2j) for
    each Euler-Maclaurin weight."""
    rows = [np.log1p(k / q) for k in range(1, _EM_DIRECT + 1)]
    a = q + _EM_DIRECT
    rows.append(a)
    inv_a2 = 1.0 / (a * a)
    a_pow = 1.0 / a  # a^(1-2j)
    for weight in _EM_WEIGHTS:
        rows.append(weight * a_pow)
        a_pow = a_pow * inv_a2
    return rows


def _alpha_terms(alpha, derivs: bool = False) -> list:
    """The rows of S that depend on alpha alone: -alpha, alpha - 1, then the
    rising factorial (alpha)_(2j-1) that meets each weight, and with
    `derivs` its first and then its second alpha-derivatives."""
    rise, rise1, rise2 = [alpha], [1.0], [0.0]
    for j in range(1, len(_EM_WEIGHTS)):
        r, r1, r2 = rise[-1], rise1[-1], rise2[-1]
        for c in (2 * j - 1, 2 * j):
            if derivs:
                r2, r1 = r2 * (alpha + c) + 2.0 * r1, r1 * (alpha + c) + r
            r = r * (alpha + c)
        rise.append(r)
        rise1.append(r1)
        rise2.append(r2)
    return [-alpha, alpha - 1.0, *rise, *(rise1 + rise2 if derivs else ())]


def _series(alpha_terms, q_terms, derivs: bool = False):
    """S, and with `derivs` S' and S'', from the rows of _alpha_terms and
    _q_terms (any shapes that broadcast against each other)."""
    n_w = len(_EM_WEIGHTS)
    neg, pole = alpha_terms[0], alpha_terms[1]
    rise = alpha_terms[2:2 + n_w]
    log_k, log_a, a = q_terms[:_EM_DIRECT - 1], q_terms[_EM_DIRECT - 1], q_terms[_EM_DIRECT]
    a_pows = q_terms[_EM_DIRECT + 1:]
    s = np.ones(np.broadcast(neg, a).shape)  # the k = 0 term
    s1 = s2 = 0.0
    for log in log_k:
        term = np.exp(neg * log)
        s += term
        if derivs:
            term *= log
            s1 -= term
            s2 += term * log
    # the rest is (a/q)^-alpha * g(alpha), and g1, g2 are g's alpha-derivatives
    g = a / pole + 0.5
    for a_pow, r in zip(a_pows, rise):
        g = g + a_pow * r
    tail = np.exp(neg * log_a)
    if not derivs:
        return s + tail * g
    rise1, rise2 = alpha_terms[2 + n_w:2 + 2 * n_w], alpha_terms[2 + 2 * n_w:]
    g1, g2 = -a / pole**2, 2.0 * a / pole**3
    for a_pow, r1, r2 in zip(a_pows, rise1, rise2):
        g1 = g1 + a_pow * r1
        g2 = g2 + a_pow * r2
    return (s + tail * g, s1 + tail * (g1 - log_a * g),
            s2 + tail * (g2 - 2.0 * log_a * g1 + log_a * log_a * g))


def _hurwitz(alpha, q, derivs: bool = False):
    """S = zeta(alpha, q) * q^alpha per element, and with `derivs` also its
    first and second alpha-derivatives.

    S is the sum over k >= 0 of (1 + k/q)^-alpha: its first _EM_DIRECT terms
    one by one, the rest by Euler-Maclaurin at a = q + _EM_DIRECT. No term
    exceeds 1, so S cannot underflow where zeta does, and zeta(alpha, v) /
    zeta(alpha, x) = (v/x)^-alpha S(v) / S(x). For alpha >= 1.01 and q >= 1
    the relative error is a few float64 roundings.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return _series(_alpha_terms(alpha, derivs), _q_terms(q), derivs)


def _ccdf(alpha, xmin, v):
    """zeta(alpha, v) / zeta(alpha, xmin): P(X >= v) of the power law from xmin."""
    return np.power(v / xmin, -alpha) * _hurwitz(alpha, v) / _hurwitz(alpha, xmin)


_XTOL = 1e-12  # a lane stops when its Newton step or its bracket is this narrow
_MAXITER = 100


def _mle_slope(alpha, excess, xmin):
    """The per-sample log-likelihood gradient mean(log x) + zeta'/zeta(alpha,
    xmin), given `excess` = mean(log x) - log(xmin), and its alpha-derivative
    (the variance of log x under the model, so the gradient increases)."""
    s, s1, s2 = _hurwitz(alpha, xmin, derivs=True)
    ratio = s1 / s  # zeta'/zeta = ratio - log(xmin)
    return excess + ratio, s2 / s - ratio * ratio


def _solve_alpha(mean_log: np.ndarray, xmin: np.ndarray) -> np.ndarray:
    """MLE exponent of every lane: the root of the gradient of the
    per-sample log-likelihood -alpha mean(log x) - log zeta(alpha, xmin).

    The gradient increases from -inf at the pole alpha = 1 towards
    mean(log(x / xmin)) > 0, so the exponent is its one root clipped to
    [_ALPHA_LO, _ALPHA_HI]. Each lane takes Newton steps, clipped to that
    range, from the continuous estimate 1 + 1/(mean(log x) - log(xmin - 1/2));
    a lane whose root lies beyond a bound stops there. A step that leaves the
    bracket of the points evaluated is replaced by bisection. A lane stops
    when its step or its bracket is within _XTOL; the second ends a lane
    whose gradient's sign flickers with rounding at the root. Lanes are
    independent of each other. Duplicating every sample moves alpha-hat by
    well under 1e-9.
    """
    alpha = np.empty(mean_log.shape[0])
    lanes = np.arange(alpha.shape[0])
    excess = mean_log - np.log(xmin)
    x = np.clip(1.0 + 1.0 / (mean_log - np.log(xmin - 0.5)), _ALPHA_LO, _ALPHA_HI)
    lo, hi = np.ones(x.shape), np.full(x.shape, np.inf)  # the pole, and alpha -> inf
    for _ in range(_MAXITER):
        g, slope = _mle_slope(x, excess[lanes], xmin[lanes])
        if np.isnan(g).any():
            raise ValueError("the likelihood gradient is NaN; solver cannot continue")
        lo, hi = np.where(g < 0, x, lo), np.where(g > 0, x, hi)
        step = g / slope
        newton = np.clip(x - step, _ALPHA_LO, _ALPHA_HI)
        low, high = np.maximum(lo, _ALPHA_LO), np.minimum(hi, _ALPHA_HI)
        done = (np.abs(step) <= _XTOL) | (high - low <= _XTOL)
        alpha[lanes[done]] = newton[done]
        if done.all():
            return alpha
        keep = ~done
        lanes, x, lo, hi, newton, low, high = (
            v[keep] for v in (lanes, x, lo, hi, newton, low, high))
        x = np.where((lo < newton) & (newton < hi), newton, (low + high) / 2)
    raise RuntimeError(f"alpha MLE failed to converge after {_MAXITER} iterations")


# Tail-triangle elements per KS block. A block gathers 33 float64 rows of
# its length and makes about ten more, about 1.4 MB at 2^12, which stays in
# a core's L2 cache (2 MB on the 2-core Xeon it was measured on, where the
# fit was slower at 2^13 and at 2^11). It also bounds the pass's memory.
# The distances do not depend on it.
_KS_BLOCK = 1 << 12


def _ks_distances(alpha, first, stop, below, n_tail, vals, starts, ends) -> np.ndarray:
    """Sup-norm distance between each lane's empirical tail CDF and its
    fitted CDF.

    Lane j's tail holds the sorted unique values vals[first[j]:stop[j]]
    (its xmin first); starts[i]/ends[i] count the samples below/up to
    vals[i] within its sample, and below[j] = starts[first[j]]. The
    empirical CDF is flat between observed values, so the supremum over
    all integers is attained either at an observed value or just before
    the next one. The lanes' tails, laid end to end, form a triangle per
    sample; it is evaluated in blocks of about _KS_BLOCK elements, sized
    so that a block's rows stay in cache. Every element is computed on its
    own and each lane lies whole in one block (a lane longer than
    _KS_BLOCK is a block by itself), so the distances are the same bits
    for any block size. The parts of the series that depend on the value
    alone or on the lane alone are computed once per distinct value and
    once per lane, and each block gathers them. Zeta values are taken
    relative to xmin^-alpha, so a far tail cannot underflow its lane's
    normalization.
    """
    sizes = stop - first
    lane_end = np.cumsum(sizes)
    # the rows that the elements gather: per distinct value v (the series
    # is taken at q = v + 1), and per lane
    value_rows = np.array([vals, ends, starts], dtype=np.float64)
    q_rows = np.array(_q_terms(vals + 1.0))
    lane_rows = np.array([vals[first], below, n_tail], dtype=np.float64)
    alpha_rows = np.array(_alpha_terms(alpha))
    out = np.empty(alpha.shape[0])
    lo = 0
    while lo < out.shape[0]:
        hi = max(lo + 1, int(np.searchsorted(lane_end, lane_end[lo] - sizes[lo] + _KS_BLOCK,
                                             side="right")))
        lens = sizes[lo:hi]
        heads = np.cumsum(lens) - lens
        idx = np.arange(lane_end[hi - 1] - lane_end[lo] + sizes[lo])
        idx += np.repeat(first[lo:hi] - heads, lens)
        v, end_count, start_count = np.take(value_rows, idx, axis=1)
        x0, b, n = np.repeat(lane_rows[:, lo:hi], lens, axis=1)
        a_rows = np.repeat(alpha_rows[:, lo:hi], lens, axis=1)
        neg = a_rows[0]
        s = _series(a_rows, np.take(q_rows, idx, axis=1))  # zeta(a, v+1) (v+1)^a
        surv_next = np.power((v + 1.0) / x0, neg) * s    # zeta(a, v+1) x0^a
        surv_at = surv_next + np.power(v / x0, neg)      # zeta(a, v) x0^a
        z_norm = np.repeat(surv_at[heads], lens)         # zeta(a, x0) x0^a
        fit_at = 1.0 - surv_next / z_norm         # F(v)
        fit_before = 1.0 - surv_at / z_norm       # F(v - 1)
        emp = (end_count - b) / n
        emp_prev = (start_count - b) / n
        gap = np.maximum(np.abs(emp - fit_at), np.abs(emp_prev - fit_before))
        out[lo:hi] = np.maximum.reduceat(gap, heads)
        lo = hi
    return out


def _scan_xmin(samples: list, min_tail: int = 2) -> list:
    """Try every candidate cutoff of every sorted sample, all in one batch.

    Returns, per sample, (alpha, xmin, D, n_tail) of the first cutoff with
    the smallest KS distance, or the DegenerateSampleError /
    InsufficientTailError the sample fails with. Candidates are the unique
    sample values except the largest; candidates leaving fewer than
    `min_tail` samples are skipped (a tiny remnant tail fits anything,
    which would let the scan hide model misfit by retreating arbitrarily
    deep). Each (sample, candidate) pair is one lane of the batched solve.
    """
    results = [None] * len(samples)
    fitted = []  # (sample index, its number of lanes)
    lanes = []  # per fitted sample: its lanes' first, stop, below, n_tail, mean_log
    vals_all, starts_all, ends_all = [], [], []
    offset = 0
    for s, sample in enumerate(samples):
        n = sample.shape[0]
        vals, starts = np.unique(sample, return_index=True)
        if vals.shape[0] < 2:
            results[s] = DegenerateSampleError("need at least two distinct sample values")
            continue
        log_suffix = np.cumsum(np.log(sample[::-1]))[::-1]
        candidates = np.flatnonzero(n - starts[:-1] >= max(2, min_tail))
        if candidates.shape[0] == 0:
            results[s] = InsufficientTailError("no cutoff leaves at least two tail samples")
            continue
        below = starts[candidates]
        fitted.append((s, candidates.shape[0]))
        lanes.append((offset + candidates, np.full(candidates.shape, offset + vals.shape[0]),
                      below, n - below, log_suffix[below] / (n - below)))
        vals_all.append(vals.astype(np.float64))
        starts_all.append(starts)
        ends_all.append(np.append(starts[1:], n))
        offset += vals.shape[0]
    if not lanes:
        return results

    first, stop, below, n_tail, mean_log = (np.concatenate(col) for col in zip(*lanes))
    vals = np.concatenate(vals_all)
    xmin = vals[first]
    alpha = _solve_alpha(mean_log, xmin)
    dist = _ks_distances(alpha, first, stop, below, n_tail, vals,
                         np.concatenate(starts_all), np.concatenate(ends_all))
    lo = 0
    for s, count in fitted:
        # the first smallest distance, as a strict `<` over the candidates
        # in order keeps it (a NaN at the first candidate is never replaced)
        d = np.where(np.isnan(dist[lo:lo + count]), np.inf, dist[lo:lo + count])
        d[0] = dist[lo]
        j = lo + int(np.argmin(d))
        results[s] = (float(alpha[j]), int(xmin[j]), float(dist[j]), int(n_tail[j]))
        lo += count
    return results


def _tail_cdf(alpha: float, xmin: int, kmax: int) -> np.ndarray:
    """Inverse-CDF table of the fitted discrete power law: P(X <= k) for
    k = xmin..kmax."""
    ks = np.arange(xmin, kmax + 1, dtype=np.float64)
    return np.cumsum(np.power(ks / xmin, -alpha) / _hurwitz(alpha, float(xmin)))


def _sample_fitted_tail(alpha: float, xmin: int, u: np.ndarray, kmax: int,
                        cdf: np.ndarray) -> np.ndarray:
    """Draws from the fitted discrete power law for the uniforms `u`, by
    inverse CDF: the table `cdf` = _tail_cdf(alpha, xmin, kmax) up to kmax,
    and beyond it the smallest k >= kmax with P(X >= k+1) <= 1 - u, found
    for every such draw together by doubling, then bisection. Each draw
    depends on its own uniform only."""
    idx = np.searchsorted(cdf, u, side="left")
    out = (xmin + idx).astype(np.int64)
    over = idx >= cdf.shape[0]
    target = 1.0 - u[over]
    lo = np.full(target.shape, kmax, dtype=np.int64)
    hi = 2 * lo
    while (grow := (_ccdf(alpha, xmin, hi + 1.0) > target) & (hi < 2**62)).any():
        lo, hi = np.where(grow, hi, lo), np.where(grow, 2 * hi, hi)
    while (split := lo < hi).any():
        mid = lo + (hi - lo) // 2
        above = _ccdf(alpha, xmin, mid + 1.0) > target
        lo, hi = np.where(split & above, mid + 1, lo), np.where(split & ~above, mid, hi)
    out[over] = lo
    return out


def _bootstrap_distances(sorted_samples, alpha, xmin, seeds, min_tail, threads) -> list:
    """Best-cutoff KS distance of each semi-parametric replicate: body
    values resampled below xmin, fitted-tail draws above it, each replicate
    from its own PCG64(seed). The replicates are scanned as one batch, or
    as `threads` contiguous chunks on a thread pool; either way each
    replicate gets the same distance."""
    n = sorted_samples.shape[0]
    body = sorted_samples[sorted_samples < xmin]
    p_body = body.shape[0] / n
    kmax = max(2 * int(sorted_samples[-1]), xmin + 1000)
    cdf = _tail_cdf(alpha, xmin, kmax)  # every replicate draws from the same table

    def draw_and_scan(chunk) -> list:
        bodies, uniforms = [], []
        for seed in chunk:
            rng = np.random.Generator(np.random.PCG64(int(seed)))
            n_body = int(rng.binomial(n, p_body))
            bodies.append(body[rng.integers(0, body.shape[0], n_body)] if n_body else body[:0])
            uniforms.append(rng.random(n - n_body))
        # the chunk's tail draws in one call, then split per replicate
        tails = _sample_fitted_tail(alpha, xmin, np.concatenate(uniforms), kmax, cdf)
        ends = np.cumsum([u.shape[0] for u in uniforms])[:-1]
        synth = [np.sort(np.concatenate((b, t))) for b, t in zip(bodies, np.split(tails, ends))]
        # A degenerate replicate (e.g. single repeated value) fits nothing;
        # count it as at least as extreme as the observed distance.
        return [math.inf if isinstance(fit, Exception) else fit[2]
                for fit in _scan_xmin(synth, min_tail)]

    chunks = [c for c in np.array_split(seeds, threads) if c.shape[0]]
    if len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            return [d for part in pool.map(draw_and_scan, chunks) for d in part]
    return draw_and_scan(seeds)


def fit_power_law(
    samples,
    *,
    bootstrap: int = 100,
    seed: int | None = None,
    threads: int = 1,
    min_tail_fraction: float = 0.01,
) -> PowerLawFit:
    """Fit a discrete power-law tail to positive integer samples.

    bootstrap: number of semi-parametric replicates behind gof_p
        (0 disables the test and leaves gof_p = None; a negative count
        raises ValueError).
    seed: root seed for the bootstrap; per-replicate generators are derived
        from it, so any thread count gives identical results.
    min_tail_fraction: cutoff candidates must keep at least this fraction
        of the sample in the tail (and never fewer than 2 points). The
        smallest sample value is always a valid cutoff, so this only stops
        the scan from retreating into a remnant tail that fits anything.
        Set to 0 to scan every cutoff.
    """
    if bootstrap < 0:
        raise ValueError(f"bootstrap must be >= 0, got {bootstrap}")
    arr = np.asarray(samples)
    if arr.size < 2:
        raise DegenerateSampleError("need at least two samples")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded):
            raise DegenerateSampleError("samples must be positive integers")
        arr = rounded.astype(np.int64)
    if arr.min() < 1:
        raise DegenerateSampleError("samples must be >= 1")

    sorted_samples = np.sort(arr.astype(np.int64))
    n = sorted_samples.shape[0]
    min_tail = max(2, math.ceil(min_tail_fraction * n))
    (fit,) = _scan_xmin([sorted_samples], min_tail)
    if isinstance(fit, Exception):
        raise fit
    alpha, xmin, dist, n_tail = fit

    gof_p = None
    if bootstrap > 0:
        seeds = np.random.SeedSequence(seed).generate_state(bootstrap, dtype=np.uint64)
        dists = _bootstrap_distances(sorted_samples, alpha, xmin, seeds, min_tail, threads)
        gof_p = float(np.mean([dr >= dist for dr in dists]))

    return PowerLawFit(
        alpha=alpha,
        xmin=xmin,
        ks_distance=dist,
        gof_p=gof_p,
        n_tail=n_tail,
        n_total=n,
    )


def fitted_tail_ccdf(fit: PowerLawFit, values: np.ndarray) -> np.ndarray:
    """Model CCDF P(X >= v) at integer values >= xmin, for plotting/export."""
    return _ccdf(fit.alpha, float(fit.xmin), np.asarray(values, dtype=np.float64))
