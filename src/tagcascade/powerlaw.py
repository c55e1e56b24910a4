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
    neg = -alpha
    s = np.ones(np.broadcast(alpha, q).shape)  # the k = 0 term
    s1 = s2 = 0.0
    for k in range(1, _EM_DIRECT):
        log_k = np.log1p(k / q)
        term = np.exp(neg * log_k)
        s += term
        if derivs:
            term *= log_k
            s1 -= term
            s2 += term * log_k
    # the rest is (a/q)^-alpha * g(alpha), and g1, g2 are g's alpha-derivatives
    a = q + _EM_DIRECT
    log_a = np.log1p(_EM_DIRECT / q)
    inv_a2 = 1.0 / (a * a)
    pole = alpha - 1.0
    g, g1, g2 = a / pole + 0.5, -a / pole**2, 2.0 * a / pole**3
    rise, rise1, rise2 = alpha, 1.0, 0.0  # (alpha)_(2j-1) and its derivatives
    a_pow = 1.0 / a  # a^(1-2j)
    for j, weight in enumerate(_EM_WEIGHTS):
        g = g + weight * a_pow * rise
        if derivs:
            g1 = g1 + weight * a_pow * rise1
            g2 = g2 + weight * a_pow * rise2
        for c in (2 * j + 1, 2 * j + 2):
            if derivs:
                rise2, rise1 = rise2 * (alpha + c) + 2.0 * rise1, rise1 * (alpha + c) + rise
            rise = rise * (alpha + c)
        a_pow = a_pow * inv_a2
    tail = np.exp(neg * log_a)
    if not derivs:
        return s + tail * g
    return (s + tail * g, s1 + tail * (g1 - log_a * g),
            s2 + tail * (g2 - 2.0 * log_a * g1 + log_a * log_a * g))


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


_KS_BLOCK = 1 << 17  # tail-triangle elements per KS block (bounds memory)


def _ks_distances(alpha, first, stop, below, n_tail, vals, starts, ends) -> np.ndarray:
    """Sup-norm distance between each lane's empirical tail CDF and its
    fitted CDF.

    Lane j's tail holds the sorted unique values vals[first[j]:stop[j]]
    (its xmin first); starts[i]/ends[i] count the samples below/up to
    vals[i] within its sample, and below[j] = starts[first[j]]. The
    empirical CDF is flat between observed values, so the supremum over
    all integers is attained either at an observed value or just before
    the next one. The lanes' tails, laid end to end, form a triangle per
    sample; it is evaluated in blocks of about _KS_BLOCK elements. Zeta
    values are taken relative to xmin^-alpha, so a far tail cannot
    underflow its lane's normalization.
    """
    sizes = stop - first
    lane_end = np.cumsum(sizes)
    out = np.empty(alpha.shape[0])
    lo = 0
    while lo < out.shape[0]:
        hi = max(lo + 1, int(np.searchsorted(lane_end, lane_end[lo] - sizes[lo] + _KS_BLOCK,
                                             side="right")))
        lens = sizes[lo:hi]
        seg = np.repeat(np.arange(hi - lo), lens)  # block lane of each element
        heads = np.cumsum(lens) - lens
        idx = np.arange(seg.shape[0]) - heads[seg] + first[lo:hi][seg]
        a = alpha[lo:hi][seg]
        v = vals[idx]
        x0 = v[heads][seg]
        surv_next = np.power((v + 1.0) / x0, -a) * _hurwitz(a, v + 1.0)  # zeta(a, v+1) x0^a
        surv_at = surv_next + np.power(v / x0, -a)                        # zeta(a, v) x0^a
        z_norm = surv_at[heads][seg]                                      # zeta(a, x0) x0^a
        fit_at = 1.0 - surv_next / z_norm         # F(v)
        fit_before = 1.0 - surv_at / z_norm       # F(v - 1)
        b, n = below[lo:hi][seg], n_tail[lo:hi][seg]
        emp = (ends[idx] - b) / n
        emp_prev = (starts[idx] - b) / n
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
