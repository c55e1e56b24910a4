"""Discrete power-law tail fitting.

Maximum-likelihood exponent for p(x) ~ x^-alpha (x >= xmin, integer), with
the cutoff chosen to minimize the Kolmogorov-Smirnov distance between the
empirical tail and the fitted model, and a semi-parametric bootstrap
goodness-of-fit p-value. All randomness flows from one root seed through
per-replicate generators, so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

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


def _log_zeta(alpha: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log zeta(alpha, q) per lane. The logs are taken with math.log, one
    element at a time: np.log can differ from it in the last bit, and the
    fitted exponent must not depend on the vector path. The root bracket
    keeps alpha > 1, off the pole of zeta."""
    z = zeta(alpha, q)
    out = np.full_like(z, np.inf)  # an infinite zeta stays infinite
    ok = (z > 0) & np.isfinite(z)
    out[ok] = list(map(math.log, z[ok].tolist()))
    # Underflow guard: zeta(a, q) ~ q^-a for large a.
    low = ~ok & ~np.isinf(z)
    out[low] = -alpha[low] * np.array(list(map(math.log, q[low].tolist())))
    return out


_MLE_DIFF_H = 1e-6
# scipy's brentq defaults, which the lock-step solve reproduces
_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100


def _mle_grad(alpha: np.ndarray, mean_log: np.ndarray, xmin: np.ndarray) -> np.ndarray:
    """d/da of the per-sample log-likelihood: mean(log x) + d/da log zeta(a, xmin)."""
    dlz = _log_zeta(alpha + _MLE_DIFF_H, xmin) - _log_zeta(alpha - _MLE_DIFF_H, xmin)
    return mean_log + dlz / (2.0 * _MLE_DIFF_H)


def _check_grad(*grads: np.ndarray) -> None:
    if any(np.isnan(g).any() for g in grads):
        raise ValueError("the likelihood gradient is NaN; solver cannot continue")


def _solve_alpha(mean_log: np.ndarray, xmin: np.ndarray) -> np.ndarray:
    """MLE exponent of every lane: maximize -alpha * sum(log x) -
    n * log(zeta(alpha, xmin)) by solving the stationarity condition.

    The gradient is strictly increasing (the log-likelihood is concave in
    alpha), so a lane whose gradient does not change sign over
    [_ALPHA_LO, _ALPHA_HI] takes the bound. The others run Brent's method
    in lock step: each live lane takes exactly the steps of scipy's brentq
    (brentq.c) alone, so the roots are bit-identical to scalar solves. The
    per-sample normalization plus a root bracket at 1e-12 keeps alpha-hat a
    pure function of the empirical distribution: duplicating every sample
    moves it by well under 1e-9.
    """
    alpha = np.empty(mean_log.shape[0])
    g_hi = _mle_grad(np.full(alpha.shape, _ALPHA_HI), mean_log, xmin)
    alpha[g_hi <= 0] = _ALPHA_HI
    # a NaN gradient fails both bound tests and raises below, as in brentq
    lanes = np.flatnonzero(~(g_hi <= 0))
    g_lo = _mle_grad(np.full(lanes.shape, _ALPHA_LO), mean_log[lanes], xmin[lanes])
    alpha[lanes[g_lo >= 0]] = _ALPHA_LO
    live = ~(g_lo >= 0)
    lanes, fpre, fcur = lanes[live], g_lo[live], g_hi[lanes[live]]
    _check_grad(fpre, fcur)

    xpre = np.full(lanes.shape, _ALPHA_LO)
    xcur = np.full(lanes.shape, _ALPHA_HI)
    xblk, fblk, spre, scur = (np.zeros(lanes.shape) for _ in range(4))
    for _ in range(_BRENT_MAXITER):
        # keep the root bracketed between xcur and xblk
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        step = xcur - xpre
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        # xcur is the end with the smaller |f|
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        alpha[lanes[done]] = xcur[done]
        if done.all():
            return alpha
        if done.any():
            keep = ~done
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))

        # secant (two distinct points) or inverse quadratic step; lanes that
        # take neither discard it, so its division warnings do not matter
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(
                xpre == xblk,
                -fcur * (xcur - xpre) / (fcur - fpre),
                -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)),
            )
            limit = np.where(np.abs(spre) < 3 * np.abs(sbis) - delta,
                             np.abs(spre), 3 * np.abs(sbis) - delta)
            short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre)) & (2 * np.abs(stry) < limit)
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur,
                        xcur + np.where(sbis > 0, delta, -delta))
        fcur = _mle_grad(xcur, mean_log[lanes], xmin[lanes])
        _check_grad(fcur)
    raise RuntimeError(f"alpha MLE failed to converge after {_BRENT_MAXITER} iterations")


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
    sample; it is evaluated in blocks of about _KS_BLOCK elements.
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
        surv_next = zeta(a, v + 1.0)              # zeta(a, v+1)
        surv_at = surv_next + np.power(v, -a)     # zeta(a, v)
        z_norm = surv_at[heads][seg]              # zeta(a, xmin)
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


def _sample_fitted_tail(alpha: float, xmin: int, size: int, rng: np.random.Generator, kmax: int) -> np.ndarray:
    """Draw from the fitted discrete power law via an inverse-CDF table,
    falling back to bisection on the survival function for the far tail."""
    ks = np.arange(xmin, kmax + 1, dtype=np.float64)
    z_norm = zeta(alpha, float(xmin))
    cdf = np.cumsum(np.power(ks, -alpha) / z_norm)
    u = rng.random(size)
    idx = np.searchsorted(cdf, u, side="left")
    out = xmin + idx
    overflow = idx >= cdf.shape[0]
    for i in np.flatnonzero(overflow):
        target = (1.0 - u[i]) * z_norm  # find smallest k with zeta(a, k+1) <= target
        lo, hi = kmax, 2 * kmax
        while zeta(alpha, hi + 1.0) > target and hi < 2**62:
            lo, hi = hi, hi * 2
        while lo < hi:
            mid = (lo + hi) // 2
            if zeta(alpha, mid + 1.0) <= target:
                hi = mid
            else:
                lo = mid + 1
        out[i] = lo
    return out.astype(np.int64)


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

    def draw_and_scan(chunk) -> list:
        synth = []
        for seed in chunk:
            rng = np.random.Generator(np.random.PCG64(int(seed)))
            n_body = int(rng.binomial(n, p_body))
            parts = []
            if n_body:
                parts.append(body[rng.integers(0, body.shape[0], n_body)])
            if n - n_body:
                parts.append(_sample_fitted_tail(alpha, xmin, n - n_body, rng, kmax))
            synth.append(np.sort(np.concatenate(parts)))
        # A degenerate replicate (e.g. single repeated value) fits nothing;
        # count it as at least as extreme as the observed distance.
        return [math.inf if isinstance(fit, Exception) else fit[2]
                for fit in _scan_xmin(synth, min_tail)]

    chunks = [c for c in np.array_split(seeds, threads) if c.shape[0]]
    if len(chunks) > 1:
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
    vals = np.asarray(values, dtype=np.float64)
    return zeta(fit.alpha, vals) / zeta(fit.alpha, float(fit.xmin))
