"""Population statistics over adoption logs and exposure records:
tag popularity, adoption/saturation curves, smoothed threshold
distributions, and the popularity-vs-exposure correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, UndefinedCorrelationError, UnknownIdError
from .events import Dataset
from .exposure import ExposureTable


def tag_popularity(d: Dataset) -> dict:
    """Per-tag (distinct_adopters, total_usages), keyed by tag handle."""
    adopters = popularity_samples(d, "adopters")
    usages = popularity_samples(d, "usages")
    return {x: (int(adopters[x]), int(usages[x])) for x in range(d.n_tags)}


def popularity_samples(d: Dataset, kind: str = "adopters") -> np.ndarray:
    """Popularity counts as a flat sample vector (input to fit_power_law)."""
    if kind == "adopters":
        return np.bincount(d.event_tag[d.event_first], minlength=d.n_tags)
    if kind == "usages":
        return np.bincount(d.event_tag, minlength=d.n_tags)
    raise ValueError(f"kind must be 'adopters' or 'usages', got {kind!r}")


@dataclass(frozen=True, eq=False)
class AdoptionCurve:
    """A tag's curve as columns, one row per bucket from the tag's first to
    its last. `time` is each bucket's start as an exact Python int (a range),
    which may lie below -2^63 when the bucket is wide."""

    tag: int
    bucket_ms: int
    time: range
    new_first_usages: np.ndarray
    cumulative_first_usages: np.ndarray
    subsequent_usages: np.ndarray
    saturation: np.ndarray

    @property
    def final_saturation(self) -> float:
        return float(self.saturation[-1])


def adoption_curve(d: Dataset, x: int, bucket_ms: int) -> AdoptionCurve:
    """Time-bucketed adoption curve for one tag.

    Buckets are aligned to multiples of `bucket_ms` on the epoch axis;
    empty buckets between the tag's first and last event carry the
    cumulative count forward. Saturation is relative to all dataset users.
    """
    if not 0 <= x < d.n_tags:
        raise UnknownIdError(f"tag handle out of range: {x}")
    if bucket_ms < 1:
        raise ValueError("bucket must be a positive duration")
    mask = d.event_tag == x
    times = d.event_time[mask]
    firsts = d.event_first[mask]
    if times.shape[0] == 0:
        raise UnknownIdError(f"tag {d.tag_label(x)!r} has no events")

    buckets = times // bucket_ms
    lo, hi = int(buckets.min()), int(buckets.max())
    span = hi - lo + 1
    new_first = np.bincount(buckets[firsts] - lo, minlength=span)
    total = np.bincount(buckets - lo, minlength=span)
    cumulative = np.cumsum(new_first)
    return AdoptionCurve(
        tag=x, bucket_ms=bucket_ms, time=range(lo * bucket_ms, (hi + 1) * bucket_ms, bucket_ms),
        new_first_usages=new_first, cumulative_first_usages=cumulative,
        subsequent_usages=total - new_first, saturation=cumulative / d.n_users,
    )


@dataclass(frozen=True)
class DensityCurve:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float

    def mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid))


def silverman_bandwidth(values: np.ndarray) -> float:
    n = values.shape[0]
    std = float(values.std(ddof=1))
    iqr = float(np.percentile(values, 75) - np.percentile(values, 25))
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    return 0.9 * spread * n ** (-0.2)


def smooth_distribution(values, bandwidth: float | None = None) -> DensityCurve:
    """Gaussian-kernel density on [0, 1] with boundary reflection, sampled
    on a 512-point grid.

    Mass leaking past 0 or 1 is folded back by reflecting each kernel at
    both boundaries, and the sampled curve is normalized to unit mass.
    Bandwidth defaults to Silverman's rule.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape[0] < 2:
        raise DegenerateSampleError("need at least two values for a density estimate")
    if vals.min() < 0.0 or vals.max() > 1.0:
        raise ValueError("values must lie in [0, 1]")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(vals)
        if bandwidth < 1e-12:  # all-equal samples leave only rounding noise
            raise DegenerateSampleError(
                "sample has no spread; pass an explicit bandwidth > 0"
            )
    elif bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")

    grid = np.linspace(0.0, 1.0, 512)
    density = np.zeros_like(grid)
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * bandwidth * vals.shape[0])
    for start in range(0, vals.shape[0], 4096):
        chunk = vals[start:start + 4096]
        # direct kernel + reflections at 0 and at 1
        for centers in (chunk, -chunk, 2.0 - chunk):
            z = (grid[:, None] - centers[None, :]) / bandwidth
            density += np.exp(-0.5 * z * z).sum(axis=1)
    density *= norm
    mass = np.trapezoid(density, grid)
    if mass <= 0:
        raise ValueError("bandwidth too small to resolve on the 512-point grid")
    density /= mass
    return DensityCurve(grid=grid, density=density, bandwidth=float(bandwidth))


@dataclass(frozen=True, eq=False)
class CorrelationReport:
    """The correlation and its popularity bins as columns: bin b spans
    popularity lo[b] to hi[b] and holds count[b] defined records of mean
    exposure mean_exposure[b] (None for an empty bin)."""

    method: str
    rho: float
    n_pairs: int
    lo: np.ndarray
    hi: np.ndarray
    mean_exposure: list
    count: np.ndarray


def popularity_threshold_correlation(
    table: ExposureTable,
    bins: int = 10,
    method: str = "spearman",
) -> CorrelationReport:
    """Rank correlation between tag popularity at adoption and exposure,
    over the defined records of `table`, with logarithmic popularity bins
    for the binned-means view. `method='pearson'` switches to linear
    correlation.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    defined = table.defined_mask
    pop = table.tag_popularity_at_adoption[defined].astype(np.float64)
    expo = table.exposure[defined]
    n = pop.shape[0]
    if n < 3:
        raise UndefinedCorrelationError(f"need at least 3 defined records, got {n}")
    if np.all(pop == pop[0]):
        raise UndefinedCorrelationError("all popularity values identical")
    if np.all(expo == expo[0]):
        raise UndefinedCorrelationError("all exposure values identical")

    if method == "spearman":
        rho = spearman_rho(pop, expo)
    elif method == "pearson":
        rho = float(np.corrcoef(pop, expo)[0, 1])
    else:
        raise ValueError(f"method must be 'spearman' or 'pearson', got {method!r}")

    # Log-spaced bins on popularity + 1 so the zero-popularity records
    # (first adopters) land in the first bin.
    shifted = pop + 1.0
    edges = np.logspace(0.0, math.log10(float(shifted.max())), bins + 1)
    edges[0], edges[-1] = 1.0, float(shifted.max())
    idx = np.clip(np.searchsorted(edges, shifted, side="right") - 1, 0, bins - 1)
    count = np.bincount(idx, minlength=bins)
    means = [float(expo[idx == b].mean()) if count[b] else None for b in range(bins)]
    return CorrelationReport(method=method, rho=rho, n_pairs=n, lo=edges[:-1] - 1.0,
                             hi=edges[1:] - 1.0, mean_exposure=means, count=count)


def spearman_rho(x, y) -> float | None:
    """Average-rank Spearman correlation, used by `correlate` and by the
    simulation reports; None when it is undefined: fewer than 3 pairs, or
    either side constant."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape[0] < 3 or np.all(x == x[0]) or np.all(y == y[0]):
        return None
    return float(np.corrcoef(_average_ranks(x), _average_ranks(y))[0, 1])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions, as in
    scipy's rankdata (an integer plus an exact half, so bit-identical)."""
    order = np.argsort(a, kind="mergesort")
    ranked = a[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    first = np.flatnonzero(new)  # 0-based first position of each tie group
    counts = np.diff(first, append=a.shape[0])
    ranks = np.empty(a.shape[0])
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks
