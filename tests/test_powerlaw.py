from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta

import tagcascade as tc
from tagcascade.errors import DegenerateSampleError, InsufficientTailError
from tagcascade.powerlaw import (
    _bootstrap_distances,
    _sample_fitted_tail,
    _scan_xmin,
    fit_power_law,
)

from oracles import scan_xmin, zeta_sample


def test_zeta_sampler_matches_model_pmf():
    """Sanity-check the test-side generator itself against the model."""
    rng = np.random.Generator(np.random.PCG64(9))
    s = zeta_sample(2.5, 5, 40_000, rng)
    assert s.min() == 5
    znorm = zeta(2.5, 5.0)
    for k in (5, 6, 8, 12):
        model_p = k ** -2.5 / znorm
        emp_p = float((s == k).mean())
        assert emp_p == pytest.approx(model_p, abs=0.01)
    # survival check a little way into the tail
    model_surv = zeta(2.5, 30.0) / znorm
    assert float((s >= 30).mean()) == pytest.approx(model_surv, abs=0.01)


def test_recovers_planted_exponent_and_cutoff():
    rng = np.random.Generator(np.random.PCG64(123))
    s = zeta_sample(2.5, 5, 50_000, rng)
    fit = fit_power_law(s, bootstrap=0)
    assert abs(fit.alpha - 2.5) < 0.1
    assert 3 <= fit.xmin <= 8
    assert fit.n_tail >= 2
    assert fit.gof_p is None


def test_recovery_with_body_below_cutoff():
    # Mix a uniform body under the cutoff: the scan must not dip into it
    # (that would wreck alpha); drifting above the true cutoff is normal
    # KS-minimization behavior and costs only tail samples.
    rng = np.random.Generator(np.random.PCG64(5))
    tail = zeta_sample(2.5, 8, 30_000, rng)
    body = rng.integers(1, 8, 15_000)
    fit = fit_power_law(np.concatenate([tail, body]), bootstrap=0)
    assert abs(fit.alpha - 2.5) < 0.15
    assert fit.xmin >= 8
    assert fit.n_tail >= 5_000


def test_true_power_law_not_rejected():
    rng = np.random.Generator(np.random.PCG64(0))
    s = zeta_sample(2.5, 5, 8_000, rng)
    fit = fit_power_law(s, bootstrap=50, seed=7)
    assert fit.gof_p is not None
    assert fit.gof_p > 0.1


def test_geometric_sample_rejected():
    rng = np.random.Generator(np.random.PCG64(0))
    s = rng.geometric(0.1, 50_000)
    fit = fit_power_law(s, bootstrap=60, seed=1)
    assert fit.gof_p < 0.1


def test_tail_floor_binds_only_deep_cutoffs():
    # the smallest value is always a valid cutoff, so the floor can never
    # empty the candidate set
    rng = np.random.Generator(np.random.PCG64(33))
    s = zeta_sample(2.5, 5, 1_000, rng)
    fit_all = fit_power_law(s, bootstrap=0, min_tail_fraction=0.0)
    fit_floor = fit_power_law(s, bootstrap=0, min_tail_fraction=0.5)
    assert fit_floor.n_tail >= 500
    assert fit_all.ks_distance <= fit_floor.ks_distance + 1e-15


def test_all_samples_equal_is_degenerate():
    with pytest.raises(DegenerateSampleError):
        fit_power_law(np.full(100, 7))


def test_too_few_samples_is_degenerate():
    with pytest.raises(DegenerateSampleError):
        fit_power_law([4])


def test_non_positive_samples_rejected():
    with pytest.raises(DegenerateSampleError):
        fit_power_law([0, 1, 2, 3])
    with pytest.raises(DegenerateSampleError):
        fit_power_law([1.5, 2.5, 3.5])


def test_negative_bootstrap_rejected():
    s = zeta_sample(2.2, 1, 500, np.random.Generator(np.random.PCG64(1)))
    with pytest.raises(ValueError, match="bootstrap"):
        fit_power_law(s, bootstrap=-3, seed=1)
    assert fit_power_law(s, bootstrap=0, seed=1).gof_p is None


def test_duplicating_sample_leaves_fit_unchanged():
    rng = np.random.Generator(np.random.PCG64(21))
    s = zeta_sample(2.2, 3, 5_000, rng)
    one = fit_power_law(s, bootstrap=0)
    two = fit_power_law(np.concatenate([s, s]), bootstrap=0)
    assert abs(one.alpha - two.alpha) < 1e-9
    assert one.xmin == two.xmin
    assert abs(one.ks_distance - two.ks_distance) < 1e-9


def test_bootstrap_deterministic_and_thread_independent():
    rng = np.random.Generator(np.random.PCG64(2))
    s = zeta_sample(2.5, 4, 3_000, rng)
    a = fit_power_law(s, bootstrap=30, seed=99)
    b = fit_power_law(s, bootstrap=30, seed=99)
    c = fit_power_law(s, bootstrap=30, seed=99, threads=4)
    assert a == b == c
    d = fit_power_law(s, bootstrap=30, seed=100)
    assert d.alpha == a.alpha  # fit itself is seed-free
    # p-values from different seeds may differ, but only slightly for 30 reps
    assert d.gof_p is not None


def test_ks_distance_is_true_sup_norm():
    # tiny sample worked by hand: tail {2, 2, 4} at xmin=2
    # alpha-hat solves the MLE; just check D against a dense-grid evaluation
    s = np.array([2, 2, 4])
    fit = fit_power_law(s, bootstrap=0)
    znorm = zeta(fit.alpha, fit.xmin)
    grid = np.arange(fit.xmin, 60)
    model_cdf = 1.0 - zeta(fit.alpha, grid + 1.0) / znorm
    tail = s[s >= fit.xmin].astype(float)
    emp_cdf = np.array([(tail <= g).mean() for g in grid])
    dense_d = np.abs(emp_cdf - model_cdf).max()
    assert fit.ks_distance == pytest.approx(dense_d, abs=1e-12)


# ---------------------------------------------------------------------------
# the batched cutoff scan against the scalar reference
# ---------------------------------------------------------------------------

def _reference(sample, max_candidates, min_tail):
    try:
        return scan_xmin(sample, max_candidates, min_tail)
    except (DegenerateSampleError, InsufficientTailError) as exc:
        return type(exc)


def _scan_samples(rng, count):
    """Seeded sorted samples of every shape the scan meets."""
    out = []
    for i in range(count):
        size = int(rng.integers(2, 1_500))
        kind = i % 5
        if kind == 0:  # pure power law
            s = zeta_sample(float(rng.uniform(1.6, 3.5)), int(rng.integers(1, 12)), size, rng)
        elif kind == 1:  # uniform
            s = rng.integers(1, int(rng.integers(2, 800)), size)
        elif kind == 2:  # uniform body below a power-law tail
            xmin = int(rng.integers(2, 15))
            s = np.concatenate([rng.integers(1, xmin, size), zeta_sample(2.5, xmin, size, rng)])
        elif kind == 3:  # two values
            s = rng.choice(np.sort(rng.integers(1, 50, 2)), size)
        else:  # geometric, no power law at all
            s = rng.geometric(float(rng.uniform(0.02, 0.5)), size)
        out.append(np.sort(s.astype(np.int64)))
    return out


@pytest.mark.parametrize("max_candidates,min_tail_fraction", [
    (None, 0.0), (None, 0.01), (25, 0.01), (None, 0.3), (7, 0.6),
])
def test_batched_scan_equals_scalar_reference(max_candidates, min_tail_fraction):
    rng = np.random.Generator(np.random.PCG64(2024 + int(100 * min_tail_fraction)))
    samples = _scan_samples(rng, 40)
    samples.append(np.full(30, 4, dtype=np.int64))         # degenerate
    samples.append(np.array([1, 1, 2, 3], dtype=np.int64))  # tail floor above n
    min_tails = [max(2, math.ceil(min_tail_fraction * s.shape[0])) for s in samples]
    min_tails[-1] = 5
    # one batch per tail floor, each sample compared bit for bit
    for min_tail in sorted(set(min_tails)):
        batch = [s for s, m in zip(samples, min_tails) if m == min_tail]
        got = _scan_xmin(batch, max_candidates, min_tail)
        for sample, fit in zip(batch, got):
            want = _reference(sample, max_candidates, min_tail)
            if isinstance(want, type):
                assert isinstance(fit, want)
            else:
                assert fit == want


@pytest.mark.parametrize("case", ["tail", "few-values"])
def test_bootstrap_distances_equal_scalar_replicates(case):
    rng = np.random.Generator(np.random.PCG64(77))
    if case == "tail":
        sample = np.concatenate([zeta_sample(2.3, 4, 1_500, rng), rng.integers(1, 4, 500)])
    else:  # replicates often repeat one value: those fit nothing
        sample = np.array([1] * 40 + [2] * 3 + [3])
    sorted_samples = np.sort(sample.astype(np.int64))
    n = sorted_samples.shape[0]
    min_tail = max(2, math.ceil(0.01 * n))
    alpha, xmin, _, _ = scan_xmin(sorted_samples, None, min_tail)
    seeds = np.random.SeedSequence(5).generate_state(24, dtype=np.uint64)

    # each replicate drawn and scanned alone, as the scalar fit did
    body = sorted_samples[sorted_samples < xmin]
    kmax = max(2 * int(sorted_samples[-1]), xmin + 1000)
    want = []
    for seed in seeds:
        r = np.random.Generator(np.random.PCG64(int(seed)))
        n_body = int(r.binomial(n, body.shape[0] / n))
        parts = [body[r.integers(0, body.shape[0], n_body)]] if n_body else []
        if n - n_body:
            parts.append(_sample_fitted_tail(alpha, xmin, n - n_body, r, kmax))
        fit = _reference(np.sort(np.concatenate(parts)), None, min_tail)
        want.append(math.inf if isinstance(fit, type) else fit[2])

    for threads in (1, 3):
        got = _bootstrap_distances(sorted_samples, alpha, xmin, seeds, None, min_tail, threads)
        assert got == want, threads
    if case == "few-values":
        assert math.inf in want


def test_cutoff_scan_memory_is_bounded():
    # ~6000 distinct values: the tail triangle holds ~1.8e7 elements, which
    # unblocked would take gigabytes
    rng = np.random.Generator(np.random.PCG64(0))
    sample = rng.integers(1, 6001, 30_000)
    tracemalloc.start()
    try:
        fit_power_law(sample, bootstrap=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
