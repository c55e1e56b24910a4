from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta

import tagcascade as tc
from tagcascade.errors import DegenerateSampleError, InsufficientTailError
from tagcascade import powerlaw
from tagcascade.powerlaw import (
    _bootstrap_distances,
    _ccdf,
    _hurwitz,
    _sample_fitted_tail,
    _scan_xmin,
    _solve_alpha,
    _tail_cdf,
    fit_power_law,
)

from oracles import alpha_mle, ks_distances_reference, scan_xmin, zeta_sample


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


def test_integral_float_samples_fit_as_integers():
    s = zeta_sample(2.2, 1, 500, np.random.Generator(np.random.PCG64(1)))
    assert fit_power_law(s.astype(np.float64), seed=1) == fit_power_law(s, seed=1)


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
# the Hurwitz zeta and the exponent solve
# ---------------------------------------------------------------------------

def _zeta_grid():
    """(alpha, q) pairs: alpha from 1.01 to 20, q from 1 to 2^53."""
    alphas = np.concatenate([np.linspace(1.01, 20, 39), [1.5, 2.0, 2.5, 3.0]])
    qs = np.unique(np.concatenate([np.arange(1, 41), np.round(2.0 ** np.linspace(0, 53, 80))]))
    return (m.ravel() for m in np.meshgrid(alphas, qs))


def test_hurwitz_matches_scipy_zeta():
    alpha, q = _zeta_grid()
    # S q^-alpha as (S/q) q^(1-alpha): q^-alpha alone is subnormal at q = 2^53
    got = _hurwitz(alpha, q) / q * np.power(q, 1.0 - alpha)
    np.testing.assert_allclose(got, zeta(alpha, q), rtol=1e-14, atol=0)


def test_hurwitz_ratio_where_zeta_underflows():
    # zeta(alpha, xmin) below 1e-186, or 0 in float64: the CCDF is taken
    # from S alone, here against 80-digit sums
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    for a in (12.0, 16.5, 20.0):
        for xmin in (2.0**56, 2.0**60, 3.0**38):
            for v in (xmin, 1.5 * xmin, 3 * xmin, 10 * xmin):
                want = mpmath.zeta(a, mpmath.mpf(v)) / mpmath.zeta(a, mpmath.mpf(xmin))
                assert float(_ccdf(a, xmin, v)) == pytest.approx(float(want), rel=1e-14, abs=0)


def test_hurwitz_alpha_derivative_matches_richardson_difference():
    alpha, q = _zeta_grid()
    keep = q <= 2**20  # q^alpha stays finite below
    alpha, q = alpha[keep], q[keep]
    s, s1, _ = _hurwitz(alpha, q, derivs=True)
    got = np.power(q, -alpha) * (s1 - np.log(q) * s)  # d zeta / d alpha
    h = 0.005 * (alpha - 1) / np.maximum(1.0, np.log(q))
    d1, d2, d3 = ((zeta(alpha + t, q) - zeta(alpha - t, q)) / (2 * t) for t in (h, h / 2, h / 4))
    r1, r2 = (4 * d2 - d1) / 3, (4 * d3 - d2) / 3
    # the difference's own error, about 1e-8 at q = 1 and alpha near 20, sets the bound
    np.testing.assert_allclose(got, (16 * r2 - r1) / 15, rtol=1e-7, atol=0)
    # the second derivative against a difference of the first
    t = 1e-4 * (alpha - 1)
    ds = (_hurwitz(alpha + t, q, derivs=True)[1] - _hurwitz(alpha - t, q, derivs=True)[1]) / (2 * t)
    np.testing.assert_allclose(_hurwitz(alpha, q, derivs=True)[2], ds, rtol=1e-6, atol=1e-300)


def test_series_from_gathered_rows_equals_hurwitz():
    # the KS pass computes each row once per distinct alpha and q and
    # gathers it per element: the same bits as _hurwitz element by element
    alpha, q = _zeta_grid()
    alphas, alpha_at = np.unique(alpha, return_inverse=True)
    qs, q_at = np.unique(q, return_inverse=True)
    got = powerlaw._series(np.take(np.array(powerlaw._alpha_terms(alphas)), alpha_at, axis=1),
                           np.take(np.array(powerlaw._q_terms(qs)), q_at, axis=1))
    np.testing.assert_array_equal(got.view(np.uint64), _hurwitz(alpha, q).view(np.uint64))


# (mean log x, xmin, exponent or None for the scalar reference's)
_EDGE_LANES = {
    "beyond-high": (math.log(5) + 1e-9, 5.0, 20.0),  # tail nearly all at xmin
    "beyond-low": (200.0, 1.0, 1.01),
    # the xmin = 1 lane of the seed-7 dense-workload popularity sample
    "dense-q1": (2.249201374483977, 1.0, None),
    "two-values": ((30 * math.log(3) + 2 * math.log(7)) / 32, 3.0, None),
}


@pytest.mark.parametrize("lane", sorted(_EDGE_LANES))
def test_solver_edge_lanes_finish_under_cap(monkeypatch, lane):
    monkeypatch.setattr(powerlaw, "_MAXITER", 8)
    mean_log, xmin, want = _EDGE_LANES[lane]
    got = float(_solve_alpha(np.array([mean_log]), np.array([xmin]))[0])
    if want is None:
        assert got == pytest.approx(alpha_mle(mean_log, 1, int(xmin)), rel=_REF_TOL)
    else:
        assert got == want


def test_solver_lanes_are_independent():
    mean_log, xmin = (np.array(col) for col in zip(*(v[:2] for v in _EDGE_LANES.values())))
    together = _solve_alpha(mean_log, xmin)
    alone = [_solve_alpha(mean_log[i:i + 1], xmin[i:i + 1])[0] for i in range(xmin.shape[0])]
    assert together.tolist() == alone


def test_solver_stops_when_the_gradient_sign_flickers(monkeypatch):
    # rounding noise larger than the step tolerance, alternating in sign:
    # the bracket test ends the lane under the cap
    slope = powerlaw._mle_slope
    calls = []

    def flickering(alpha, excess, xmin):
        calls.append(None)
        g, d = slope(alpha, excess, xmin)
        return g + 1e-10 * (-1) ** len(calls), d

    mean_log, xmin, _ = _EDGE_LANES["dense-q1"]
    exact = _solve_alpha(np.array([mean_log]), np.array([xmin]))[0]
    monkeypatch.setattr(powerlaw, "_mle_slope", flickering)
    monkeypatch.setattr(powerlaw, "_MAXITER", 16)
    got = _solve_alpha(np.array([mean_log]), np.array([xmin]))[0]
    assert abs(got - exact) < 1e-9


# ---------------------------------------------------------------------------
# the batched cutoff scan against the scalar reference
# ---------------------------------------------------------------------------

def _reference(sample, min_tail):
    try:
        return scan_xmin(sample, min_tail)
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


# How far the batched scan may sit from the oracle's. Both solve the exact
# likelihood gradient and stop within about 1e-12 of its root; over every
# fit the scan tests make (209 fits), alpha differs by at most 1.2e-13
# relative and D by 9.5e-14.
_REF_TOL = 1e-11


def _assert_near_reference(sample, min_tail, fit):
    """`fit` is the oracle's scan within _REF_TOL in alpha (relative) and in
    D, with the same cutoff and tail size. A different cutoff is accepted
    only as a near tie: the oracle's own D there is within _REF_TOL of its
    best, and the fit then matches the oracle's fit at that cutoff."""
    want = _reference(sample, min_tail)
    if isinstance(want, type):
        assert isinstance(fit, want)
        return
    alpha, xmin, dist, n_tail = fit
    if xmin != want[1]:
        tail = sample[sample >= xmin]
        at_xmin = scan_xmin(tail, tail.shape[0])  # the one candidate that keeps the whole tail
        assert at_xmin[2] <= want[2] + _REF_TOL, (fit, want)
        want = at_xmin
    assert xmin == want[1] and n_tail == want[3]
    assert alpha == pytest.approx(want[0], rel=_REF_TOL)
    assert dist == pytest.approx(want[2], abs=_REF_TOL)


def _scan_batches(min_tail_fraction):
    """(tail floor, samples) batches of the seeded scan samples."""
    rng = np.random.Generator(np.random.PCG64(2024 + int(100 * min_tail_fraction)))
    samples = _scan_samples(rng, 40)
    samples.append(np.full(30, 4, dtype=np.int64))         # degenerate
    samples.append(np.array([1, 1, 2, 3], dtype=np.int64))  # tail floor above n
    min_tails = [max(2, math.ceil(min_tail_fraction * s.shape[0])) for s in samples]
    min_tails[-1] = 5
    return [(min_tail, [s for s, m in zip(samples, min_tails) if m == min_tail])
            for min_tail in sorted(set(min_tails))]


def _same(a, b) -> bool:
    """Equal fits, or errors of one type."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


@pytest.mark.parametrize("min_tail_fraction", [0.0, 0.01, 0.3, 0.6])
def test_batched_scan_equals_each_sample_scanned_alone(min_tail_fraction):
    # the lanes of a batch are independent: a sample's fit is bit for bit
    # the one it gets in a batch of its own
    for min_tail, batch in _scan_batches(min_tail_fraction):
        for sample, fit in zip(batch, _scan_xmin(batch, min_tail)):
            assert _same(fit, _scan_xmin([sample], min_tail)[0])


@pytest.mark.parametrize("min_tail_fraction", [0.0, 0.01, 0.3, 0.6])
def test_batched_scan_matches_scalar_reference(min_tail_fraction):
    for min_tail, batch in _scan_batches(min_tail_fraction):
        for sample, fit in zip(batch, _scan_xmin(batch, min_tail)):
            _assert_near_reference(sample, min_tail, fit)


def _bootstrap_case(case):
    """(sorted sample, tail floor, fitted alpha, xmin, replicate seeds)."""
    rng = np.random.Generator(np.random.PCG64(77))
    if case == "tail":
        sample = np.concatenate([zeta_sample(2.3, 4, 1_500, rng), rng.integers(1, 4, 500)])
    else:  # replicates often repeat one value: those fit nothing
        sample = np.array([1] * 40 + [2] * 3 + [3])
    sorted_samples = np.sort(sample.astype(np.int64))
    min_tail = max(2, math.ceil(0.01 * sorted_samples.shape[0]))
    alpha, xmin, _, _ = _scan_xmin([sorted_samples], min_tail)[0]
    seeds = np.random.SeedSequence(5).generate_state(24, dtype=np.uint64)
    return sorted_samples, min_tail, alpha, xmin, seeds


def _replicates(sorted_samples, alpha, xmin, seeds) -> list:
    """Each replicate drawn alone, as the scalar fit did."""
    n = sorted_samples.shape[0]
    body = sorted_samples[sorted_samples < xmin]
    kmax = max(2 * int(sorted_samples[-1]), xmin + 1000)
    out = []
    for seed in seeds:
        r = np.random.Generator(np.random.PCG64(int(seed)))
        n_body = int(r.binomial(n, body.shape[0] / n))
        parts = [body[r.integers(0, body.shape[0], n_body)]] if n_body else []
        if n - n_body:
            parts.append(_sample_fitted_tail(alpha, xmin, r.random(n - n_body), kmax,
                                             _tail_cdf(alpha, xmin, kmax)))
        out.append(np.sort(np.concatenate(parts)))
    return out


@pytest.mark.parametrize("case", ["tail", "few-values"])
def test_bootstrap_distances_equal_replicates_scanned_alone(case):
    sorted_samples, min_tail, alpha, xmin, seeds = _bootstrap_case(case)
    want = []
    for replicate in _replicates(sorted_samples, alpha, xmin, seeds):
        fit = _scan_xmin([replicate], min_tail)[0]
        want.append(math.inf if isinstance(fit, Exception) else fit[2])
    for threads in (1, 3):
        got = _bootstrap_distances(sorted_samples, alpha, xmin, seeds, min_tail, threads)
        assert got == want, threads
    if case == "few-values":
        assert math.inf in want


@pytest.mark.parametrize("case", ["tail", "few-values"])
def test_bootstrap_replicates_match_scalar_reference(case):
    sorted_samples, min_tail, alpha, xmin, seeds = _bootstrap_case(case)
    want = scan_xmin(sorted_samples, min_tail)
    assert (xmin, alpha) == (want[1], pytest.approx(want[0], rel=_REF_TOL))
    for replicate in _replicates(sorted_samples, alpha, xmin, seeds):
        _assert_near_reference(replicate, min_tail, _scan_xmin([replicate], min_tail)[0])


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_ks_distances_equal_unblocked_reference(monkeypatch, block):
    # every KS pass of a batched scan and of a bootstrap chunk, bit for bit;
    # a block of 1 holds one lane, and at 7 most lanes are longer than a block
    if block is not None:
        monkeypatch.setattr(powerlaw, "_KS_BLOCK", block)
    calls = []
    ks_distances = powerlaw._ks_distances

    def recorded(*args):
        calls.append((args, ks_distances(*args)))
        return calls[-1][1]

    monkeypatch.setattr(powerlaw, "_ks_distances", recorded)
    for min_tail, batch in _scan_batches(0.0):
        _scan_xmin(batch, min_tail)
    sorted_samples, min_tail, alpha, xmin, seeds = _bootstrap_case("tail")
    _bootstrap_distances(sorted_samples, alpha, xmin, seeds, min_tail, 1)
    assert len(calls) >= 3
    for args, got in calls:
        want = ks_distances_reference(*args)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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
    # the blocks are sized to the cache: the peak is about 5 MB, against
    # 33 MB with blocks of 2^17 elements
    assert peak < 10 * 2**20
