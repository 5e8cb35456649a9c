"""Streaming estimator: initialization, batch updates, determinism."""

import numpy as np
import pytest

from bayesfir import (
    MLContext,
    OnlineEstimator,
    bandlimited_input,
    noise_variance,
    posterior_moments,
    random_system,
    simulate_io,
)
from bayesfir.stats import ls_estimate

from oracles import dense_regressors


def make_stream(seed, n_samples, n=8, snr=8.0):
    rng = np.random.default_rng(seed)
    h0 = rng.standard_normal(n) * np.exp(-0.5 * np.arange(n))
    u = rng.standard_normal(n_samples)
    y0 = dense_regressors(u, n) @ h0
    noise = np.sqrt(np.var(y0) / snr) * rng.standard_normal(n_samples)
    return u, y0 + noise, h0


def run_stream(est, u, y, warm, nk):
    est.initialize(u[:warm], y[:warm])
    snaps = []
    for start in range(warm, len(u), nk):
        snaps.append(est.process_batch(u[start:start + nk], y[start:start + nk]))
    return snaps


def test_constructor_validation():
    with pytest.raises(ValueError):
        OnlineEstimator(8, method="newton")
    with pytest.raises(ValueError):
        OnlineEstimator(8, mode="batch")
    with pytest.raises(ValueError):
        OnlineEstimator(8, method="em", lambda_only=True)


def test_requires_initialization():
    est = OnlineEstimator(4)
    assert not est.initialized
    with pytest.raises(RuntimeError):
        est.process_batch(np.ones(2), np.ones(2))
    with pytest.raises(RuntimeError):
        est.current_estimate()


def test_snapshot_bookkeeping():
    u, y, _ = make_stream(0, 150)
    est = OnlineEstimator(8, method="sgp")
    snaps = run_stream(est, u, y, warm=60, nk=10)
    assert [s.batch_index for s in snaps] == list(range(1, 10))
    assert [s.nbar for s in snaps] == [60 + 10 * k for k in range(1, 10)]
    last = snaps[-1]
    assert est.current_estimate() is last
    assert est.current_estimate() is last  # idempotent
    assert last.h.shape == (8,)
    assert last.seconds > 0.0
    assert 0.0 <= last.eta.beta <= 1.0 and last.eta.lam >= 0.0


def test_streams_are_bit_reproducible():
    u, y, _ = make_stream(1, 200)
    for method in ("sgp", "em", "em2"):
        runs = []
        for _ in range(2):
            est = OnlineEstimator(8, method=method)
            runs.append(run_stream(est, u, y, warm=80, nk=10))
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a.h, b.h)
            assert a.eta == b.eta
            assert a.sigma2 == b.sigma2


def test_snapshot_matches_posterior_at_committed_state():
    u, y, _ = make_stream(2, 160)
    est = OnlineEstimator(8, method="bb")
    snaps = run_stream(est, u, y, warm=70, nk=15)
    ctx = MLContext(est._stats, est._sigma2)
    np.testing.assert_allclose(
        snaps[-1].h, posterior_moments(ctx, est._eta).mean, rtol=1e-10, atol=1e-12
    )


def test_estimate_tracks_true_response():
    u, y, h0 = make_stream(3, 1200, snr=20.0)
    est = OnlineEstimator(8, method="sgp")
    snaps = run_stream(est, u, y, warm=100, nk=20)
    err = np.linalg.norm(snaps[-1].h - h0) / np.linalg.norm(h0)
    assert err < 0.1


def test_pure_noise_warmup_shrinks_hard():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(300)
    y = rng.standard_normal(300)  # no system in the loop
    est = OnlineEstimator(10)
    est.initialize(u, y)
    h_ls = ls_estimate(est._stats)
    ctx = MLContext(est._stats, est._sigma2)
    h_bayes = posterior_moments(ctx, est._eta).mean
    assert np.linalg.norm(h_bayes) < 0.5 * np.linalg.norm(h_ls)


def test_invalid_batch_leaves_state_untouched():
    u, y, _ = make_stream(6, 140)
    est = OnlineEstimator(6)
    run_stream(est, u, y, warm=60, nk=10)
    stats_before, eta_before = est._stats, est._eta
    snap_before = est.current_estimate()
    with pytest.raises(ValueError):
        est.process_batch(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        est.process_batch(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
    assert est._stats is stats_before
    assert est._eta is eta_before
    assert est.current_estimate() is snap_before


def test_single_sample_batches_keep_ridge_guarded_noise():
    # band-limited input leaves R numerically singular after the warmup, so
    # an explicit inverse of R updated sample by sample drifts and inflates
    # sigma2 by up to five decades; every batch must take the ridge-guarded
    # least squares of ls_estimate
    rng = np.random.default_rng(3)
    system = random_system(rng, 80)
    u = bandlimited_input(rng, 600)
    y = simulate_io(system, u, 5.0, rng)
    est = OnlineEstimator(80, method="sgp")
    est.initialize(u[:100], y[:100])
    for k in range(100, 200):
        snap = est.process_batch(u[k:k + 1], y[k:k + 1])
        want = noise_variance(est._stats, ls_estimate(est._stats))
        assert abs(snap.sigma2 - want) <= 1e-10 * want, (snap.nbar, snap.sigma2, want)


def test_lambda_only_modes_freeze_beta():
    u, y, _ = make_stream(8, 160)
    for method, mode in (("sgp", "onestep"), ("sgp", "opt"), ("em2", "onestep")):
        est = OnlineEstimator(6, method=method, mode=mode, lambda_only=method != "em2")
        snaps = run_stream(est, u, y, warm=70, nk=15)
        betas = {s.eta.beta for s in snaps}
        assert len(betas) == 1  # beta fixed at its warmup value


def test_full_optimization_mode_costs_more():
    u, y, _ = make_stream(9, 400, n=20)
    quick = OnlineEstimator(20, method="sgp", mode="onestep")
    thorough = OnlineEstimator(20, method="sgp", mode="opt")
    t_quick = sum(s.seconds for s in run_stream(quick, u, y, warm=100, nk=20))
    t_thorough = sum(s.seconds for s in run_stream(thorough, u, y, warm=100, nk=20))
    assert t_thorough > 3.0 * t_quick
