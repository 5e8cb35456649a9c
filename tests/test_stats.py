"""Streaming sufficient statistics, least squares, and the noise variance."""

import numpy as np
import pytest

from bayesfir.stats import (
    Batch,
    RankDeficientError,
    SufficientStats,
    ingest,
    ls_estimate,
    noise_variance,
    regressor_rows,
)

from oracles import dense_regressors


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Batch(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        Batch(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        Batch(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Batch(np.array([1.0, 2.0]), np.array([np.inf, 2.0]))


def test_ingest_identity_example():
    stats = ingest(SufficientStats.empty(2), Batch(np.array([1.0, 0.0]), np.array([1.0, 2.0])))
    np.testing.assert_array_equal(stats.R, np.eye(2))
    np.testing.assert_array_equal(stats.ytilde, [1.0, 2.0])
    assert stats.ybar == 5.0
    assert stats.nbar == 2
    np.testing.assert_array_equal(stats.history, [0.0])


def test_regressor_rows_match_double_loop_across_batches():
    rng = np.random.default_rng(2)
    n = 5
    u = rng.standard_normal(23)
    full = dense_regressors(u, n)
    split = 9
    head = regressor_rows(u[:split], np.zeros(n - 1), n)
    tail = regressor_rows(u[split:], u[split - (n - 1):split], n)
    np.testing.assert_array_equal(np.vstack([head, tail]), full)


def test_batch_split_invariance():
    rng = np.random.default_rng(4)
    n = 6
    u = rng.standard_normal(60)
    y = rng.standard_normal(60)
    whole = ingest(SufficientStats.empty(n), Batch(u, y))
    for trial in range(8):
        cuts = np.sort(rng.choice(np.arange(1, 60), size=int(rng.integers(1, 12)), replace=False))
        pieces = np.split(np.arange(60), cuts)
        acc = SufficientStats.empty(n)
        for idx in pieces:
            acc = ingest(acc, Batch(u[idx], y[idx]))
        np.testing.assert_allclose(acc.R, whole.R, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(acc.ytilde, whole.ytilde, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(acc.ybar, whole.ybar, rtol=1e-10)
        assert acc.nbar == whole.nbar
        np.testing.assert_array_equal(acc.history, whole.history)


def test_one_sample_batches_match_one_whole_batch():
    rng = np.random.default_rng(9)
    n = 4
    u = rng.standard_normal(30)
    y = rng.standard_normal(30)
    whole = ingest(SufficientStats.empty(n), Batch(u, y))
    acc = SufficientStats.empty(n)
    for t in range(30):
        acc = ingest(acc, Batch(u[t:t + 1], y[t:t + 1]))
    np.testing.assert_allclose(acc.R, whole.R, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(acc.ytilde, whole.ytilde, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(acc.ybar, whole.ybar, rtol=1e-14)


def test_footprint_is_order_independent_of_stream_length():
    rng = np.random.default_rng(14)
    n = 7
    acc = SufficientStats.empty(n)
    for _ in range(50):
        acc = ingest(acc, Batch(rng.standard_normal(13), rng.standard_normal(13)))
    assert acc.R.shape == (n, n)
    assert acc.ytilde.shape == (n,)
    assert acc.history.shape == (n - 1,)
    assert acc.nbar == 50 * 13


def test_ls_identity_case():
    stats = ingest(SufficientStats.empty(2), Batch(np.array([1.0, 0.0]), np.array([1.0, 2.0])))
    np.testing.assert_allclose(ls_estimate(stats), [1.0, 2.0])


def test_ls_recovers_noiseless_response():
    rng = np.random.default_rng(21)
    n = 6
    h0 = rng.standard_normal(n)
    u = rng.standard_normal(200)
    y = dense_regressors(u, n) @ h0
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    np.testing.assert_allclose(ls_estimate(stats), h0, rtol=1e-8, atol=1e-10)


def test_ls_is_the_normal_equation_minimizer():
    rng = np.random.default_rng(23)
    n = 5
    u = rng.standard_normal(80)
    y = rng.standard_normal(80)
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    h = ls_estimate(stats)

    def objective(v):
        return float(v @ stats.R @ v - 2.0 * stats.ytilde @ v)

    base = objective(h)
    for _ in range(50):
        step = rng.standard_normal(n)
        step *= 1e-3 * (1.0 + np.linalg.norm(h)) / np.linalg.norm(step)
        assert objective(h + step) >= base - 1e-9 * (1.0 + abs(base))


def test_ls_flags_persistent_rank_deficiency():
    stats = SufficientStats(
        n=2, R=np.diag([1.0, 0.0]), ytilde=np.array([1.0, 0.0]),
        ybar=1.0, nbar=3, history=np.zeros(1),
    )
    with pytest.raises(RankDeficientError):
        ls_estimate(stats)


def test_ls_flags_non_finite_statistics():
    # overflowed statistics must not slip through the Cholesky solve as a
    # finite-looking estimate
    stats = SufficientStats(
        n=2, R=np.array([[np.inf, 0.0], [0.0, 1.0]]), ytilde=np.ones(2),
        ybar=1.0, nbar=10, history=np.zeros(1),
    )
    with pytest.raises(RankDeficientError), np.errstate(invalid="ignore"):
        ls_estimate(stats)


def test_ls_ridge_path_on_singular_but_excited_stats():
    # consistent singular system: the ridge picks the minimum-norm solution
    stats = SufficientStats(
        n=2, R=np.array([[1.0, 1.0], [1.0, 1.0]]), ytilde=np.array([1.0, 1.0]),
        ybar=2.0, nbar=4, history=np.zeros(1),
    )
    np.testing.assert_allclose(ls_estimate(stats), [0.5, 0.5], rtol=1e-4)


def test_ls_early_underdetermined_stream_is_finite():
    stats = ingest(SufficientStats.empty(5), Batch(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])))
    h = ls_estimate(stats)
    assert h.shape == (5,) and np.all(np.isfinite(h))


def test_ls_with_no_data_is_zero():
    np.testing.assert_array_equal(ls_estimate(SufficientStats.empty(3)), np.zeros(3))


def test_noise_variance_clamps_consistent_fit():
    stats = SufficientStats(
        n=2, R=np.eye(2), ytilde=np.array([1.0, 2.0]),
        ybar=5.0, nbar=12, history=np.zeros(1),
    )
    assert noise_variance(stats, np.array([1.0, 2.0])) == 1e-12


def test_noise_variance_formula_and_guard():
    stats = SufficientStats(
        n=2, R=np.eye(2), ytilde=np.array([1.0, 2.0]),
        ybar=25.0, nbar=12, history=np.zeros(1),
    )
    # (25 - 2*5 + 5) / (12 - 2) = 2
    assert abs(noise_variance(stats, np.array([1.0, 2.0])) - 2.0) < 1e-14
    short = SufficientStats(
        n=2, R=np.eye(2), ytilde=np.array([1.0, 2.0]),
        ybar=25.0, nbar=2, history=np.zeros(1),
    )
    with pytest.raises(ValueError):
        noise_variance(short, np.array([1.0, 2.0]))


def test_noise_variance_tracks_true_noise_level():
    rng = np.random.default_rng(31)
    n = 4
    u = rng.standard_normal(4000)
    y = 0.7 * rng.standard_normal(4000)  # pure noise, h = 0
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    est = noise_variance(stats, ls_estimate(stats))
    assert 0.85 * 0.49 < est < 1.15 * 0.49

