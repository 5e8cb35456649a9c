"""Streaming sufficient statistics and the least-squares noise variance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from bayesfir.stats import (
    NOISE_FLOOR,
    RIDGE_SCALE,
    Batch,
    RankDeficientError,
    SufficientStats,
    ingest,
    noise_variance,
)

from oracles import (
    dense_least_squares,
    dense_regressors,
    gram_r,
    gram_ytilde,
    ridge_residual,
    stats_from_moments,
)

SEEDS = st.integers(0, 2**32 - 1)
POWERS = st.integers(-20, 20)


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
    np.testing.assert_array_equal(gram_r(stats), np.eye(2))
    np.testing.assert_array_equal(gram_ytilde(stats), [1.0, 2.0])
    assert stats.ybar == 5.0
    assert stats.nbar == 2
    np.testing.assert_array_equal(stats.history, [0.0])


def test_ingest_matches_double_loop_across_batches():
    # rows at the batch boundary read the inputs carried over in history
    rng = np.random.default_rng(2)
    n = 5
    u = rng.standard_normal(23)
    y = rng.standard_normal(23)
    full = dense_regressors(u, n)
    split = 9
    stats = ingest(ingest(SufficientStats.empty(n), Batch(u[:split], y[:split])), Batch(u[split:], y[split:]))
    np.testing.assert_allclose(gram_r(stats), full.T @ full, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(gram_ytilde(stats), full.T @ y, rtol=1e-14, atol=1e-14)
    np.testing.assert_array_equal(stats.history, u[-(n - 1):])


@settings(deadline=None, max_examples=30)
@given(seed=SEEDS, n=st.sampled_from((1, 2, 80)), nk=st.sampled_from(("1", "3", "2n")))
def test_augmented_statistics_match_dense_products(seed, n, nk):
    # after random batch splits, the stored statistics are [Phi y]'[Phi y]
    # and, in the kernel-root basis, [Phi U y]'[Phi U y] = [[C, U'ytilde], ...]
    rng = np.random.default_rng(seed)
    step = {"1": 1, "3": 3, "2n": 2 * n}[nk]
    total = int(rng.integers(1, 6)) * step + int(rng.integers(0, step))
    u = rng.standard_normal(total)
    y = rng.standard_normal(total)
    stats = SufficientStats.empty(n)
    start = 0
    while start < total:
        stop = min(total, start + int(rng.integers(1, step + 1)))
        stats = ingest(stats, Batch(u[start:stop], y[start:stop]))
        start = stop
    phi = dense_regressors(u, n)
    plain = np.column_stack([phi, y])
    rooted = np.column_stack([phi @ np.triu(np.ones((n, n))), y])
    root_gram = np.block([[stats.C, stats.cum_y[:, None]], [stats.cum_y[None, :], stats.ybar]])
    for got, x in ((stats.gram, plain), (root_gram, rooted)):
        want = x.T @ x
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    assert stats.nbar == total
    assert stats.C.flags.c_contiguous


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
        np.testing.assert_allclose(gram_r(acc), gram_r(whole), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gram_ytilde(acc), gram_ytilde(whole), rtol=1e-10, atol=1e-12)
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
    np.testing.assert_allclose(gram_r(acc), gram_r(whole), rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(gram_ytilde(acc), gram_ytilde(whole), rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(acc.ybar, whole.ybar, rtol=1e-14)


def test_footprint_is_order_independent_of_stream_length():
    rng = np.random.default_rng(14)
    n = 7
    acc = SufficientStats.empty(n)
    for _ in range(50):
        acc = ingest(acc, Batch(rng.standard_normal(13), rng.standard_normal(13)))
    assert acc.gram.shape == (n + 1, n + 1)
    assert acc.C.shape == (n, n)
    assert acc.cum_y.shape == (n,)
    assert acc.history.shape == (n - 1,)
    assert acc.nbar == 50 * 13


def test_ls_identity_case():
    # nbar = n leaves no residual degrees of freedom: the output power
    # ybar / nbar bounds the noise instead
    stats = ingest(SufficientStats.empty(2), Batch(np.array([1.0, 0.0]), np.array([1.0, 2.0])))
    np.testing.assert_array_equal(gram_r(stats), np.eye(2))
    assert noise_variance(stats) == 5.0 / 2.0


def test_ls_recovers_noiseless_response():
    # an exact fit leaves a residual of rounding size only, below the floor
    rng = np.random.default_rng(21)
    n = 6
    h0 = rng.standard_normal(n)
    u = rng.standard_normal(200)
    y = dense_regressors(u, n) @ h0
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    assert noise_variance(stats) == NOISE_FLOOR


def test_ls_is_the_normal_equation_minimizer():
    # the residual is the minimum over h of ybar - 2 ytilde'h + h'Rh, and
    # the dense least-squares vector attains it
    rng = np.random.default_rng(23)
    n = 5
    u = rng.standard_normal(80)
    y = rng.standard_normal(80)
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    rss = noise_variance(stats) * (stats.nbar - n)
    h, _ = dense_least_squares(u, y, n)

    def objective(v):
        return float(stats.ybar - 2.0 * gram_ytilde(stats) @ v + v @ gram_r(stats) @ v)

    assert abs(objective(h) - rss) <= 1e-9 * (1.0 + abs(rss))
    for _ in range(50):
        step = rng.standard_normal(n)
        step *= 1e-3 * (1.0 + np.linalg.norm(h)) / np.linalg.norm(step)
        assert objective(h + step) >= rss - 1e-9 * (1.0 + abs(rss))


def test_ls_flags_persistent_rank_deficiency():
    for nbar in (2, 3):  # nbar = n already raises
        stats = stats_from_moments(
            n=2, R=np.diag([1.0, 0.0]), ytilde=np.array([1.0, 0.0]),
            ybar=1.0, nbar=nbar, history=np.zeros(1),
        )
        with pytest.raises(RankDeficientError):
            noise_variance(stats)


def test_ls_flags_non_finite_statistics():
    # overflowed statistics must not slip through the Cholesky factor as a
    # finite-looking noise variance
    good = dict(R=np.eye(2), ytilde=np.ones(2), ybar=1.0)
    for name, bad in (("R", np.array([[np.inf, 0.0], [0.0, 1.0]])), ("ytilde", np.array([np.nan, 1.0])),
                      ("ybar", np.inf)):
        for nbar in (1, 10):
            stats = stats_from_moments(n=2, nbar=nbar, history=np.zeros(1), **{**good, name: bad})
            with pytest.raises(RankDeficientError), np.errstate(invalid="ignore"):
                noise_variance(stats)


def test_ls_ridge_path_on_singular_but_excited_stats():
    # consistent singular system: the minimum-norm fit [0.5, 0.5] leaves a
    # residual of 1, and the ridge adds only rho * ||h||^2 to it
    stats = stats_from_moments(
        n=2, R=np.array([[1.0, 1.0], [1.0, 1.0]]), ytilde=np.array([1.0, 1.0]),
        ybar=2.0, nbar=4, history=np.zeros(1),
    )
    sigma2 = noise_variance(stats)
    np.testing.assert_allclose(sigma2, 1.0 / 2.0, rtol=1e-4)
    rho = RIDGE_SCALE * 2.0 / 2.0
    assert abs(sigma2 - ridge_residual(stats, rho) / 2.0) <= 1e-14 * sigma2


def test_ls_early_underdetermined_stream_is_finite():
    stats = ingest(SufficientStats.empty(5), Batch(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])))
    assert noise_variance(stats) == 14.0 / 3.0


def test_ls_with_no_data_is_zero():
    assert noise_variance(SufficientStats.empty(3)) == NOISE_FLOOR


def test_noise_variance_clamps_consistent_fit():
    stats = stats_from_moments(
        n=2, R=np.eye(2), ytilde=np.array([1.0, 2.0]),
        ybar=5.0, nbar=12, history=np.zeros(1),
    )
    assert noise_variance(stats) == 1e-12


def test_noise_variance_formula_and_guard():
    stats = stats_from_moments(
        n=2, R=np.eye(2), ytilde=np.array([1.0, 2.0]),
        ybar=25.0, nbar=12, history=np.zeros(1),
    )
    # (25 - 1 - 4) / (12 - 2) = 2
    assert abs(noise_variance(stats) - 2.0) < 1e-14
    short = stats_from_moments(
        n=2, R=np.eye(2), ytilde=np.array([1.0, 2.0]),
        ybar=25.0, nbar=2, history=np.zeros(1),
    )
    assert noise_variance(short) == 25.0 / 2.0


def test_noise_variance_tracks_true_noise_level():
    rng = np.random.default_rng(31)
    n = 4
    u = rng.standard_normal(4000)
    y = 0.7 * rng.standard_normal(4000)  # pure noise, h = 0
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    est = noise_variance(stats)
    assert 0.85 * 0.49 < est < 1.15 * 0.49


def _stats_from_rows(phi, y):
    m, n = phi.shape
    return stats_from_moments(n=n, R=phi.T @ phi, ytilde=phi.T @ y, ybar=float(y @ y), nbar=m,
                           history=np.zeros(n - 1))


def _white_stream(seed, n):
    """White input and a noisy FIR output, 4n to 60 samples: the plain path."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4 * n, 61))
    u = rng.standard_normal(m)
    y = dense_regressors(u, n) @ rng.standard_normal(n) + 100.0 * rng.standard_normal(m)
    return u, y


def _singular_rows(seed, n):
    """Rows whose first two columns are equal with squared norm 16.

    The second Cholesky pivot of R is then exactly 0, under any power-of-two
    scaling, so the factor always takes the ridge path, while every diagonal
    of R stays positive.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(max(n + 1, 16), 41))
    phi = rng.standard_normal((m, n))
    phi[:, 0] = 0.0
    phi[rng.choice(m, size=16, replace=False), 0] = rng.choice([-1.0, 1.0], size=16)
    phi[:, 1] = phi[:, 0]
    y = phi @ rng.standard_normal(n) + 100.0 * rng.standard_normal(m)
    return phi, y


@settings(deadline=None)
@given(seed=SEEDS, n=st.integers(1, 8), a=POWERS, b=POWERS)
def test_plain_path_scales_exactly_by_powers_of_two(seed, n, a, b):
    u, y = _white_stream(seed, n)
    base = noise_variance(ingest(SufficientStats.empty(n), Batch(u, y)))
    scaled = noise_variance(ingest(SufficientStats.empty(n), Batch(u * 2.0**a, y * 2.0**b)))
    assert scaled == base * 4.0**b


@settings(deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8), a=POWERS, b=POWERS)
def test_ridge_path_scales_exactly_by_powers_of_two(seed, n, a, b):
    phi, y = _singular_rows(seed, n)
    assert lapack.dpotrf(phi.T @ phi, lower=1)[1] == 2
    base = noise_variance(_stats_from_rows(phi, y))
    scaled = noise_variance(_stats_from_rows(phi * 2.0**a, y * 2.0**b))
    assert scaled == base * 4.0**b


@settings(deadline=None)
@given(seed=SEEDS, n=st.integers(1, 8))
def test_plain_path_matches_dense_least_squares(seed, n):
    u, y = _white_stream(seed, n)
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    assert lapack.dpotrf(gram_r(stats), lower=1)[1] == 0
    want = dense_least_squares(u, y, n)[1] / (u.size - n)
    assert abs(noise_variance(stats) - want) <= 1e-12 * want


@settings(deadline=None)
@given(seed=SEEDS, n=st.integers(2, 8))
def test_ridge_path_matches_dense_ridge_residual(seed, n):
    phi, y = _singular_rows(seed, n)
    stats = _stats_from_rows(phi, y)
    rho = RIDGE_SCALE * float(np.trace(gram_r(stats))) / n
    want = ridge_residual(stats, rho) / (stats.nbar - n)
    assert abs(noise_variance(stats) - want) <= 1e-12 * want
