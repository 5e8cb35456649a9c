"""Marginal-likelihood value, gradient split, posterior mean and EM second moment."""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from bayesfir.kernel import Hyperparameters, tc_block_weights
from bayesfir.likelihood import (
    MLContext,
    NonFiniteLikelihoodError,
    _factorize,
    _FrozenBeta,
    _lambda_split,
    _mean,
    _root_moment,
    _split,
    _value,
)
from bayesfir.optim import OptimizerConfig, _grad_at, em_step, fresh_state, gradient_step
from bayesfir.stats import Batch, SufficientStats, ingest, noise_variance

from oracles import (
    dense_neg_log_ml,
    dense_posterior,
    dense_root_moment,
    eta_array,
    random_eta,
    random_instance,
    stats_from_moments,
)

CFG = OptimizerConfig()


def value_at(ctx, eta):
    return _value(ctx, _factorize(ctx, eta))


def mean_at(ctx, eta):
    return _mean(_factorize(ctx, eta))


def scalar_context():
    stats = ingest(SufficientStats.empty(1), Batch(np.array([1.0]), np.array([1.0])))
    return MLContext(stats, 1.0)


def test_context_validation():
    stats = SufficientStats.empty(2)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            MLContext(stats, bad)


def test_scalar_value():
    # single unit sample, unit kernel, unit noise: quadratic 1/2 plus log det 2
    ctx = scalar_context()
    val = value_at(ctx, Hyperparameters(1.0, 1.0))
    assert abs(val - (0.5 + np.log(2.0))) < 1e-12


def test_zero_lambda_limit():
    rng = np.random.default_rng(6)
    ctx, _, _ = random_instance(rng, 4, 25)
    stats = ctx.stats
    expected = stats.nbar * np.log(ctx.sigma2) + stats.ybar / ctx.sigma2
    for eta in (Hyperparameters(0.0, 0.5), Hyperparameters(1.0, 0.0)):
        assert abs(value_at(ctx, eta) - expected) < 1e-10 * (1.0 + abs(expected))


def test_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        nbar = int(rng.integers(n + 5, 31))
        ctx, u, y = random_instance(rng, n, nbar)
        eta = random_eta(rng)
        direct = dense_neg_log_ml(u, y, n, eta.lam, eta.beta, ctx.sigma2)
        assert abs(value_at(ctx, eta) - direct) < 1e-8 * (1.0 + abs(direct))


def test_rank_deficient_kernel_still_matches_oracle():
    rng = np.random.default_rng(13)
    ctx, u, y = random_instance(rng, 5, 30)
    eta = Hyperparameters(2.0, 1.0)  # rank-one kernel
    direct = dense_neg_log_ml(u, y, 5, eta.lam, eta.beta, ctx.sigma2)
    assert abs(value_at(ctx, eta) - direct) < 1e-8 * (1.0 + abs(direct))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 8, 40)))
        eta = random_eta(rng)
        v, u = _split(ctx, _factorize(ctx, eta))
        grad = np.subtract(v, u)
        for comp in range(2):
            h = 1e-6 * (1.0 + abs(eta_array(eta)[comp]))

            def slice_fn(x):
                arr = eta_array(eta)
                arr[comp] = x
                return value_at(ctx, Hyperparameters(arr[0], arr[1]))

            x0 = eta_array(eta)[comp]
            fd = (slice_fn(x0 + h) - slice_fn(x0 - h)) / (2.0 * h)
            assert abs(grad[comp] - fd) < 1e-4 * (1.0 + abs(fd))


def test_gradient_split_signs_and_sum():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ctx, _, _ = random_instance(rng, 5, 30)
        eta = random_eta(rng)
        f = _factorize(ctx, eta)
        v, u = _split(ctx, f)
        assert np.all(np.greater(v, 0.0))
        assert np.all(np.greater_equal(u, 0.0))
        grad, v_act, _ = _grad_at(ctx, eta, (0, 1))
        np.testing.assert_array_equal(grad, np.subtract(v, u))
        np.testing.assert_array_equal(v_act, v)
        v_lam, u_lam = _lambda_split(ctx, f)
        assert abs(v_lam - v[0]) < 1e-10 * (1.0 + abs(v_lam))
        assert abs(u_lam - u[0]) < 1e-10 * (1.0 + abs(u_lam))


def test_gradient_vanishes_at_profile_minimum():
    rng = np.random.default_rng(23)
    ctx, _, _ = random_instance(rng, 4, 35)
    beta = 0.6
    scale = ctx.stats.ybar / ctx.stats.nbar
    res = minimize_scalar(
        lambda lam: value_at(ctx, Hyperparameters(lam, beta)),
        bounds=(1e-6 * scale, 1e3 * scale), method="bounded",
        options={"xatol": 1e-12 * scale},
    )
    v_lam, u_lam = _lambda_split(ctx, _factorize(ctx, Hyperparameters(res.x, beta)))
    assert abs(v_lam - u_lam) < 1e-3 * v_lam


def test_gradient_positive_for_oversized_lambda():
    rng = np.random.default_rng(27)
    ctx, _, _ = random_instance(rng, 4, 30)
    eta = Hyperparameters(1e8 * ctx.stats.ybar, 0.7)
    v, u = _split(ctx, _factorize(ctx, eta))
    assert v[0] - u[0] > 0.0


def test_gradient_requires_interior_eta():
    ctx = scalar_context()
    for eta in (Hyperparameters(0.0, 0.5), Hyperparameters(1.0, 0.0), Hyperparameters(1.0, 1.0)):
        f = _factorize(ctx, eta)
        with pytest.raises(ValueError):
            _split(ctx, f)
        with pytest.raises(ValueError):
            _lambda_split(ctx, f)


def test_overflowing_kernel_reports_non_finite():
    rng = np.random.default_rng(29)
    ctx, _, _ = random_instance(rng, 6, 30)
    with pytest.raises(NonFiniteLikelihoodError):
        value_at(ctx, Hyperparameters(1e308, 0.9))


def test_singular_inner_matrix_raises_from_dpotrf():
    # a rank-one R makes (d d') * C rank-one, and the least positive sigma2
    # is lost in rounding next to it, so dpotrf meets a non-positive pivot
    # on finite input
    ones = np.ones(4)
    stats = stats_from_moments(4, np.outer(ones, ones), np.zeros(4), 1.0, 10, np.zeros(0))
    with pytest.raises(NonFiniteLikelihoodError, match="dpotrf"):
        _factorize(MLContext(stats, 5e-324), Hyperparameters(1.0, 0.5))


def overflow_context():
    """An n=6 stream scaled up so that (d d') * C overflows at lam = 1e300."""
    rng = np.random.default_rng(29)
    _, u, y = random_instance(rng, 6, 30)
    stats = ingest(SufficientStats.empty(6), Batch(1e5 * u, 1e5 * y))
    ctx = MLContext(stats, noise_variance(stats))
    d = np.sqrt(1e300 * tc_block_weights(6, 0.9))
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(np.outer(d, d) * stats.C))
    return ctx


def test_overflowing_eta_raises_non_finite_everywhere():
    # the LAPACK calls do no input validation of their own: an overflowing
    # inner matrix must still surface as NonFiniteLikelihoodError, never as
    # ValueError, LinAlgError or a NaN result
    ctx = overflow_context()
    eta = Hyperparameters(1e300, 0.9)
    with pytest.raises(NonFiniteLikelihoodError):
        _factorize(ctx, eta)
    for active in ((0,), (0, 1)):
        with pytest.raises(NonFiniteLikelihoodError):
            _grad_at(ctx, eta, active)
    for method in ("em", "em1", "em2"):
        with pytest.raises(NonFiniteLikelihoodError):
            em_step(ctx, eta, method)


def test_gradient_step_skips_overflowing_candidates():
    ctx = overflow_context()
    eta0 = Hyperparameters(1e-6, 0.9)
    (grad,), _, _ = _grad_at(ctx, eta0, (0,))
    assert grad < 0.0
    # a fixed step length that sends the first candidate to lam ~ 1e300
    alpha = 1e300 / -grad
    cfg = OptimizerConfig(alpha_min=alpha, alpha_max=alpha)
    with pytest.raises(NonFiniteLikelihoodError):
        value_at(ctx, Hyperparameters(eta0.lam - alpha * grad, eta0.beta))
    state = fresh_state(ctx, eta0, lambda_only=True)
    # the same on the Cholesky factor and on the frozen-beta eigendecomposition
    for frozen in (None, _FrozenBeta(ctx, eta0.beta)):
        rep = gradient_step(ctx, state, eta0, "bb", cfg, frozen)
        assert rep.backtracks >= 1
        assert np.isfinite(rep.ml_before) and np.isfinite(rep.ml_after)
        assert rep.eta_new.lam < 1e300


def test_frozen_beta_matches_the_cholesky_factor():
    # value against _value(_factorize) and (V_lam, U_lam) against
    # _lambda_split, over eight lam decades and the closed beta range.  The
    # value is compared in units of its terms' size, and the split in units
    # of V + U, because _lambda_split's subtractions lose digits at the far
    # decades (V at small lam, U at large lam).  Measured worst cases over
    # 10 instances per n: value 5.1e-12, V 6.5e-12, U 8.3e-12.
    rng = np.random.default_rng(61)
    for n in (1, 2, 5, 20):
        for _ in range(3):
            ctx, _, _ = random_instance(rng, n, 3 * n + 20)
            st = ctx.stats
            scale = st.ybar / (st.nbar * n)
            for beta in (0.0, 0.5, 0.9, 0.999, 1.0):
                frozen = _FrozenBeta(ctx, beta)
                for lam in [0.0] + [scale * 10.0**k for k in range(-6, 7, 2)]:
                    eta = Hyperparameters(lam, beta)
                    f, g = _factorize(ctx, eta), frozen.at(eta)
                    size = abs((st.nbar - n) * np.log(ctx.sigma2)) + abs(f.logdet) + st.ybar / ctx.sigma2
                    assert abs(_value(ctx, g) - _value(ctx, f)) <= 1e-10 * size, (n, beta, lam)
                    v, u = frozen.lambda_split(g)
                    assert v >= 0.0 and u >= 0.0
                    if 0.0 < beta < 1.0 and lam > 0.0:
                        vc, uc = _lambda_split(ctx, f)
                        assert abs(v - vc) <= 1e-10 * (vc + uc), (n, beta, lam)
                        assert abs(u - uc) <= 1e-10 * (vc + uc), (n, beta, lam)


def test_frozen_beta_gradient_on_the_closed_box():
    # the lam-gradient exists at lam = 0 and at beta = 0 or 1, where
    # _lambda_split refuses: check it against the second-order forward
    # difference of the Cholesky value (measured worst 4e-9 of V + U); the
    # value curves sharply near lam = 0, so the step is smaller there
    ctx, _, _ = random_instance(np.random.default_rng(67), 5, 40)
    scale = ctx.stats.ybar / (ctx.stats.nbar * 5)
    for beta in (0.0, 0.9, 1.0):
        frozen = _FrozenBeta(ctx, beta)
        for lam, h in ((0.0, 1e-8 * scale), (scale, 1e-5 * scale)):
            v, u = frozen.lambda_split(frozen.at(Hyperparameters(lam, beta)))
            l0, l1, l2 = (value_at(ctx, Hyperparameters(lam + k * h, beta)) for k in range(3))
            diff = (4.0 * l1 - 3.0 * l0 - l2) / (2.0 * h)
            assert abs((v - u) - diff) <= 1e-7 * (v + u), (beta, lam)


def test_frozen_beta_raises_as_the_factor_does():
    ctx = overflow_context()
    frozen = _FrozenBeta(ctx, 0.9)
    with pytest.raises(NonFiniteLikelihoodError):
        frozen.at(Hyperparameters(1e300, 0.9))
    with pytest.raises(ValueError, match="frozen"):
        frozen.at(Hyperparameters(1.0, 0.5))


def test_posterior_scalar_example():
    # mean 1/2 and covariance 1/2, so the second moment is 1/2 + 1/4
    ctx = scalar_context()
    f = _factorize(ctx, Hyperparameters(1.0, 1.0))
    np.testing.assert_allclose(_mean(f), [0.5])
    np.testing.assert_allclose(_root_moment(ctx, f), [0.75])


def test_posterior_matches_direct_solve():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 8, 40)))
        eta = random_eta(rng)
        mean, _ = dense_posterior(ctx, eta)
        np.testing.assert_allclose(mean_at(ctx, eta), mean, rtol=1e-8, atol=1e-10)
        # the diagonal of the second moment M = P + h h' in the kernel root's
        # basis is all EM reads of it
        z = _root_moment(ctx, _factorize(ctx, eta))
        np.testing.assert_allclose(z, dense_root_moment(ctx, eta), rtol=1e-7, atol=1e-10)


def test_posterior_degenerate_and_dominated_cases():
    rng = np.random.default_rng(37)
    ctx, _, _ = random_instance(rng, 4, 30)
    degenerate = Hyperparameters(0.0, 0.5)
    np.testing.assert_array_equal(mean_at(ctx, degenerate), np.zeros(4))
    np.testing.assert_array_equal(_root_moment(ctx, _factorize(ctx, degenerate)), np.zeros(4))
    # enormous noise floor shrinks the estimate toward the prior mean
    loud = MLContext(ctx.stats, 1e9 * ctx.sigma2)
    shrunk = mean_at(loud, Hyperparameters(1.0, 0.7))
    assert np.linalg.norm(shrunk) < 1e-6 * np.linalg.norm(mean_at(ctx, Hyperparameters(1.0, 0.7)))


def test_evaluation_cost_ignores_stream_length():
    rng = np.random.default_rng(41)
    n = 40
    eta = Hyperparameters(1.0, 0.8)

    def context(nbar):
        stats = SufficientStats.empty(n)
        u = rng.standard_normal(nbar)
        y = rng.standard_normal(nbar)
        for start in range(0, nbar, 500):
            stats = ingest(stats, Batch(u[start:start + 500], y[start:start + 500]))
        return MLContext(stats, 1.0)

    def best_of_block(ctx):
        best = np.inf
        for _ in range(15):
            t0 = time.perf_counter()
            value_at(ctx, eta)
            best = min(best, time.perf_counter() - t0)
        return best

    short_ctx = context(200)
    long_ctx = context(20000)
    value_at(short_ctx, eta)  # warm caches
    value_at(long_ctx, eta)
    # interleave measurement blocks so load spikes hit both sizes alike;
    # timing noise is additive, so the min over blocks estimates true cost
    short = long = np.inf
    for _ in range(5):
        short = min(short, best_of_block(short_ctx))
        long = min(long, best_of_block(long_ctx))
    assert 0.8 < long / short < 1.2
