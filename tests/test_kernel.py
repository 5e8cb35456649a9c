"""Closed-form TC kernel structure: root weights, their beta log-derivative, and the
tridiagonal-inverse reference that the EM tests compare against."""

import numpy as np
import pytest

from bayesfir.kernel import Hyperparameters, dlog_root_weights, tc_block_weights
from bayesfir.likelihood import _factorize, _value

from oracles import (
    central_diff,
    dense_neg_log_ml,
    dense_tc_kernel,
    eta_array,
    eta_from_array,
    random_instance,
    unit_kernel_inverse_bands,
    unit_kernel_logdet,
)


def root(n, lam, beta):
    """Square root U diag(d) of the kernel, U the upper-triangular all-ones matrix."""
    return np.triu(np.ones((n, n))) * np.sqrt(lam * tc_block_weights(n, beta))


def block_sum(c):
    """sum_m c[m] * B_m with B_m the leading m-by-m block of ones."""
    n = len(c)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(np.sum(c[max(i, j):]))
    return out


def test_tc_kernel_hand_computed_entries():
    np.testing.assert_array_equal(tc_block_weights(3, 0.5), [0.25, 0.125, 0.125])
    lk = root(3, 2.0, 0.5)
    expected = np.array(
        [
            [1.0, 0.5, 0.25],
            [0.5, 0.5, 0.25],
            [0.25, 0.25, 0.25],
        ]
    )
    np.testing.assert_allclose(lk @ lk.T, expected, rtol=1e-15)


def test_tc_kernel_matches_double_loop():
    rng = np.random.default_rng(7)
    cases = [(float(10.0 ** rng.uniform(-3, 3)), float(rng.uniform(0.05, 0.99))) for _ in range(5)]
    cases += [(3.0, 0.5), (2.0, 0.004), (0.0, 0.5), (2.0, 0.0), (2.0, 1.0)]
    for n in (1, 2, 9, 80):
        for lam, beta in cases:
            lk = root(n, lam, beta)
            dense = dense_tc_kernel(n, lam, beta)
            np.testing.assert_allclose(lk @ lk.T, dense, rtol=1e-12, atol=0.0)


def test_tc_kernel_boundaries():
    np.testing.assert_array_equal(tc_block_weights(4, 0.0), np.zeros(4))
    np.testing.assert_array_equal(tc_block_weights(3, 1.0), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(root(4, 0.0, 0.5), np.zeros((4, 4)))
    np.testing.assert_array_equal(root(4, 3.0, 0.0), np.zeros((4, 4)))
    lk = root(3, 2.0, 1.0)
    np.testing.assert_allclose(lk @ lk.T, 2.0 * np.ones((3, 3)), rtol=1e-15)
    # every weight is nonnegative on the closed box, so the root is real
    for beta in np.linspace(0.0, 1.0, 41):
        assert np.all(tc_block_weights(12, beta) >= 0.0)


def test_tc_kernel_rejects_bad_order():
    with pytest.raises(ValueError):
        tc_block_weights(0, 0.5)


def test_hyperparameter_validation():
    for lam, beta in [(-1.0, 0.5), (np.inf, 0.5), (np.nan, 0.5), (1.0, -0.1), (1.0, 1.1), (1.0, np.nan)]:
        with pytest.raises(ValueError):
            Hyperparameters(lam, beta)


def test_hyperparameter_array_round_trip():
    eta = Hyperparameters(3.5, 0.25)
    again = eta_from_array(eta_array(eta))
    assert again.lam == eta.lam and again.beta == eta.beta


def test_scale_linearity_is_exact():
    for beta in (0.2, 0.7, 0.95):
        unit = root(9, 1.0, beta)
        # a power-of-two scale is exact in floating point, any other to rounding
        np.testing.assert_array_equal(root(9, 4.0, beta), 2.0 * unit)
        np.testing.assert_allclose(root(9, 4.75, beta), np.sqrt(4.75) * unit, rtol=1e-15)


def dbeta(n, beta):
    """d/dbeta of tc_block_weights as the gradient reads it: c' = 2 g c."""
    return 2.0 * dlog_root_weights(n, beta) * tc_block_weights(n, beta)


def test_dbeta_hand_computed():
    # c(2, 1/2) = (1/4, 1/4): g_1 = (1/beta - 1/(1 - beta)) / 2 = 0, g_2 = 2 / (2 beta) = 2
    np.testing.assert_array_equal(dlog_root_weights(2, 0.5), [0.0, 2.0])
    np.testing.assert_array_equal(dbeta(2, 0.5), [0.0, 1.0])
    np.testing.assert_array_equal(block_sum(dbeta(2, 0.5)), np.ones((2, 2)))
    np.testing.assert_array_equal(dlog_root_weights(3, 0.25), [2.0 - 2.0 / 3.0, 4.0 - 2.0 / 3.0, 6.0])
    # one tap is beta itself: d log sqrt(beta) / d beta = 1 / (2 beta)
    np.testing.assert_array_equal(dbeta(1, 0.5), [1.0])


def test_dbeta_matches_finite_differences():
    # the block sum of c' is d/dbeta beta**max(i, j) = max(i, j) beta**(max(i, j) - 1)
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        beta = float(rng.uniform(0.1, 0.9))
        fd = central_diff(lambda b: dense_tc_kernel(n, 1.0, b), beta, 1e-6)
        np.testing.assert_allclose(block_sum(dbeta(n, beta)), fd, rtol=1e-6, atol=1e-7)
        m = np.maximum.outer(np.arange(1, n + 1), np.arange(1, n + 1))
        np.testing.assert_allclose(block_sum(dbeta(n, beta)), m * beta ** (m - 1.0), rtol=1e-12, atol=1e-15)


def test_dlog_root_weights_match_central_differences():
    # 2 g c against a central difference of the root weights themselves,
    # across the decay range and at both ends of it; g stays finite where
    # c underflows (beta = 1e-6 from m = 54)
    for n, beta in [(1, 0.5), (3, 0.2), (8, 0.9), (40, 0.999), (80, 0.5), (80, 1e-3)]:
        h = 1e-6 * min(beta, 1.0 - beta)
        fd = central_diff(lambda b: tc_block_weights(n, b), beta, h)
        np.testing.assert_allclose(dbeta(n, beta), fd, rtol=1e-7, atol=1e-9 * np.max(np.abs(fd)))
    g = dlog_root_weights(200, 1e-6)
    assert np.all(np.isfinite(g)) and g[-1] == 1e8
    assert np.all(np.diff(g) > 0.0)  # one sign change: V and U split at a single tap


def test_psd_sqrt_factor_reconstructs():
    # the closed-form root is exact for positive definite and semidefinite kernels alike
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        lam = float(10.0 ** rng.uniform(-2, 2))
        beta = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)]))
        lk = root(n, lam, beta)
        dense = dense_tc_kernel(n, lam, beta)
        assert np.max(np.abs(lk @ lk.T - dense)) <= 1e-14 * lam


def test_sqrt_factor_interior_and_boundary():
    interior = root(5, 2.0, 0.6)
    assert np.linalg.matrix_rank(interior) == 5
    np.testing.assert_allclose(interior @ interior.T, dense_tc_kernel(5, 2.0, 0.6), rtol=1e-14)
    rank_one = root(5, 2.0, 1.0)
    assert np.linalg.matrix_rank(rank_one) == 1
    np.testing.assert_allclose(rank_one @ rank_one.T, dense_tc_kernel(5, 2.0, 1.0), atol=1e-12 * 2.0)
    np.testing.assert_array_equal(root(5, 0.0, 0.5), np.zeros((5, 5)))


def test_unit_inverse_bands_match_dense_inverse():
    for n, beta in [(1, 0.5), (2, 0.5), (3, 0.1), (7, 0.3), (12, 0.9), (25, 0.9), (25, 0.99), (40, 0.95)]:
        diag, offdiag = unit_kernel_inverse_bands(n, beta)
        tri = np.diag(diag)
        if n > 1:
            tri += np.diag(offdiag, 1) + np.diag(offdiag, -1)
        dense_inv = np.linalg.inv(dense_tc_kernel(n, 1.0, beta))
        scale = np.max(np.abs(dense_inv))
        assert np.max(np.abs(tri - dense_inv)) < 1e-7 * scale


def test_unit_inverse_bands_scalar_cases():
    diag, offdiag = unit_kernel_inverse_bands(1, 1.0)
    np.testing.assert_array_equal(diag, [1.0])
    assert offdiag.size == 0
    diag, _ = unit_kernel_inverse_bands(1, 0.25)
    np.testing.assert_allclose(diag, [4.0])


def test_unit_logdet_matches_dense():
    for n, beta in [(1, 0.5), (4, 0.2), (9, 0.9), (30, 0.97)]:
        sign, ld = np.linalg.slogdet(dense_tc_kernel(n, 1.0, beta))
        assert sign > 0
        assert abs(unit_kernel_logdet(n, beta) - ld) < 1e-9 * (1.0 + abs(ld))


def test_tail_flush_touches_nothing_for_moderate_decay():
    # no small kernel entry is flushed to zero: the closed-form root reproduces
    # every entry of the n = 80, beta = 0.5 kernel, the smallest near 0.5**80
    lk = root(80, 3.0, 0.5)
    kern = lk @ lk.T
    assert np.all(kern > 0.0)
    np.testing.assert_allclose(kern, dense_tc_kernel(80, 3.0, 0.5), rtol=1e-14)


def test_deep_decay_matches_dense_oracles():
    # beta**m spans hundreds of decades at n = 80; the root stays exact and the
    # likelihood matches the dense evaluation down to beta**n underflowing
    lam, beta, n = 2.0, 0.004, 80
    lk = root(n, lam, beta)
    np.testing.assert_allclose(lk @ lk.T, dense_tc_kernel(n, lam, beta), rtol=1e-12, atol=0.0)
    rng = np.random.default_rng(43)
    ctx, u, y = random_instance(rng, n, 2 * n)
    for beta in (0.004, 1e-5, 1e-9):
        direct = dense_neg_log_ml(u, y, n, lam, beta, ctx.sigma2)
        assert abs(_value(ctx, _factorize(ctx, Hyperparameters(lam, beta))) - direct) < 1e-10 * (1.0 + abs(direct))
