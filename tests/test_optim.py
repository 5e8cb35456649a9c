"""Step-size rules, one-step updaters, EM, and the full optimization loop."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesfir import likelihood
from bayesfir.kernel import Hyperparameters
from bayesfir.likelihood import MLContext, _factorize, _lambda_split, _mean, _value
from bayesfir.optim import (
    BETA_EPS,
    D_MAX,
    D_MIN,
    EM_BETA_TOL,
    OptimizerConfig,
    OptimizerState,
    _em_profile,
    _grad_at,
    bb_stepsize,
    bfgs_update,
    em_step,
    fresh_state,
    gradient_step,
    opt_until_convergence,
    secant_pair,
    sgp_scaling,
)

from oracles import (
    dense_posterior,
    dense_tc_kernel,
    eta_array,
    golden_min,
    random_eta,
    random_instance,
    root_diagonal,
    stats_from_moments,
    unit_kernel_inverse_bands,
    unit_kernel_logdet,
)

CFG = OptimizerConfig()


def em_example_context():
    # engineered so the posterior at eta = (1, 1) is mean 2, covariance 1/2
    stats = stats_from_moments(
        n=1, R=np.array([[1.0]]), ytilde=np.array([4.0]),
        ybar=20.0, nbar=5, history=np.zeros(0),
    )
    return MLContext(stats, 1.0)


def test_secant_pair_displacements():
    state = OptimizerState(
        eta_prev=np.array([1.0, 0.5]), grad_prev=np.array([1.0, 0.0]),
        tau=0.5, active=(0, 1),
    )
    r, w = secant_pair(state, np.array([2.0, 0.5]), np.array([3.0, 0.0]))
    np.testing.assert_array_equal(r, [1.0, 0.0])
    np.testing.assert_array_equal(w, [2.0, 0.0])
    with pytest.raises(FrozenInstanceError):
        state.tau = 0.7
    lam_state = OptimizerState(
        eta_prev=np.array([1.0, 0.5]), grad_prev=np.array([1.0]),
        tau=0.5, active=(0,),
    )
    r, w = secant_pair(lam_state, np.array([2.0, 0.5]), np.array([3.0]))
    np.testing.assert_array_equal(r, [1.0])
    np.testing.assert_array_equal(w, [2.0])


def test_bb_stepsize_hand_values():
    alpha, tau = bb_stepsize(np.array([2.0]), np.array([1.0]), 0.5, CFG)
    assert alpha == 4.0 / 2.0  # r'r / r'w
    assert tau == pytest.approx(0.55)
    # equal steps make both rules agree; the ratio 1 exceeds tau
    alpha, _ = bb_stepsize(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 0.5, CFG)
    assert alpha == 1.0


def test_bb_stepsize_alternation_and_clamps():
    r = np.array([1.0, 2.0])
    w = np.array([0.5, 1.0])
    # alpha1 = 5/2.5 = 2, alpha2 = 2.5/1.25 = 2; ratio 1 > tau
    alpha, tau = bb_stepsize(r, w, 0.99, CFG)
    assert alpha == pytest.approx(2.0)
    assert tau == pytest.approx(1.089)
    alpha, tau = bb_stepsize(r, w, 1.01, CFG)
    assert alpha == pytest.approx(2.0)  # the two rules coincide here
    assert tau == pytest.approx(0.909)
    tight = OptimizerConfig(alpha_max=1.5)
    alpha, _ = bb_stepsize(r, w, 0.5, tight)
    assert alpha == 1.5
    tiny = OptimizerConfig(alpha_min=3.0, alpha_max=10.0)
    alpha, _ = bb_stepsize(r, w, 0.5, tiny)
    assert alpha == 3.0


def test_bb_stepsize_curvature_fallbacks():
    r = np.array([1.0])
    w = np.array([-1.0])
    alpha, tau = bb_stepsize(r, w, 0.42, CFG)
    assert alpha == CFG.alpha_min and tau == 0.42
    alpha, tau = bb_stepsize(r, w, 0.42, CFG, metric=np.array([2.0]))
    assert alpha == 1.0 and tau == 0.42


def test_bb_stepsize_metric_rules():
    r = np.array([1.0, 2.0])
    w = np.array([0.5, 1.0])
    d = np.array([2.0, 4.0])
    # alpha1 = r'D^-2 r / r'D^-1 w = 0.5/0.75, alpha2 = r'Dw / w'D^2 w = 9/17
    alpha, tau = bb_stepsize(r, w, 0.9, CFG, metric=d)
    assert alpha == pytest.approx((9.0 / 17.0))
    assert tau == pytest.approx(0.81)
    alpha, tau = bb_stepsize(r, w, 0.5, CFG, metric=d)
    assert alpha == pytest.approx(0.5 / 0.75)
    assert tau == pytest.approx(0.55)


def test_sgp_scaling_clamps():
    d = sgp_scaling(np.array([1.0, 1e-30]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(d, [1.0, D_MIN])
    d = sgp_scaling(np.array([1.0]), np.array([0.0]))
    np.testing.assert_array_equal(d, [D_MAX])


def test_bfgs_update_secant_and_skip():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        a = rng.standard_normal((dim, dim))
        b_prev = a @ a.T + np.eye(dim)
        r = rng.standard_normal(dim)
        w = rng.standard_normal(dim)
        if float(r @ w) <= 0.0:
            w = -w + 1e-3 * r  # force positive curvature
        if float(r @ w) <= 0.0:
            continue
        b = np.array(bfgs_update(b_prev, r, w))
        assert np.linalg.norm(b @ w - r) <= 1e-10 * (1.0 + np.linalg.norm(r))
        np.testing.assert_allclose(b, b.T)
        assert np.all(np.linalg.eigvalsh(b) > 0.0)
    kept = bfgs_update(np.eye(2), np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    np.testing.assert_array_equal(kept, np.eye(2))
    # r'r overflows against w = 0: the skip bound is inf * 0 = NaN
    assert bfgs_update(((1.0,),), (1e200,), (0.0,)) == ((1.0,),)


def test_gradient_step_decreases_objective():
    rng = np.random.default_rng(11)
    for method in ("bb", "sgp", "bfgs"):
        ctx, _, _ = random_instance(rng, 5, 40)
        star = opt_until_convergence(ctx, Hyperparameters(ctx.stats.ybar / (ctx.stats.nbar * 5), 0.9))[0].eta_new
        eta0 = Hyperparameters(star.lam * 3.0, min(star.beta + 0.05, 0.99))
        state = fresh_state(ctx, eta0)
        seed = (np.array(state.eta_prev), np.array(state.grad_prev), state.tau, np.array(state.b_prev))
        rep = gradient_step(ctx, state, eta0, method, CFG)
        assert rep.gamma > 0.0
        assert rep.ml_after < rep.ml_before
        # Armijo inequality, recomputed from scratch
        grad_act, _, _ = _grad_at(ctx, eta0, (0, 1))
        moved = eta_array(rep.eta_new) - eta_array(eta0)
        bound = rep.ml_before + CFG.armijo_c * float(grad_act @ moved)
        assert rep.ml_after <= bound + 1e-10 * (1.0 + abs(rep.ml_before))
        # the next state carries the pre-step iterate as the next secant
        # seed, and the state passed in is left as it was
        np.testing.assert_array_equal(rep.state.eta_prev, eta_array(eta0))
        np.testing.assert_array_equal(rep.state.grad_prev, grad_act)
        for before, after in zip(seed, (state.eta_prev, state.grad_prev, state.tau, state.b_prev)):
            np.testing.assert_array_equal(after, before)


def test_gradient_step_rejects_unknown_method():
    ctx, _, _ = random_instance(np.random.default_rng(0), 3, 20)
    state = fresh_state(ctx, Hyperparameters(1.0, 0.5))
    with pytest.raises(ValueError):
        gradient_step(ctx, state, Hyperparameters(1.0, 0.5), "em", CFG)


def test_gradient_step_exhausted_line_search_leaves_eta():
    rng = np.random.default_rng(13)
    ctx, _, _ = random_instance(rng, 4, 40)
    star = opt_until_convergence(ctx, Hyperparameters(ctx.stats.ybar / (ctx.stats.nbar * 4), 0.9))[0].eta_new
    eta0 = Hyperparameters(star.lam * 1.05, star.beta)
    # Armijo with c = 1 demands the full linear-model decrease, which convex
    # curvature near the optimum denies for every step length.
    brutal = OptimizerConfig(armijo_c=1.0, alpha_min=1e7, alpha_max=1e7, max_backtracks=12)
    state = fresh_state(ctx, eta0)
    rep = gradient_step(ctx, state, eta0, "bb", brutal)
    assert rep.gamma == 0.0
    assert rep.eta_new is eta0
    assert rep.backtracks == brutal.max_backtracks
    assert rep.ml_after == rep.ml_before


def test_bfgs_resets_curvature_after_failed_search():
    rng = np.random.default_rng(17)
    ctx, _, _ = random_instance(rng, 4, 40)
    star = opt_until_convergence(ctx, Hyperparameters(ctx.stats.ybar / (ctx.stats.nbar * 4), 0.9))[0].eta_new
    eta0 = Hyperparameters(star.lam * 1.05, star.beta)
    brutal = OptimizerConfig(armijo_c=1.0, alpha_min=1e7, alpha_max=1e7, max_backtracks=6)
    state = replace(fresh_state(ctx, eta0), b_prev=np.array([[2.0, 0.1], [0.1, 3.0]]))
    rep = gradient_step(ctx, state, eta0, "bfgs", brutal)
    assert rep.gamma == 0.0
    np.testing.assert_array_equal(rep.state.b_prev, np.eye(2))


def test_em_hand_computed_updates():
    # at n = 1 the kernel inverse 1 / beta exists at beta = 1, while the
    # profiled objective's log(1 - beta) term does not
    ctx = em_example_context()
    eta = Hyperparameters(1.0, 1.0)
    assert em_step(ctx, eta, "em1").eta_new.lam == pytest.approx(4.0, abs=1e-12)
    rep = em_step(ctx, eta, "em2")
    assert rep.eta_new.lam == pytest.approx(4.5, abs=1e-12)
    assert rep.eta_new.beta == 1.0
    with pytest.raises(ValueError):
        em_step(ctx, eta, "bb")


def test_em1_never_exceeds_em2():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 8, 40)))
        eta = random_eta(rng)
        em1 = em_step(ctx, eta, "em1").eta_new.lam
        em2 = em_step(ctx, eta, "em2").eta_new.lam
        assert em1 <= em2 + 1e-14


def test_em_variants_send_lambda_to_zero_at_zero_beta():
    # beta = 0 zeroes the kernel, so the posterior second moment is zero and
    # the kernel inverse does not exist; the update is lam = 0, as in em_step
    rng = np.random.default_rng(23)
    ctx, _, _ = random_instance(rng, 20, 120)
    for lam in (0.0, 1.0):
        eta = Hyperparameters(lam, 0.0)
        for method in ("em", "em1", "em2"):
            rep = em_step(ctx, eta, method)
            assert (rep.eta_new.lam, rep.eta_new.beta) == (0.0, 0.0)
            assert np.isfinite(rep.ml_before) and rep.ml_after == rep.ml_before


def test_em1_is_zero_without_signal():
    stats = stats_from_moments(
        n=2, R=np.eye(2), ytilde=np.zeros(2), ybar=3.0, nbar=6, history=np.zeros(1),
    )
    ctx = MLContext(stats, 1.0)
    eta = Hyperparameters(1.0, 0.5)
    assert em_step(ctx, eta, "em1").eta_new.lam == 0.0
    assert em_step(ctx, eta, "em2").eta_new.lam > 0.0


def test_gradient_lambda_step_equals_em2():
    # with beta fixed, the unprojected gradient step at alpha = lam^2 / n
    # reproduces the covariance-aware EM lambda update exactly
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 8, 40)))
        eta = random_eta(rng)
        v_lam, u_lam = _lambda_split(ctx, _factorize(ctx, eta))
        stepped = eta.lam - (eta.lam**2 / n) * (v_lam - u_lam)
        expected = em_step(ctx, eta, "em2").eta_new.lam
        assert abs(stepped - expected) <= 1e-10 * (1.0 + abs(expected))


def test_em_step_never_increases_objective():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 8, 40)))
        rep = em_step(ctx, random_eta(rng), "em")
        assert rep.ml_after <= rep.ml_before + 1e-10 * (1.0 + abs(rep.ml_before))
        assert 0.0 <= rep.eta_new.beta <= 1.0
        assert rep.eta_new.lam >= 0.0


def test_em_step_degenerate_posterior_short_circuits():
    ctx, _, _ = random_instance(np.random.default_rng(31), 3, 20)
    rep = em_step(ctx, Hyperparameters(0.0, 0.7), "em")
    assert rep.eta_new.lam == 0.0
    assert rep.eta_new.beta == 0.7
    assert rep.factors.eta == rep.eta_new


def test_em_profile_matches_banded_form():
    rng = np.random.default_rng(59)
    n = 80
    ctx, _, _ = random_instance(rng, n, 400)
    # a posterior second moment M, read by the polynomial through
    # diag(U^-1 M U^-T) and by the tridiagonal inverse through its two bands
    mean, cov = dense_posterior(ctx, Hyperparameters(1.0, 0.9))
    m = cov + np.outer(mean, mean)
    lam_star, objective, _ = _em_profile(root_diagonal(m))
    for beta in (1e-3, 0.01, 0.5, 0.9, 1.0 - 1e-6):
        d, e = unit_kernel_inverse_bands(n, beta)
        lam = (float(d @ np.diag(m)) + 2.0 * float(e @ np.diag(m, 1))) / n
        want = n * np.log(lam) + unit_kernel_logdet(n, beta)
        assert abs(objective(beta) - want) <= 1e-12 * abs(want), beta
        assert abs(lam_star(beta) - lam) <= 1e-12 * lam, beta
    # beta**80 underflows: the inverse does not exist and the profile is inf
    assert lam_star(1e-5) == np.inf and objective(1e-5) == np.inf


def test_em_steps_match_a_dense_m_step():
    # lam* = Tr(K_b^-1 M) / n from numpy.linalg, with M = P + h h' from the
    # dense posterior for em and em2 and M = h h' for em1
    rng = np.random.default_rng(67)

    def dense_profile(m, beta):
        n = m.shape[0]
        kernel = dense_tc_kernel(n, 1.0, beta)
        lam = np.trace(np.linalg.solve(kernel, m)) / n
        return lam, n * np.log(lam) + np.linalg.slogdet(kernel)[1]

    for n in range(1, 9):
        for _ in range(3):
            ctx, _, _ = random_instance(rng, n, 10 * n + 20)
            eta = random_eta(rng)
            mean, cov = dense_posterior(ctx, eta)
            second = cov + np.outer(mean, mean)
            for method, m in (("em1", np.outer(mean, mean)), ("em2", second)):
                want, _ = dense_profile(m, eta.beta)
                got = em_step(ctx, eta, method).eta_new.lam
                assert abs(got - want) <= 1e-8 * want, (n, method)
            # em's beta is no worse than the current one on the dense profile,
            # and its lam is lam* there
            rep = em_step(ctx, eta, "em")
            lam_new, g_new = dense_profile(second, rep.eta_new.beta)
            _, g_cur = dense_profile(second, eta.beta)
            assert g_new <= g_cur + 1e-10 * abs(g_cur), n
            assert abs(rep.eta_new.lam - lam_new) <= 1e-8 * lam_new, n


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from((1, 2, 5, 80)), decay=st.booleans())
def test_em_beta_search_beats_a_dense_scan_and_golden_section(seed, n, decay):
    # a random PSD second moment, with rows decaying like an impulse
    # response's when decay is set
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n + 3))
    if decay:
        a *= rng.uniform(0.3, 0.99) ** np.arange(n)[:, None]
    m = a @ a.T
    _, objective, best_beta = _em_profile(root_diagonal(m))
    lo, hi = BETA_EPS, 1.0 - BETA_EPS
    grid = np.linspace(lo, hi, 10_000).tolist()
    scan = [objective(b) for b in grid]
    beta = best_beta()
    if n == 1:  # the profile is flat in beta, and there is nothing to search
        assert beta is None
        # log(M_11 / b) + log(b) = log(M_11), up to the rounding of terms of
        # size |log b|, which cancel in the sum
        want = np.log(m[0, 0])
        eps = np.finfo(float).eps
        for b, got in zip(grid, scan):
            assert abs(got - want) <= 4.0 * eps * (1.0 + abs(want) + abs(np.log(b))), b
        return
    got = objective(beta)
    assert lo <= beta <= hi
    assert got <= min(scan) + 1e-10 * abs(got)
    # at a shared minimum the two differ only by the rounding of objective
    assert got <= golden_min(objective, lo, hi, EM_BETA_TOL)[1] + 1e-14 * abs(got)


def test_em_profile_is_inf_where_the_kernel_inverse_does_not_exist():
    lam_star, _, _ = _em_profile(np.ones(3))
    assert lam_star(0.0) == np.inf  # zero kernel
    assert lam_star(1.0) == np.inf  # rank-one kernel
    assert lam_star(0.5) > 0.0
    lam_star, _, _ = _em_profile(np.ones(1))
    assert lam_star(0.0) == np.inf
    assert lam_star(1.0) == 1.0  # the n = 1 kernel is beta itself
    lam_star, _, _ = _em_profile(np.ones(1040))
    assert lam_star(0.5) == np.inf  # 0.5**1040 is subnormal and the inverse overflows


def test_em_variants_hold_where_the_kernel_inverse_does_not_exist(monkeypatch):
    # beta frozen where the inverse is singular (beta = 1) or beta**n
    # underflows: em1/em2 have no lam* and hold eta with gamma = 0, handing
    # back the factor taken at eta without a second factorization, while em
    # searches beta inside the box
    ctx, _, _ = random_instance(np.random.default_rng(61), 80, 240)
    factored = []
    real_factorize = likelihood._factorize

    def counting_factorize(ctx, eta):
        factored.append(eta)
        return real_factorize(ctx, eta)

    monkeypatch.setattr(likelihood, "_factorize", counting_factorize)
    for eta in (Hyperparameters(1.0, 1.0), Hyperparameters(1.0, 1e-5)):
        for method in ("em1", "em2"):
            factored.clear()
            rep = em_step(ctx, eta, method)
            assert factored == [eta]
            assert rep.eta_new is eta and rep.factors.eta is eta
            assert (rep.gamma, rep.backtracks) == (0.0, 0)
            assert rep.ml_after == rep.ml_before == _value(ctx, real_factorize(ctx, eta))
        assert 0.0 < em_step(ctx, eta, "em").eta_new.beta < 1.0


def test_em_step_reports_the_factor_at_its_new_eta():
    ctx, _, _ = random_instance(np.random.default_rng(37), 4, 30)
    eta = Hyperparameters(0.5, 0.8)
    for method in ("em", "em1", "em2"):
        rep = em_step(ctx, eta, method)
        assert rep.factors.eta == rep.eta_new
        fresh = _factorize(ctx, rep.eta_new)
        np.testing.assert_array_equal(_mean(rep.factors), _mean(fresh))
        assert rep.ml_after == _value(ctx, fresh)
        assert rep.ml_before == _value(ctx, _factorize(ctx, eta))


def test_opt_until_convergence_improves_and_stabilizes():
    rng = np.random.default_rng(41)
    ctx, _, _ = random_instance(rng, 5, 45)
    eta0 = Hyperparameters(ctx.stats.ybar / (ctx.stats.nbar * 5), 0.9)
    before = _value(ctx, _factorize(ctx, eta0))
    for method in ("bb", "sgp", "bfgs", "em"):
        rep, iterations = opt_until_convergence(ctx, eta0, method=method)
        assert rep.factors.eta == rep.eta_new
        after = _value(ctx, rep.factors)
        assert after == _value(ctx, _factorize(ctx, rep.eta_new))
        assert after <= before + 1e-9 * (1.0 + abs(before))
        assert 1 <= iterations <= CFG.opt_max_iter
        assert (rep.state is None) == (method == "em")
    with pytest.raises(ValueError):
        opt_until_convergence(ctx, eta0, method="nope")
    with pytest.raises(ValueError):  # no iteration, so no report to return
        opt_until_convergence(ctx, eta0, cfg=OptimizerConfig(opt_max_iter=0))


def test_opt_until_convergence_lambda_only_freezes_beta():
    ctx, _, _ = random_instance(np.random.default_rng(43), 4, 35)
    eta0 = Hyperparameters(ctx.stats.ybar / (ctx.stats.nbar * 4), 0.85)
    eta = opt_until_convergence(ctx, eta0, method="sgp", lambda_only=True)[0].eta_new
    assert eta.beta == eta0.beta
    assert eta.lam != eta0.lam


def test_lambda_only_opt_lands_on_the_one_dimensional_minimum():
    # the run steps on the frozen-beta eigendecomposition; its result must be
    # the minimum of the Cholesky value along lam, to what the stopping rule
    # allows: a value gap within opt_tol * (1 + |L|), and lam within the
    # distance at which the quadratic model rises by that much
    ctx, _, _ = random_instance(np.random.default_rng(43), 4, 35)
    for beta in (0.5, 0.85):
        eta0 = Hyperparameters(ctx.stats.ybar / (ctx.stats.nbar * 4), beta)

        def value(lam):
            return _value(ctx, _factorize(ctx, Hyperparameters(lam, beta)))

        logs = np.log(eta0.lam) + np.linspace(-10.0, 10.0, 201)
        j = int(np.argmin([value(np.exp(s)) for s in logs]))
        assert 0 < j < logs.size - 1
        s_star, l_star = golden_min(lambda s: value(np.exp(s)), logs[j - 1], logs[j + 1], 1e-9)
        lam_star = np.exp(s_star)
        h = 1e-3 * lam_star
        curvature = (value(lam_star + h) - 2.0 * l_star + value(lam_star - h)) / h**2
        tol = CFG.opt_tol * (1.0 + abs(l_star))
        for method in ("bb", "sgp"):
            rep, _ = opt_until_convergence(ctx, eta0, method=method, lambda_only=True)
            assert rep.factors.eta == rep.eta_new and rep.eta_new.beta == beta
            assert rep.ml_after == _value(ctx, rep.factors)
            assert rep.ml_after - l_star <= tol, (beta, method)
            assert abs(rep.eta_new.lam - lam_star) <= np.sqrt(2.0 * tol / curvature), (beta, method)


def test_opt_starts_agree_on_the_minimum():
    # two distant starts should find the same basin; recorded, not enforced
    ctx, _, _ = random_instance(np.random.default_rng(47), 4, 40)
    scale = ctx.stats.ybar / (ctx.stats.nbar * 4)
    a, _ = opt_until_convergence(ctx, Hyperparameters(scale, 0.9))
    b, _ = opt_until_convergence(ctx, Hyperparameters(50.0 * scale, 0.5))
    la, lb = a.ml_after, b.ml_after
    print(f"start sensitivity: {abs(la - lb):.3e} on |L| ~ {abs(la):.3e}")
    assert np.isfinite(la) and np.isfinite(lb)


def test_updater_outputs_stay_feasible():
    rng = np.random.default_rng(53)
    cases = 0
    for _ in range(8):
        n = int(rng.integers(2, 7))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 6, 40)))
        for method in ("bb", "sgp", "bfgs"):
            eta = random_eta(rng, lam_scale=float(10.0 ** rng.uniform(-2, 2)))
            state = fresh_state(ctx, eta)
            for _ in range(8):
                rep = gradient_step(ctx, state, eta, method, CFG)
                eta, state = rep.eta_new, rep.state
                assert np.isfinite(eta.lam) and eta.lam >= 0.0
                assert 0.0 <= eta.beta <= 1.0
                cases += 1
    assert cases == 8 * 3 * 8
