"""End-to-end acceptance checks, one per shipped guarantee.

Every test prints a single ``CRITERION k: PASS/FAIL`` line (run with ``-s``
to see all of them) and then asserts on the same condition, so a red run
names exactly the guarantee that broke.  Criteria 8-10 share one Monte
Carlo study fixture, which feeds each run's estimators batch by batch in
turn, and criterion 10 repeats its one-step streams twice through the CLI's
token-by-token loop; expect a few minutes of wall time for the module.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from bayesfir.cli import METHOD_TOKENS, montecarlo_rows, warm_start
from bayesfir.estimator import OnlineEstimator
from bayesfir.kernel import Hyperparameters
from bayesfir.likelihood import _factorize, _lambda_split, _root_mean, _root_moment, _value
from bayesfir.optim import (
    OptimizerConfig,
    _em_profile,
    _grad_at,
    bfgs_update,
    em_step,
    fresh_state,
    gradient_step,
    opt_until_convergence,
)
from bayesfir.simgen import ExperimentConfig, bandlimited_input, fit, random_system, simulate_io
from bayesfir.stats import Batch, SufficientStats, ingest

from oracles import (
    central_diff,
    dense_neg_log_ml,
    dense_regressors,
    dense_tc_kernel,
    eta_array,
    gram_r,
    gram_ytilde,
    random_eta,
    random_instance,
)

CFG = OptimizerConfig()

ONESTEP = ("bb", "sgp", "bfgs", "em", "em1", "em2", "bb_lambda", "sgp_lambda", "bfgs_lambda")

# the benchmark study behind criteria 8-10
STUDY = ExperimentConfig(
    n=80,
    n_total=2000,
    n_warmup=100,
    n_k=10,
    snr=5.0,
    runs=20,
    seed=1,
    methods=ONESTEP + ("opt", "opt_lambda"),
)


def _verdict(k, ok, detail):
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_compressed_ml_matches_dense_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        nbar = int(rng.integers(n + 2, 51))
        ctx, u, y = random_instance(rng, n, nbar)
        eta = random_eta(rng)
        got = _value(ctx, _factorize(ctx, eta))
        want = dense_neg_log_ml(u, y, n, eta.lam, eta.beta, ctx.sigma2)
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _verdict(1, ok, f"50 instances, worst rel err {worst:.2e} (<=1e-8), {elapsed:.2f}s (<10s)")


def test_criterion_2_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 10, 61)))
        eta = random_eta(rng)
        grad, _, _ = _grad_at(ctx, eta, (0, 1))
        fd_lam = central_diff(
            lambda x: _value(ctx, _factorize(ctx, Hyperparameters(x, eta.beta))), eta.lam, 1e-6 * eta.lam
        )
        fd_beta = central_diff(
            lambda x: _value(ctx, _factorize(ctx, Hyperparameters(eta.lam, x))),
            eta.beta,
            1e-6 * min(eta.beta, 1.0 - eta.beta),
        )
        for got, want in ((grad[0], fd_lam), (grad[1], fd_beta)):
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(2, ok, f"20 pairs, worst component rel err {worst:.2e} (<1e-4), {elapsed:.2f}s (<30s)")


def test_criterion_3_lambda_gradient_step_equals_em2_update():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 10, 121)))
        eta = random_eta(rng)
        # the lam-only gradient pieces that _grad_at computes for beta frozen
        v, u = _lambda_split(ctx, _factorize(ctx, eta))
        stepped = eta.lam - (eta.lam ** 2 / n) * (v - u)
        target = em_step(ctx, eta, "em2").eta_new.lam
        worst = max(worst, abs(stepped - target) / abs(target))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _verdict(3, ok, f"100 instances, worst rel err {worst:.2e} (<=1e-10), {elapsed:.2f}s (<30s)")


def test_criterion_4_posterior_trace_matches_logdet_derivative():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 11))
        ctx, _, _ = random_instance(rng, n, n * 10 + 20)
        rep, _ = opt_until_convergence(ctx, Hyperparameters(ctx.stats.ybar / (ctx.stats.nbar * n), 0.9))
        eta = rep.eta_new
        # diag(U^-1 P U^-T) for P = M - h h', from the second moment M that
        # EM reads, and Tr(K_1^-1 P) = n lam*(beta) from EM's closed form
        p_root = _root_moment(ctx, rep.factors) - _root_mean(rep.factors) ** 2
        lam_star, _, _ = _em_profile(p_root)
        z = n * lam_star(eta.beta)
        kinv = np.linalg.inv(dense_tc_kernel(n, 1.0, eta.beta))
        a = 1.0 / eta.lam

        def logdet(x):
            return np.linalg.slogdet(gram_r(ctx.stats) / ctx.sigma2 + x * kinv)[1]

        fd = central_diff(logdet, a, 1e-5 * a)
        worst = max(worst, abs(z - fd) / abs(fd))
    ok = worst <= 1e-5
    _verdict(4, ok, f"20 instances, worst rel err {worst:.2e} (<=1e-5)")


def test_criterion_5_em_step_never_increases_objective():
    rng = np.random.default_rng(505)
    worst = -np.inf
    for _ in range(50):
        n = int(rng.integers(2, 11))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 10, 101)))
        rep = em_step(ctx, random_eta(rng), "em")
        worst = max(worst, (rep.ml_after - rep.ml_before) / (1.0 + abs(rep.ml_before)))
    ok = worst <= 1e-10
    _verdict(5, ok, f"50 instances, worst rel increase {worst:.2e} (<=1e-10)")


def test_criterion_6_secant_feasibility_and_armijo_suites():
    rng = np.random.default_rng(606)
    # (a) secant equation on curvature-positive pairs; skip pairs must no-op
    secant_cases = 0
    worst_secant = 0.0
    while secant_cases < 1000:
        m = rng.normal(size=(2, 2))
        b_prev = m @ m.T + 0.1 * np.eye(2)
        r = rng.normal(size=2)
        w = rng.normal(size=2)
        b_new = bfgs_update(b_prev, r, w)
        if float(r @ w) <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(w):
            assert np.array_equal(b_new, b_prev)
            continue
        secant_cases += 1
        # backward-error scaling: tiny r'w legitimately inflates |b_new|,
        # and the representable residual grows with it
        scale = max(1.0, np.linalg.norm(r), np.linalg.norm(b_new, 2) * np.linalg.norm(w))
        worst_secant = max(worst_secant, np.linalg.norm(b_new @ w - r) / scale)
    # (b) every updater output stays in the box; (c) Armijo holds when gamma > 0
    feasible_cases = 0
    armijo_cases = 0
    all_feasible = True
    worst_armijo = -np.inf
    while feasible_cases < 1000 or armijo_cases < 1000:
        n = int(rng.integers(2, 7))
        ctx, _, _ = random_instance(rng, n, int(rng.integers(n + 10, 81)))
        eta0 = random_eta(rng)
        for method in ("bb", "sgp", "bfgs"):
            eta = eta0
            state = fresh_state(ctx, eta)
            for _ in range(12):
                rep = gradient_step(ctx, state, eta, method, CFG)
                all_feasible &= rep.eta_new.lam >= 0.0 and 0.0 <= rep.eta_new.beta <= 1.0
                feasible_cases += 1
                if rep.gamma > 0.0:
                    grad_act, _, _ = _grad_at(ctx, eta, (0, 1))
                    moved = eta_array(rep.eta_new) - eta_array(eta)
                    slack = rep.ml_after - rep.ml_before - CFG.armijo_c * float(grad_act @ moved)
                    worst_armijo = max(worst_armijo, slack / (1.0 + abs(rep.ml_before)))
                    armijo_cases += 1
                eta, state = rep.eta_new, rep.state
        for method in ("em", "em1", "em2"):
            eta = eta0
            for _ in range(4):
                rep = em_step(ctx, eta, method)
                all_feasible &= rep.eta_new.lam >= 0.0 and 0.0 <= rep.eta_new.beta <= 1.0
                feasible_cases += 1
                eta = rep.eta_new
    ok = worst_secant <= 1e-10 and all_feasible and worst_armijo <= 1e-9
    _verdict(
        6,
        ok,
        f"secant worst {worst_secant:.2e} (<=1e-10, {secant_cases} cases); "
        f"feasible {all_feasible} ({feasible_cases} cases); "
        f"armijo worst slack {worst_armijo:.2e} (<=1e-9, {armijo_cases} cases)",
    )


def test_criterion_7_rank_one_update_and_batch_split_invariance():
    rng = np.random.default_rng(707)
    # a one-sample batch is a rank-one update of R and of C = U'RU
    worst_rank_one = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        prefix = int(rng.integers(0, 3 * n))
        u = rng.standard_normal(prefix + 1)
        y = rng.standard_normal(prefix + 1)
        u[-1] *= float(10.0 ** rng.integers(-2, 3))
        stats = SufficientStats.empty(n)
        if prefix:
            stats = ingest(stats, Batch(u[:-1], y[:-1]))
        stats = ingest(stats, Batch(u[-1:], y[-1:]))
        phi = dense_regressors(u, n)
        r = phi.T @ phi
        c = np.cumsum(np.cumsum(r, axis=0), axis=1)
        for got, want in ((gram_r(stats), r), (stats.C, c)):
            worst_rank_one = max(worst_rank_one, np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want))))
    worst_split = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        total = int(rng.integers(n + 20, 161))
        u = rng.standard_normal(total)
        y = rng.standard_normal(total)
        whole = ingest(SufficientStats.empty(n), Batch(u, y))
        cuts = np.sort(rng.choice(np.arange(1, total), size=int(rng.integers(1, 6)), replace=False))
        acc = SufficientStats.empty(n)
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, total]):
            acc = ingest(acc, Batch(u[lo:hi], y[lo:hi]))
        worst_split = max(
            worst_split,
            np.max(np.abs(gram_r(acc) - gram_r(whole))) / np.max(np.abs(gram_r(whole))),
            np.max(np.abs(gram_ytilde(acc) - gram_ytilde(whole))) / np.max(np.abs(gram_ytilde(whole))),
            abs(acc.ybar - whole.ybar) / abs(whole.ybar),
            float(np.max(np.abs(acc.history - whole.history))),
            float(abs(acc.nbar - whole.nbar)),
        )
    ok = worst_rank_one <= 1e-8 and worst_split <= 1e-10
    _verdict(
        7,
        ok,
        f"one-sample ingest worst err {worst_rank_one:.2e} (<=1e-8, 200 draws); "
        f"split worst rel {worst_split:.2e} (<=1e-10, 50 partitions)",
    )


def _grouped(rows):
    """Trace rows grouped token -> run -> batch rows."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row[1], {}).setdefault(row[0], []).append(row)
    return grouped


def _interleaved_rows(xcfg):
    """montecarlo_rows' trace rows, with each run's estimators fed batch by batch in turn.

    Every token of a run then meets the same host conditions over the run's
    wall time, so a load burst weighs on the opt and the one-step timings
    alike; the work and every non-timing column are the CLI's.
    """
    rows = []
    for run in range(xcfg.runs):
        rng = np.random.default_rng(np.random.SeedSequence((xcfg.seed, run)))
        system = random_system(rng, xcfg.n)
        u = bandlimited_input(rng, xcfg.n_total)
        y = simulate_io(system, u, xcfg.snr, rng)
        warm = warm_start(u, y, xcfg, CFG)
        ests = {}
        for tok in xcfg.methods:
            method, lam_only, mode = METHOD_TOKENS[tok]
            ests[tok] = OnlineEstimator(xcfg.n, method=method, mode=mode, lambda_only=lam_only)
            ests[tok].start(warm)
        cumulative = dict.fromkeys(ests, 0.0)
        for start in range(xcfg.n_warmup, xcfg.n_total, xcfg.n_k):
            ub, yb = u[start : start + xcfg.n_k], y[start : start + xcfg.n_k]
            for tok, est in ests.items():
                snap = est.process_batch(ub, yb)
                cumulative[tok] += snap.seconds
                rows.append([
                    run, tok, int(est.lambda_only), snap.batch_index, snap.nbar,
                    fit(system.h_true, snap.h), snap.eta.lam, snap.eta.beta, snap.sigma2,
                    snap.seconds, cumulative[tok],
                ])
    return rows


@pytest.fixture(scope="module")
def study():
    return _grouped(_interleaved_rows(STUDY))


def _batch_seconds(grouped, tok):
    """runs x batches array of a token's per-batch wall time."""
    return np.array([[row[9] for row in rows] for rows in grouped[tok].values()])


@pytest.fixture(scope="module")
def onestep_batch_seconds(study):
    """Per-batch seconds of every one-step token, least over three identical passes.

    The study's pass plus two repeats of its one-step streams: the work is
    deterministic (every non-timing column must repeat), and host load only
    ever adds time, so a load burst counts only if it hits the same batch in
    all three passes.
    """
    least = {tok: _batch_seconds(study, tok) for tok in ONESTEP}
    for _ in range(2):
        repeat = _grouped(montecarlo_rows(replace(STUDY, methods=ONESTEP), CFG))
        for tok in ONESTEP:
            for run, rows in repeat[tok].items():
                assert [r[:9] for r in rows] == [r[:9] for r in study[tok][run]], (tok, run)
            least[tok] = np.minimum(least[tok], _batch_seconds(repeat, tok))
    return least


def test_criterion_8_final_fit_quality(study):
    medians = {tok: float(np.median([rows[-1][5] for rows in study[tok].values()])) for tok in study}
    gap = max(abs(medians[tok] - medians["opt"]) for tok in ("bb", "sgp", "bfgs", "em"))
    ok_a = gap <= 5.0
    ok_b = medians["em1"] <= medians["em2"]
    ok_c = min(medians.values()) >= 40.0
    _verdict(
        8,
        ok_a and ok_b and ok_c,
        f"worst gap to full-opt median {gap:.2f} (<=5); "
        f"em1 {medians['em1']:.2f} <= em2 {medians['em2']:.2f}: {ok_b}; "
        f"min median {min(medians.values()):.2f} (>=40)",
    )


def test_criterion_9_one_step_speedup_and_lambda_only_cost(study):
    worst_ratio, worst_tok, worst_run = np.inf, None, None
    spread = {}  # token -> (min, median) of its per-run ratios
    for tok in ONESTEP:
        ratios = []
        for run, rows in study[tok].items():
            ratio = study["opt"][run][-1][10] / rows[-1][10]
            ratios.append(ratio)
            if ratio < worst_ratio:
                worst_ratio, worst_tok, worst_run = ratio, tok, run
        spread[tok] = (min(ratios), float(np.median(ratios)))
    ok_speed = worst_ratio >= 10.0
    totals = {tok: sum(rows[-1][10] for rows in study[tok].values()) for tok in study}
    pairs = (
        ("bb_lambda", "bb"),
        ("sgp_lambda", "sgp"),
        ("bfgs_lambda", "bfgs"),
        ("em1", "em"),
        ("em2", "em"),
        ("opt_lambda", "opt"),
    )
    ok_pairs = all(totals[a] <= totals[b] for a, b in pairs)
    _verdict(
        9,
        ok_speed and ok_pairs,
        f"worst per-run opt/one-step time ratio {worst_ratio:.1f} (>=10, {worst_tok} run {worst_run}); "
        f"per-token min/median ratio {', '.join(f'{tok} {lo:.1f}/{med:.1f}' for tok, (lo, med) in spread.items())}; "
        f"lambda-only totals <= full-eta totals: {ok_pairs}",
    )


def test_criterion_10_per_batch_cost_stays_flat(onestep_batch_seconds):
    worst = 0.0
    for tok in ONESTEP:
        med = np.median(onestep_batch_seconds[tok], axis=0)
        k = max(1, med.size // 10)
        first = float(np.median(med[:k]))
        last = float(np.median(med[-k:]))
        worst = max(worst, abs(last / first - 1.0))
    ok = worst < 0.30
    _verdict(10, ok, f"worst first-vs-last decile drift {worst:.1%} (<30%, least of 3 passes per batch)")
