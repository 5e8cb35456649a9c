"""Streaming estimator: initialization, batch updates, determinism."""

from dataclasses import replace

import numpy as np
import pytest

from bayesfir import Hyperparameters, OnlineEstimator
from bayesfir import cli, likelihood, optim, stats
from bayesfir.likelihood import MLContext, _factorize, _mean
from bayesfir.optim import OptimizerConfig, _interior
from bayesfir.simgen import bandlimited_input, random_system, simulate_io
from bayesfir.stats import noise_variance

from oracles import dense_least_squares, dense_regressors, initialize_on_its_own


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
    # n is an integer >= 1: no silent truncation of 2.5 or True, and no
    # n = 0 that fails only once the warmup runs
    for bad, error in ((2.5, TypeError), (True, TypeError), (0, ValueError), (-3, ValueError)):
        with pytest.raises(error):
            OnlineEstimator(bad)
    for good in (1, 8, np.int64(8), np.int32(3)):
        est = OnlineEstimator(good)
        assert est.n == good and type(est.n) is int


def test_em2_batch_from_zero_eta_stays_at_zero():
    # a warmup that ends at eta = (0, 0) must not make the next em2 batch raise
    u, y, _ = make_stream(4, 140, n=20)
    est = OnlineEstimator(20, method="em2")
    est.initialize(u[:100], y[:100])
    est._eta = Hyperparameters(0.0, 0.0)
    snap = est.process_batch(u[100:110], y[100:110])
    assert (snap.eta.lam, snap.eta.beta) == (0.0, 0.0)
    np.testing.assert_array_equal(snap.h, np.zeros(20))


@pytest.mark.parametrize(
    "lam, beta",
    [(0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1e-300, 0.5), (1e300, 0.5), (1.0, 1e-300)],
)
def test_no_token_raises_from_a_boundary_eta(lam, beta):
    # a well-formed finite batch never raises out of process_batch, whatever
    # eta the stream starts from
    rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    system = random_system(rng, 20)
    u = bandlimited_input(rng, 160)
    y = simulate_io(system, u, 5.0, rng)
    warm = replace(OnlineEstimator(20).initialize(u[:100], y[:100]), eta=Hyperparameters(lam, beta))
    for token, (method, lambda_only, mode) in cli.METHOD_TOKENS.items():
        est = OnlineEstimator(20, method=method, mode=mode, lambda_only=lambda_only)
        est.start(warm)
        for start in range(100, 160, 10):
            try:
                est.process_batch(u[start:start + 10], y[start:start + 10])
            except Exception as exc:
                pytest.fail(f"{token} batch at {start} raised {exc!r}")


def test_start_from_a_shared_warmup_matches_own_initialize():
    # one warmup record, optimized by a plain sgp estimator, starts every
    # token; each must run bit for bit as if it had warmed up on its own,
    # through initialize and through the reference that sets its state
    # without a record
    rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    system = random_system(rng, 20)
    u = bandlimited_input(rng, 200)
    y = simulate_io(system, u, 5.0, rng)
    warm = OnlineEstimator(20).initialize(u[:100], y[:100])

    def fingerprint(snap):
        floats = np.array([snap.eta.lam, snap.eta.beta, snap.sigma2])
        return snap.h.tobytes(), floats.tobytes(), snap.nbar

    for token, (method, lambda_only, mode) in cli.METHOD_TOKENS.items():
        shared, own, ref = (
            OnlineEstimator(20, method=method, mode=mode, lambda_only=lambda_only)
            for _ in range(3)
        )
        shared.start(warm)
        assert own.initialize(u[:100], y[:100]).eta == warm.eta
        initialize_on_its_own(ref, u[:100], y[:100])
        for start in range(100, 200, 10):
            ub, yb = u[start:start + 10], y[start:start + 10]
            want = fingerprint(ref.process_batch(ub, yb))
            assert fingerprint(shared.process_batch(ub, yb)) == want, (token, start)
            assert fingerprint(own.process_batch(ub, yb)) == want, (token, start)


def test_start_rejects_a_warm_start_of_another_order_or_config():
    u, y, _ = make_stream(7, 80)
    warm = OnlineEstimator(8).initialize(u, y)
    with pytest.raises(ValueError, match="n=8.*n=6"):
        OnlineEstimator(6).start(warm)
    other = OptimizerConfig(opt_tol=1e-8)
    with pytest.raises(ValueError, match=r"opt_tol=1e-06.*opt_tol=1e-08"):
        OnlineEstimator(8, config=other).start(warm)
    est = OnlineEstimator(8, method="em2")
    est.start(warm)  # any method, mode or lambda_only of the same n and config
    assert est.initialized


def test_requires_initialization():
    est = OnlineEstimator(4)
    assert not est.initialized
    with pytest.raises(RuntimeError):
        est.process_batch(np.ones(2), np.ones(2))


def test_snapshot_bookkeeping():
    u, y, _ = make_stream(0, 150)
    est = OnlineEstimator(8, method="sgp")
    snaps = run_stream(est, u, y, warm=60, nk=10)
    assert [s.batch_index for s in snaps] == list(range(1, 10))
    assert [s.nbar for s in snaps] == [60 + 10 * k for k in range(1, 10)]
    last = snaps[-1]
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
    ctx = MLContext(est._stats, snaps[-1].sigma2)
    np.testing.assert_allclose(
        snaps[-1].h, _mean(_factorize(ctx, est._eta)), rtol=1e-10, atol=1e-12
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
    h_ls, _ = dense_least_squares(u, y, 10)
    ctx = MLContext(est._stats, noise_variance(est._stats))
    h_bayes = _mean(_factorize(ctx, est._eta))
    assert np.linalg.norm(h_bayes) < 0.5 * np.linalg.norm(h_ls)


def test_invalid_batch_leaves_state_untouched():
    u, y, _ = make_stream(6, 140)
    est, twin = OnlineEstimator(6), OnlineEstimator(6)
    for e in (est, twin):
        run_stream(e, u[:130], y[:130], warm=60, nk=10)
    stats_before, eta_before = est._stats, est._eta
    with pytest.raises(ValueError):
        est.process_batch(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        est.process_batch(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
    assert est._stats is stats_before
    assert est._eta is eta_before

    # the next valid batch matches, bit for bit, a twin that never saw the
    # rejected ones
    def fingerprint(snap):
        floats = np.array([snap.eta.lam, snap.eta.beta, snap.sigma2])
        return snap.h.tobytes(), floats.tobytes(), snap.nbar, snap.batch_index

    got = est.process_batch(u[130:], y[130:])
    assert fingerprint(got) == fingerprint(twin.process_batch(u[130:], y[130:]))


def test_single_sample_batches_keep_ridge_guarded_noise():
    # band-limited input leaves R numerically singular after the warmup, so
    # an explicit inverse of R updated sample by sample drifts and inflates
    # sigma2 by up to five decades; every batch must take the ridge-guarded
    # residual of noise_variance
    rng = np.random.default_rng(3)
    system = random_system(rng, 80)
    u = bandlimited_input(rng, 600)
    y = simulate_io(system, u, 5.0, rng)
    est = OnlineEstimator(80, method="sgp")
    est.initialize(u[:100], y[:100])
    for k in range(100, 200):
        snap = est.process_batch(u[k:k + 1], y[k:k + 1])
        want = noise_variance(est._stats)
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


def test_one_factorization_per_batch_and_eta(monkeypatch):
    # band-limited protocol, nk=10: a gradient step factors its interior eta
    # once (value and gradient alike; a boundary eta once more for the value)
    # plus each line-search candidate once; EM factors the old eta for the
    # second moment and the new one for the mean; opt mode pays the
    # fresh_state seed plus its steps, and a lam-only opt run its result
    # alone, its seed and steps reading the frozen-beta eigendecomposition.
    # Every updater hands back the factor at its new eta, so the mean costs
    # nothing more.
    factored = []
    real_factorize = likelihood._factorize

    def counting_factorize(ctx, eta):
        factored.append(eta)
        return real_factorize(ctx, eta)

    steps = []  # (eta, report) of every gradient step
    real_step = optim.gradient_step

    def recording_step(ctx, state, eta, *args):
        steps.append((eta, real_step(ctx, state, eta, *args)))
        return steps[-1][1]

    monkeypatch.setattr(likelihood, "_factorize", counting_factorize)
    monkeypatch.setattr(optim, "gradient_step", recording_step)
    cfg = OptimizerConfig()

    def step_cost(eta, rep):
        if rep.gamma > 0.0:
            candidates = rep.backtracks + 1
        elif rep.backtracks == cfg.max_backtracks:
            candidates = cfg.max_backtracks + 1
        else:  # ascent direction: no line search at all
            candidates = 0
        return (1 if _interior(eta) == eta else 2) + candidates

    for n, method, lambda_only, mode in (
        (80, "bb", False, "onestep"), (80, "sgp", False, "onestep"),
        (80, "bfgs", False, "onestep"), (80, "sgp", True, "onestep"),
        (80, "em", False, "onestep"), (80, "em1", False, "onestep"),
        (80, "em2", False, "onestep"), (20, "sgp", False, "opt"),
        (20, "sgp", True, "opt"),
    ):
        rng = np.random.default_rng(3)
        warm, nk = 100, 10
        system = random_system(rng, n)
        u = bandlimited_input(rng, warm + 20 * nk)
        y = simulate_io(system, u, 5.0, rng)
        est = OnlineEstimator(n, method=method, mode=mode, lambda_only=lambda_only)
        est.initialize(u[:warm], y[:warm])
        for start in range(warm, u.size, nk):
            factored.clear()
            steps.clear()
            snap = est.process_batch(u[start:start + nk], y[start:start + nk])
            if method.startswith("em"):
                want = 2
            elif (mode, lambda_only) == ("opt", True):
                want = 1
            else:
                want = (mode == "opt") + sum(step_cost(eta, rep) for eta, rep in steps)
            assert len(factored) == want, (method, lambda_only, mode, snap.batch_index, len(factored), want)
            ctx = MLContext(est._stats, snap.sigma2)
            np.testing.assert_array_equal(snap.h, _mean(real_factorize(ctx, snap.eta)))


def test_em_variants_survive_large_output_scale():
    # the benchmark's stream (3, 0) with y scaled up: the second moment's
    # sigma2 * d^2 must not overflow, or em sends lam to 0 (h = 0) and em2
    # raises on a NaN lam; filterwarnings = error catches any RuntimeWarning
    rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    system = random_system(rng, 20)
    u = bandlimited_input(rng, 150)
    y = simulate_io(system, u, 5.0, rng)
    for scale in (1e80, 1e150):
        for method in ("em", "em1", "em2"):
            snaps = run_stream(OnlineEstimator(20, method=method), u, scale * y, warm=100, nk=10)
            assert all(s.h.any() for s in snaps), (scale, method)


def test_lambda_only_em_holds_where_warmup_leaves_beta_at_one():
    # the benchmark's stream (3, 0) with its inputs scaled by 1e-6 after
    # simulation: the warmup ends at beta = 1, where the kernel inverse and
    # so em1/em2's lam* do not exist, and every batch holds eta instead of
    # raising, so the stream runs to the end
    rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
    system = random_system(rng, 80)
    u = bandlimited_input(rng, 1100)
    y = simulate_io(system, u, 5.0, rng)
    u = 1e-6 * u
    for method in ("em1", "em2"):
        est = OnlineEstimator(80, method=method)
        est.initialize(u[:100], y[:100])
        warm = est._eta
        assert warm.beta == 1.0
        snaps = run_stream(est, u, y, warm=100, nk=10)
        assert len(snaps) == 100
        assert all(s.eta == warm for s in snaps)
        ctx = MLContext(est._stats, snaps[-1].sigma2)
        np.testing.assert_array_equal(snaps[-1].h, _mean(_factorize(ctx, warm)))


class _CountingLapack:
    """Stands in for bayesfir._lapack in one module, counting dpotrf, dtrtri and dsyevd calls."""

    def __init__(self, real):
        self.real = real
        self.clear()

    def clear(self):
        self.dpotrf_info = []  # info of every dpotrf call, in order
        self.dtrtri_calls = 0
        self.dsyevd_calls = 0

    def dpotrf(self, *args, **kwargs):
        out = self.real.dpotrf(*args, **kwargs)
        self.dpotrf_info.append(out[1])
        return out

    def dtrtri(self, *args, **kwargs):
        self.dtrtri_calls += 1
        return self.real.dtrtri(*args, **kwargs)

    def dsyevd(self, *args, **kwargs):
        self.dsyevd_calls += 1
        return self.real.dsyevd(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.real, name)


def test_lapack_calls_per_batch(monkeypatch):
    # load-independent cost check for every one-step token on the benchmark
    # protocol (n = 80, nk = 10): sigma2 takes one dpotrf of the augmented
    # Gram matrix (one more when its R block needs the ridge); a gradient
    # batch factors its eta once, each rejected candidate once and the
    # accepted one once (one more to value a boundary eta); an EM batch
    # factors the old and the new eta, or the old one only when it holds;
    # dtrtri runs at most once, never for em1; no one-step batch calls
    # dsyevd.  A lam-only opt batch eigendecomposes once for its
    # fresh_state seed and every step, and factors its result alone: one
    # dpotrf, no dtrtri
    in_stats = _CountingLapack(stats.lapack)
    in_likelihood = _CountingLapack(likelihood.lapack)
    monkeypatch.setattr(stats, "lapack", in_stats)
    monkeypatch.setattr(likelihood, "lapack", in_likelihood)
    reports = []
    real_step, real_em = optim.gradient_step, optim.em_step

    def recording_step(ctx, state, eta, *args):
        reports.append((eta, real_step(ctx, state, eta, *args)))
        return reports[-1][1]

    def recording_em(ctx, eta, *args):
        reports.append((eta, real_em(ctx, eta, *args)))
        return reports[-1][1]

    monkeypatch.setattr(optim, "gradient_step", recording_step)
    monkeypatch.setattr(optim, "em_step", recording_em)
    n, warm, nk = 80, 100, 10
    rng = np.random.default_rng(3)
    system = random_system(rng, n)
    u = bandlimited_input(rng, warm + 12 * nk)
    y = simulate_io(system, u, 5.0, rng)
    accepted = 0
    for method, lambda_only, mode in (
        ("bb", False, "onestep"), ("sgp", False, "onestep"), ("bfgs", False, "onestep"),
        ("em", False, "onestep"), ("em1", False, "onestep"), ("em2", False, "onestep"),
        ("bb", True, "onestep"), ("sgp", True, "onestep"), ("bfgs", True, "onestep"),
        ("bb", True, "opt"), ("sgp", True, "opt"), ("bfgs", True, "opt"),
    ):
        est = OnlineEstimator(n, method=method, mode=mode, lambda_only=lambda_only)
        est.initialize(u[:warm], y[:warm])
        for start in range(warm, u.size, nk):
            for counter in (in_stats, in_likelihood):
                counter.clear()
            reports.clear()
            est.process_batch(u[start:start + nk], y[start:start + nk])
            where = (method, lambda_only, mode, start)
            ridge = 0 < in_stats.dpotrf_info[0] <= n
            assert len(in_stats.dpotrf_info) == 1 + ridge, where
            assert in_stats.dtrtri_calls == in_stats.dsyevd_calls == 0, where
            assert in_likelihood.dtrtri_calls == (0 if method == "em1" or mode == "opt" else 1), where
            assert in_likelihood.dsyevd_calls == (mode == "opt"), where
            if mode == "opt":
                assert len(reports) >= 1, where
                assert len(in_likelihood.dpotrf_info) == 1, where
                continue
            (eta, rep), = reports
            if method.startswith("em"):
                want = 1 if rep.gamma == 0.0 else 2
            elif rep.gamma > 0.0:
                want = 1 + rep.backtracks + 1 + (_interior(eta) != eta)
                accepted += 1
            else:
                continue  # null steps are covered by test_one_factorization_per_batch_and_eta
            assert len(in_likelihood.dpotrf_info) == want, where
    assert accepted >= 50
