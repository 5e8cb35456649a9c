"""Independent reference implementations the tests compare against.

Everything here is written the plain, obvious way (double loops, dense
N x N matrices, numpy.linalg) so a bug in the package cannot hide in a
shared code path.
"""

import mpmath
import numpy as np
from scipy.signal import firwin, lfilter

from bayesfir.cli import METHOD_TOKENS
from bayesfir.estimator import BETA0, OnlineEstimator
from bayesfir.kernel import Hyperparameters
from bayesfir.likelihood import MLContext
from bayesfir.optim import TAU0, OptimizerState, opt_until_convergence
from bayesfir.simgen import bandlimited_input, fit, random_system, simulate_io
from bayesfir.stats import Batch, SufficientStats, ingest, noise_variance


def dense_tc_kernel(n, lam, beta):
    """lam * beta**max(i, j) with 1-based indices, by explicit double loop."""
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = lam * beta ** max(i + 1, j + 1)
    return k


def unit_kernel_logdet(n, beta):
    """log det of beta**max(i, j) in closed form: (n(n+1)/2) ln beta + (n-1) ln(1-beta)."""
    return 0.5 * n * (n + 1) * np.log(beta) + (n - 1) * np.log1p(-beta)


def unit_kernel_inverse_bands(n, beta):
    """(diag, offdiag) of the tridiagonal inverse of beta**max(i, j), 0 < beta < 1.

    The kernel is a reversed min-type matrix, so its inverse is exactly
    tridiagonal:

        inv[1, 1]     = 1 / (beta * (1 - beta))          (1 / beta when n == 1)
        inv[i, i]     = (1 + beta) / (beta**i * (1 - beta))   for 1 < i < n
        inv[n, n]     = 1 / (beta**n * (1 - beta))
        inv[i, i + 1] = -1 / (beta**i * (1 - beta))

    test_kernel checks it against the dense inverse.
    """
    if n == 1:
        return np.array([1.0 / beta]), np.zeros(0)
    scale = 1.0 / ((1.0 - beta) * beta ** np.arange(1, n + 1, dtype=float))
    diag = (1.0 + beta) * scale
    diag[0] = scale[0]
    diag[-1] = scale[-1]
    return diag, -scale[:-1]


def gram_r(stats):
    """R = Phi' Phi: the leading n x n block of the stored augmented Gram matrix."""
    return stats.gram[: stats.n, : stats.n]


def gram_ytilde(stats):
    """ytilde = Phi' Y: the last column of the augmented Gram matrix, above ybar."""
    return stats.gram[: stats.n, stats.n]


def stats_from_moments(n, R, ytilde, ybar, nbar, history):
    """SufficientStats holding R, ytilde and ybar, with C = U'RU and U'ytilde by cumulative sums."""
    R = np.asarray(R, dtype=float)
    ytilde = np.asarray(ytilde, dtype=float)
    gram = np.empty((n + 1, n + 1))
    gram[:n, :n] = R
    gram[:n, n] = gram[n, :n] = ytilde
    gram[n, n] = ybar
    c = np.cumsum(np.cumsum(R, axis=0), axis=1)
    return SufficientStats(n, gram, c, np.cumsum(ytilde), nbar, np.asarray(history, dtype=float))


def dense_regressors(u, n):
    """Regressor matrix Phi[t, i] = u[t - i], zero before the record starts."""
    u = np.asarray(u, dtype=float)
    phi = np.zeros((u.size, n))
    for t in range(u.size):
        for i in range(n):
            if t - i >= 0:
                phi[t, i] = u[t - i]
    return phi


def dense_least_squares(u, y, n):
    """(h, residual sum of squares) of the FIR least-squares fit, by numpy.linalg.lstsq."""
    phi = dense_regressors(u, n)
    h = np.linalg.lstsq(phi, y, rcond=None)[0]
    r = y - phi @ h
    return h, float(r @ r)


def ridge_residual(stats, ridge):
    """ybar - ytilde' (R + ridge I)^-1 ytilde by a dense solve."""
    x = np.linalg.solve(gram_r(stats) + ridge * np.eye(stats.n), gram_ytilde(stats))
    return stats.ybar - float(gram_ytilde(stats) @ x)


def dense_neg_log_ml(u, y, n, lam, beta, sigma2):
    """Negative log evidence (2*pi constant dropped) from the N x N covariance."""
    phi = dense_regressors(u, n)
    cov = phi @ dense_tc_kernel(n, lam, beta) @ phi.T + sigma2 * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0.0
    y = np.asarray(y, dtype=float)
    return float(y @ np.linalg.solve(cov, y)) + float(logdet)


def dense_posterior(ctx, eta):
    """Posterior mean (R + sigma2 K^-1)^-1 ytilde and covariance (R/sigma2 + K^-1)^-1.

    Formed with numpy.linalg from the explicit kernel inverse, so eta must be
    interior.
    """
    kinv = np.linalg.inv(dense_tc_kernel(ctx.stats.n, eta.lam, eta.beta))
    mean = np.linalg.solve(gram_r(ctx.stats) + ctx.sigma2 * kinv, gram_ytilde(ctx.stats))
    cov = np.linalg.inv(gram_r(ctx.stats) / ctx.sigma2 + kinv)
    return mean, cov


def root_diagonal(m):
    """diag(U^-1 m U^-T), U the upper-triangular all-ones matrix, by numpy.linalg.inv."""
    uinv = np.linalg.inv(np.triu(np.ones(m.shape)))
    return np.diag(uinv @ m @ uinv.T).copy()


def dense_root_moment(ctx, eta):
    """diag(U^-1 (P + h h') U^-T) from dense_posterior's mean h and covariance P."""
    mean, cov = dense_posterior(ctx, eta)
    return root_diagonal(cov + np.outer(mean, mean))


def block_weight_derivative(n, beta):
    """d/dbeta of kernel.tc_block_weights by the block decomposition of beta**max(i, j).

    Any matrix a[max(i, j)] splits into sum_m (a_m - a_{m+1}) B_m + a_n B_n,
    B_m the leading m-by-m block of ones; here a_m = m * beta**(m - 1).
    """
    m = np.arange(1, n + 1, dtype=float)
    a = m * beta ** (m - 1.0)
    return np.append(a[:-1] - a[1:], a[-1])


def block_basis_split(ctx, f):
    """Sign-split gradient (V, U) at the factor f, assembled over the blocks B_m.

    The derivative kernel dK/dbeta = lam sum_m c'_m B_m has weights of either
    sign (block_weight_derivative).  Each block contributes the trace
    Tr(Sigma^-1 Phi B_m Phi') = (C_mm - ||G e_m||^2) / sigma2, G = S^-1 diag(d) C,
    and the quadratic q_m^2, q = U' Phi' Sigma^-1 y = (U' ytilde - C (d * S^-T t)) / sigma2,
    routed to V or U by the weight's sign.  The lam components are
    (n - sigma2 ||S^-1||_F^2) / lam and ||d * q||^2 / lam.  f.eta must be
    interior.  Both subtractions lose digits at high SNR, which is why the
    package reads the same numbers in the root basis instead.
    """
    stats, s2 = ctx.stats, ctx.sigma2
    lam, beta = f.eta.lam, f.eta.beta
    sinv = np.linalg.inv(f.s)
    z = f.d * np.linalg.solve(f.s.T, f.t)
    q = (stats.cum_y - stats.C @ z) / s2
    v_lam = max(stats.n - s2 * float(np.sum(sinv * sinv)), 0.0) / lam
    u_lam = float(np.sum((f.d * q) ** 2)) / lam
    g = sinv @ (f.d[:, None] * stats.C)
    tv = np.maximum(np.diag(stats.C) - np.sum(g * g, axis=0), 0.0)
    c = block_weight_derivative(stats.n, beta)
    pos, neg = np.maximum(c, 0.0), np.maximum(-c, 0.0)
    v_beta = lam * (float(pos @ tv) / s2 + float(neg @ (q * q)))
    u_beta = lam * (float(neg @ tv) / s2 + float(pos @ (q * q)))
    return (v_lam, v_beta), (u_lam, u_beta)


def extended_precision_evaluation(ctx, lam, beta, dps=40):
    """(value, gradient, mean, Z) at (lam, beta), in mpmath at dps digits, as floats.

    The compressed likelihood of the likelihood module's docstring, evaluated
    on the statistics the package reads -- stats.C, stats.cum_y, ybar, nbar
    and sigma2, each converted exactly from its double -- so what differs
    from the package is the package's own rounding, not the statistics'
    (the stored C and the U'RU of the stored R differ by about 1e-15
    relative).  With A = sigma2 I + (d d') * C and x = A^-1 (d * cum_y):
    value (nbar - n) log sigma2 + log det A + (ybar - (d * cum_y)' x) / sigma2,
    gradient by mpmath.diff of that value in lam and in beta, posterior mean
    U (d * x), and Z = sigma2 d^2 * diag(A^-1) + (d * x)^2.  (lam, beta) must
    be interior.
    """
    n = ctx.stats.n
    with mpmath.workdps(dps):
        cmat = mpmath.matrix(ctx.stats.C.tolist())
        cum_y = [mpmath.mpf(v) for v in ctx.stats.cum_y]
        s2, ybar = mpmath.mpf(ctx.sigma2), mpmath.mpf(ctx.stats.ybar)

        def inner(lm, bt):
            c = [bt**m * (1 - bt) for m in range(1, n)] + [bt**n]
            d = [mpmath.sqrt(lm * cm) for cm in c]
            a = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    a[i, j] = d[i] * cmat[i, j] * d[j]
                a[i, i] += s2
            return a, d, mpmath.matrix([di * yi for di, yi in zip(d, cum_y)])

        def value(lm, bt):
            a, _, b = inner(lm, bt)
            s = mpmath.cholesky(a)
            logdet = 2 * mpmath.fsum(mpmath.log(s[i, i]) for i in range(n))
            quad = (b.T * mpmath.lu_solve(a, b))[0]
            return (ctx.stats.nbar - n) * mpmath.log(s2) + logdet + (ybar - quad) / s2

        lm, bt = mpmath.mpf(lam), mpmath.mpf(beta)
        grad = [mpmath.diff(value, (lm, bt), order) for order in ((1, 0), (0, 1))]
        a, d, b = inner(lm, bt)
        ainv = mpmath.inverse(a)
        root = [d[i] * (ainv * b)[i] for i in range(n)]
        mean = [mpmath.fsum(root[i:]) for i in range(n)]
        z = [s2 * d[i] ** 2 * ainv[i, i] + root[i] ** 2 for i in range(n)]
        return (
            float(value(lm, bt)),
            np.array([float(g) for g in grad]),
            np.array([float(h) for h in mean]),
            np.array([float(zi) for zi in z]),
        )


def impulse_from_transfer(b, a, n):
    """First n impulse-response taps of b(q)/a(q) by polynomial long division."""
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    out = np.zeros(n)
    for t in range(n):
        acc = b[t] if t < b.size else 0.0
        for k in range(1, min(t, a.size - 1) + 1):
            acc -= a[k] * out[t - k]
        out[t] = acc / a[0]
    return out


def lfilter_impulse_response(b, a, n):
    """First n impulse-response taps by scipy.signal.lfilter."""
    imp = np.zeros(n)
    imp[0] = 1.0
    return lfilter(b, a, imp)


def lfilter_bandlimited_input(rng, n_samples):
    """simgen.bandlimited_input on scipy.signal's firwin and lfilter."""
    white = rng.standard_normal(n_samples)
    shaped = lfilter(firwin(64, 0.8), 1.0, white)
    scale = float(np.std(shaped))
    return shaped / scale if scale > 0.0 else shaped


def golden_min(fn, lo, hi, tol, max_evals=100):
    """Golden-section minimum of fn on [lo, hi]; returns the best evaluated (x, fx).

    The reference that em's grid-and-Newton beta search must match or beat.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    evals = 2
    while hi - lo > tol and evals < max_evals:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
        evals += 1
    return (x1, f1) if f1 <= f2 else (x2, f2)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def random_instance(rng, n, nbar, snr=10.0):
    """A small identifiable problem: white input, decaying FIR, Gaussian noise.

    Needs nbar > n so the noise-variance estimate is defined.
    """
    u = rng.standard_normal(nbar)
    h0 = rng.standard_normal(n) * np.exp(-0.4 * np.arange(n))
    y0 = dense_regressors(u, n) @ h0
    noise_var = float(np.var(y0)) / snr if np.var(y0) > 0.0 else 1.0
    y = y0 + np.sqrt(noise_var) * rng.standard_normal(nbar)
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    sigma2 = dense_least_squares(u, y, n)[1] / (nbar - n)
    return MLContext(stats, sigma2), u, y


def stream_context(k, n, n_samples, snr):
    """Statistics and noise variance of the benchmark protocol's stream (3, k).

    A random system, band-limited input and output noise at the SNR, drawn
    from SeedSequence((3, k)) in simgen's order.
    """
    rng = np.random.default_rng(np.random.SeedSequence((3, k)))
    system = random_system(rng, n)
    u = bandlimited_input(rng, n_samples)
    y = simulate_io(system, u, snr, rng)
    stats = ingest(SufficientStats.empty(n), Batch(u, y))
    return MLContext(stats, noise_variance(stats))


def random_eta(rng, lam_scale=1.0):
    """Interior hyperparameters on a log-uniform lambda grid."""
    lam = float(lam_scale * 10.0 ** rng.uniform(-1.5, 1.5))
    beta = float(rng.uniform(0.3, 0.95))
    return Hyperparameters(lam, beta)


def eta_array(eta):
    """Hyperparameters as the array [lam, beta]."""
    return np.array([eta.lam, eta.beta])


def eta_from_array(arr):
    """Hyperparameters from an array [lam, beta]."""
    lam, beta = np.asarray(arr, dtype=float)
    return Hyperparameters(lam, beta)


def initialize_on_its_own(est, u, y):
    """Warm ``est`` up by setting its state directly, with no WarmStart record and no start().

    Ingest the chunk, take sigma2, run SGP to convergence from
    (ybar / (nbar n), BETA0), and seed the secant pair on the estimator's
    own active coordinates.
    """
    stats = ingest(SufficientStats.empty(est.n), Batch(u, y))
    sigma2 = noise_variance(stats)
    eta0 = Hyperparameters(stats.ybar / (stats.nbar * est.n), BETA0)
    rep, _ = opt_until_convergence(MLContext(stats, sigma2), eta0, "sgp", est.config)
    active = (0,) if est.lambda_only else (0, 1)
    est._stats, est._eta, est._batch_index = stats, rep.eta_new, 0
    est._opt_state = OptimizerState(
        eta_prev=rep.state.eta_prev,
        grad_prev=tuple(rep.state.grad_prev[i] for i in active),
        tau=TAU0,
        active=active,
    )


def own_warmup_trace(u, y, h_true, token, xcfg, warm, run_id, mode_override=None):
    """cli.run_trace's rows from an estimator that optimizes its own warmup.

    Takes run_trace's arguments but reads only the optimizer constants from
    ``warm``: every method warms up on its own (``initialize_on_its_own``),
    so the shared warm start can be checked against it.
    """
    method, lam_only, mode = METHOD_TOKENS[token]
    if mode_override == "opt":
        mode = "opt"
    est = OnlineEstimator(xcfg.n, method=method, mode=mode, lambda_only=lam_only, config=warm.config)
    initialize_on_its_own(est, u[: xcfg.n_warmup], y[: xcfg.n_warmup])
    rows = []
    cumulative = 0.0
    for start in range(xcfg.n_warmup, len(u), xcfg.n_k):
        snap = est.process_batch(u[start : start + xcfg.n_k], y[start : start + xcfg.n_k])
        cumulative += snap.seconds
        rows.append([
            run_id, token, int(lam_only), snap.batch_index, snap.nbar,
            fit(h_true, snap.h) if h_true is not None else None,
            snap.eta.lam, snap.eta.beta, snap.sigma2, snap.seconds, cumulative,
        ])
    return rows
