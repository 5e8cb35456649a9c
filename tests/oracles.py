"""Independent reference implementations the tests compare against.

Everything here is written the plain, obvious way (double loops, dense
N x N matrices, numpy.linalg) so a bug in the package cannot hide in a
shared code path.
"""

import numpy as np
from scipy.signal import firwin, lfilter

from bayesfir.kernel import Hyperparameters
from bayesfir.likelihood import MLContext
from bayesfir.stats import Batch, SufficientStats, ingest


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
    x = np.linalg.solve(stats.R + ridge * np.eye(stats.n), stats.ytilde)
    return stats.ybar - float(stats.ytilde @ x)


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
    mean = np.linalg.solve(ctx.stats.R + ctx.sigma2 * kinv, ctx.stats.ytilde)
    cov = np.linalg.inv(ctx.stats.R / ctx.sigma2 + kinv)
    return mean, cov


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


def random_eta(rng, lam_scale=1.0):
    """Interior hyperparameters on a log-uniform lambda grid."""
    lam = float(lam_scale * 10.0 ** rng.uniform(-1.5, 1.5))
    beta = float(rng.uniform(0.3, 0.95))
    return Hyperparameters(lam, beta)
