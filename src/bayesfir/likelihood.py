"""Marginal likelihood, gradient split, and posterior moments in compressed form.

All three quantities are functions of the sufficient statistics only, never of
the raw N-sample data, so each evaluation costs O(n^3) regardless of how much
data has streamed past.  The TC kernel's closed-form square root
L = U diag(d), d = sqrt(lam * c) (see kernel.tc_block_weights), turns every
kernel product into a weighting of two per-batch constants:

    L' R L = (d d') * C,   C = U' R U = cumsum(cumsum(R, 0), 1),
    L' ytilde = d * cumsum(ytilde).

With S the lower Cholesky factor of sigma2 I + (d d') * C, the negative log
marginal likelihood (2 pi constant dropped) is

    L(eta) = (nbar - n) log sigma2 + 2 log det S + (ybar - ||t||^2) / sigma2,
    t = S^-1 (d * cumsum(ytilde)),

which agrees exactly with the dense evaluation y' Sigma^-1 y + log det Sigma,
Sigma = Phi K Phi' + sigma2 I.  The root is exact on the whole closed box, so
the formula needs no fallback for semidefinite K (lam = 0 gives S = sigma I
and the degenerate limit nbar log sigma2 + ybar / sigma2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy import linalg as sla

from .kernel import Hyperparameters, dbeta_block_weights, tc_block_weights
from .stats import SufficientStats


class NonFiniteLikelihoodError(ArithmeticError):
    """Likelihood evaluation produced a non-finite intermediate."""


@dataclass(frozen=True)
class MLContext:
    """Sufficient statistics plus the noise variance the likelihood conditions on.

    Also holds the two per-batch constants every evaluation weights:
    ``cum_r`` = U' R U and ``cum_y`` = U' ytilde.
    """

    stats: SufficientStats
    sigma2: float
    cum_r: np.ndarray = field(init=False, repr=False, compare=False)
    cum_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s2 = float(self.sigma2)
        if not np.isfinite(s2) or s2 <= 0.0:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "cum_r", np.cumsum(np.cumsum(self.stats.R, axis=0), axis=1))
        object.__setattr__(self, "cum_y", np.cumsum(self.stats.ytilde))


@dataclass(frozen=True)
class GradientSplit:
    """Gradient of the negative log marginal likelihood as grad = V - U.

    V collects the positive (log-determinant side) parts and U the
    nonnegative (data fit side) parts; scaled projected methods use V alone
    to build their diagonal metric.
    """

    V: np.ndarray
    U: np.ndarray

    @property
    def grad(self) -> np.ndarray:
        return self.V - self.U


class PosteriorMoments(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray


class _Factors(NamedTuple):
    d: np.ndarray  # root weights, K = U diag(d^2) U'
    s: np.ndarray  # lower Cholesky of sigma2 I + (d d') * cum_r
    t: np.ndarray  # S^-1 (d * cum_y)


def _factorize(ctx: MLContext, eta: Hyperparameters) -> _Factors:
    d = np.sqrt(eta.lam * tc_block_weights(ctx.stats.n, eta.beta))
    # overflow at extreme eta is expected while an optimizer probes the box
    # boundary; the non-finite product fails the inner factorization below
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.outer(d, d) * ctx.cum_r
    a[np.diag_indices_from(a)] += ctx.sigma2
    try:
        s = sla.cholesky(a, lower=True)
    except (sla.LinAlgError, ValueError) as exc:
        raise NonFiniteLikelihoodError(
            f"inner factor failed at eta=({eta.lam!r}, {eta.beta!r}): {exc}"
        ) from exc
    t = sla.solve_triangular(s, d * ctx.cum_y, lower=True)
    return _Factors(d=d, s=s, t=t)


def _mean(f: _Factors) -> np.ndarray:
    """Posterior mean L S^-T t = U (d * S^-T t): a reversed cumulative sum, O(n^2) given S."""
    z = f.d * sla.solve_triangular(f.s, f.t, lower=True, trans="T")
    return np.cumsum(z[::-1])[::-1]


def neg_log_ml(ctx: MLContext, eta: Hyperparameters) -> float:
    """Negative log marginal likelihood of the streamed data at eta."""
    stats = ctx.stats
    f = _factorize(ctx, eta)
    logdet_s2 = 2.0 * float(np.sum(np.log(np.diag(f.s))))
    quad = (stats.ybar - float(f.t @ f.t)) / ctx.sigma2
    val = (stats.nbar - stats.n) * np.log(ctx.sigma2) + logdet_s2 + quad
    if not np.isfinite(val):
        raise NonFiniteLikelihoodError(
            f"non-finite likelihood at eta=({eta.lam!r}, {eta.beta!r})"
        )
    return float(val)


def _lambda_split_terms(ctx: MLContext, eta: Hyperparameters, f: _Factors):
    """(V_lam, U_lam, q): the lam gradient pieces plus q = U' v.

    Uses Tr(Sigma^-1 Phi K_b Phi') = (n - sigma2 ||S^-1||_F^2) / lam, an exact
    consequence of L'RL = SS' - sigma2 I, and the data-side quadratic
    U_lam = ||L' v||^2 / lam = ||d * q||^2 / lam with v = Phi' Sigma^-1 y, so
    both pieces are nonnegative by construction.
    """
    s2 = ctx.sigma2
    n = ctx.stats.n
    sinv = sla.solve_triangular(f.s, np.eye(n), lower=True)
    ssq = float(np.sum(sinv * sinv))
    v_lam = max(n - s2 * ssq, 0.0) / eta.lam
    # v = (ytilde - R h) / sigma2 with h the posterior mean
    q = np.cumsum(ctx.stats.ytilde - ctx.stats.R @ _mean(f)) / s2
    u_lam = float(np.sum((f.d * q) ** 2)) / eta.lam
    return v_lam, u_lam, q


def grad_neg_log_ml(ctx: MLContext, eta: Hyperparameters) -> GradientSplit:
    """Sign-split gradient (V, U) of neg_log_ml at an interior eta.

    The beta component is assembled blockwise: the derivative kernel
    d K_b / d beta decomposes over leading-block indicators with weights of
    either sign (kernel.dbeta_block_weights), and each block contributes a
    nonnegative trace and a nonnegative quadratic term, routed to V or U
    according to the weight's sign so that V > 0, U >= 0 and grad = V - U.
    """
    if eta.lam <= 0.0 or not 0.0 < eta.beta < 1.0:
        raise ValueError(
            f"gradient needs interior eta (lam > 0, 0 < beta < 1), got ({eta.lam!r}, {eta.beta!r})"
        )
    s2 = ctx.sigma2
    f = _factorize(ctx, eta)
    v_lam, u_lam, q = _lambda_split_terms(ctx, eta, f)

    # Per-block trace terms Tr(Sigma^-1 Phi B_m Phi') = (C_mm - ||G e_m||^2) / sigma2
    # with G = S^-1 L' R U = S^-1 (d * C), and quadratics (v' B_m v) = q_m^2.
    c = dbeta_block_weights(ctx.stats.n, eta.beta)
    g = sla.solve_triangular(f.s, f.d[:, None] * ctx.cum_r, lower=True)
    colsq = np.einsum("ij,ij->j", g, g)
    tv = np.maximum(ctx.cum_r.diagonal() - colsq, 0.0) / s2
    tu = q * q

    pos = c > 0.0
    cpos = np.where(pos, c, 0.0)
    cneg = np.where(pos, 0.0, -c)
    v_beta = eta.lam * (cpos @ tv + cneg @ tu)
    u_beta = eta.lam * (cneg @ tv + cpos @ tu)

    split = GradientSplit(V=np.array([v_lam, v_beta]), U=np.array([u_lam, u_beta]))
    if not np.all(np.isfinite(split.V)) or not np.all(np.isfinite(split.U)):
        raise NonFiniteLikelihoodError(
            f"non-finite gradient at eta=({eta.lam!r}, {eta.beta!r})"
        )
    return split


def grad_lambda_only(ctx: MLContext, eta: Hyperparameters) -> tuple:
    """(V_lam, U_lam) without the beta machinery; the cheap path for frozen beta."""
    if eta.lam <= 0.0 or not 0.0 < eta.beta < 1.0:
        raise ValueError(
            f"gradient needs interior eta (lam > 0, 0 < beta < 1), got ({eta.lam!r}, {eta.beta!r})"
        )
    f = _factorize(ctx, eta)
    v_lam, u_lam, _ = _lambda_split_terms(ctx, eta, f)
    if not (np.isfinite(v_lam) and np.isfinite(u_lam)):
        raise NonFiniteLikelihoodError(
            f"non-finite gradient at eta=({eta.lam!r}, {eta.beta!r})"
        )
    return v_lam, u_lam


def posterior_mean(ctx: MLContext, eta: Hyperparameters) -> np.ndarray:
    """Posterior mean (R + sigma2 K^-1)^-1 ytilde; zero at lam = 0."""
    return _mean(_factorize(ctx, eta))


def posterior_moments(ctx: MLContext, eta: Hyperparameters) -> PosteriorMoments:
    """Posterior mean and covariance (R/sigma2 + K^-1)^-1.

    Evaluated through the square root of K, so lam = 0 cleanly returns the
    degenerate prior's answer: zero mean and zero covariance.  The covariance
    costs O(n^3); callers that need the mean alone use posterior_mean.
    """
    f = _factorize(ctx, eta)
    # W = S^-1 L' = S^-1 diag(d) U': scale the columns of S^-1, then U' on the
    # right is a reversed cumulative sum along each row
    w = sla.solve_triangular(f.s, np.diag(f.d), lower=True)
    w = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
    return PosteriorMoments(mean=_mean(f), cov=ctx.sigma2 * (w.T @ w))
