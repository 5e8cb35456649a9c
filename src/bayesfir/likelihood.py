"""Marginal likelihood, gradient split, posterior mean and EM second moment.

All four are functions of the sufficient statistics only, never of the raw
N-sample data, so each evaluation costs O(n^3) regardless of how much data
has streamed past.  The TC kernel's closed-form square root
L = U diag(d), d = sqrt(lam * c) (see kernel.tc_block_weights), turns every
kernel product into a weighting of two per-batch constants:

    L' R L = (d d') * C,   C = U' R U (stats.SufficientStats.C),
    L' ytilde = d * cum_y,  cum_y = U' ytilde (stats.SufficientStats.cum_y).

With S the lower Cholesky factor of sigma2 I + (d d') * C, the negative log
marginal likelihood (2 pi constant dropped) is

    L(eta) = (nbar - n) log sigma2 + 2 log det S + (ybar - ||t||^2) / sigma2,
    t = S^-1 (d * cum_y),

which agrees exactly with the dense evaluation y' Sigma^-1 y + log det Sigma,
Sigma = Phi K Phi' + sigma2 I.  The root is exact on the whole closed box, so
the formula needs no fallback for semidefinite K (lam = 0 gives S = sigma I
and the degenerate limit nbar log sigma2 + ybar / sigma2).

The posterior is read in the same root basis.  Its mean is
h = U (d * S^-T t), and the EM M-step reads the second moment M = P + h h'
only through Z = diag(U^-1 M U^-T) (_root_moment), because in that basis
the unit kernel's inverse is diagonal (kernel module docstring).

There is one factorization per (batch, eta): ``_factorize`` builds S and t,
together with log det S S' and ||t||^2, and the value (O(1) from those two
numbers), the gradient, the posterior mean and the EM second moment are all
read off that one factor.  The updaters in ``optim`` hand it along: the
gradient's factor gives the value at the same eta, and every updater returns
the factor at its new eta (the accepted line-search candidate, or the EM
update), from which the estimator forms its posterior mean, so a batch never
factors the same matrix twice.  This module has no eta-level wrappers;
callers factor once and read what they need.  LAPACK is called directly
through scipy's Fortran wrappers dpotrf, dtrtrs and dtrtri, which
``_lapack`` loads without scipy.linalg's package.  A finiteness check on
the factor's log determinant and ||t||^2 stands in for scipy's input
validation, and each n-by-n temporary is built once: the factor keeps
diag(d) C, the left half of (d d') * C, which the beta gradient reads again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack as lapack
from .kernel import Hyperparameters, dbeta_block_weights, tc_block_weights
from .stats import SufficientStats


class NonFiniteLikelihoodError(ArithmeticError):
    """Likelihood evaluation produced a non-finite intermediate."""


@dataclass(frozen=True)
class MLContext:
    """Sufficient statistics plus the noise variance the likelihood conditions on."""

    stats: SufficientStats
    sigma2: float

    def __post_init__(self):
        s2 = float(self.sigma2)
        if not math.isfinite(s2) or s2 <= 0.0:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2!r}")
        object.__setattr__(self, "sigma2", s2)


class _Factors(NamedTuple):
    eta: Hyperparameters
    d: np.ndarray  # root weights, K = U diag(d^2) U'
    dc: np.ndarray  # diag(d) C
    s: np.ndarray  # lower Cholesky of sigma2 I + (d d') * C, Fortran order, upper zeroed
    t: np.ndarray  # S^-1 (d * cum_y)
    logdet: float  # log det (S S')
    tt: float  # t't


def _factorize(ctx: MLContext, eta: Hyperparameters) -> _Factors:
    """The one O(n^3) step of every evaluation at eta.

    Overflow at extreme eta is expected while an optimizer probes the box
    boundary.  A non-finite entry of the inner matrix or of the right-hand
    side cannot leave a finite log det (S S') and t't behind -- it either
    stops dpotrf or propagates into S's diagonal or t -- so checking those
    two numbers turns it into NonFiniteLikelihoodError, with no pass over
    the n-by-n matrix.
    """
    n = ctx.stats.n
    d = np.sqrt(eta.lam * tc_block_weights(n, eta.beta))
    with np.errstate(over="ignore", invalid="ignore"):
        dc = d[:, None] * ctx.stats.C
        a = dc * d
        rhs = d * ctx.stats.cum_y
        a.ravel()[:: n + 1] += ctx.sigma2
        # a is symmetric, so a.T is the same matrix in Fortran order: dpotrf
        # factors it in place without a copy and zeroes the upper triangle
        s, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1)
        if info != 0:
            raise NonFiniteLikelihoodError(
                f"inner factor failed at eta=({eta.lam!r}, {eta.beta!r}): dpotrf info {info}"
            )
        t, _ = lapack.dtrtrs(s, rhs, lower=1)
        logdet = 2.0 * float(np.log(s.diagonal()).sum())
        tt = float(t @ t)
    if not (math.isfinite(logdet) and math.isfinite(tt)):
        raise NonFiniteLikelihoodError(
            f"non-finite inner factor at eta=({eta.lam!r}, {eta.beta!r})"
        )
    return _Factors(eta, d, dc, s, t, logdet, tt)


def _value(ctx: MLContext, f: _Factors) -> float:
    """Negative log marginal likelihood at f.eta, O(1) given the factor."""
    stats = ctx.stats
    val = (stats.nbar - stats.n) * math.log(ctx.sigma2) + f.logdet + (stats.ybar - f.tt) / ctx.sigma2
    if not math.isfinite(val):
        raise NonFiniteLikelihoodError(
            f"non-finite likelihood at eta=({f.eta.lam!r}, {f.eta.beta!r})"
        )
    return val


def _root_mean(f: _Factors) -> np.ndarray:
    """d * S^-T t: the posterior mean h = U (d * S^-T t) before its cumulative sum."""
    z, _ = lapack.dtrtrs(f.s, f.t, lower=1, trans=1)
    z *= f.d
    return z


def _mean(f: _Factors) -> np.ndarray:
    """Posterior mean L S^-T t = U (d * S^-T t): a reversed cumulative sum, O(n^2) given S."""
    return np.cumsum(_root_mean(f)[::-1])[::-1]


def _inverse(f: _Factors) -> np.ndarray:
    """S^-1, lower triangular with the upper triangle zero."""
    sinv, _ = lapack.dtrtri(f.s, lower=1)
    return sinv


def _require_interior(eta: Hyperparameters) -> None:
    if eta.lam <= 0.0 or not 0.0 < eta.beta < 1.0:
        raise ValueError(
            f"gradient needs interior eta (lam > 0, 0 < beta < 1), got ({eta.lam!r}, {eta.beta!r})"
        )


def _lambda_terms(ctx: MLContext, f: _Factors, sinv: np.ndarray):
    """(V_lam, U_lam, q): the lam gradient pieces plus q = U' v.

    Uses Tr(Sigma^-1 Phi K_b Phi') = (n - sigma2 ||S^-1||_F^2) / lam, an exact
    consequence of L'RL = SS' - sigma2 I, and the data-side quadratic
    U_lam = ||L' v||^2 / lam = ||d * q||^2 / lam with v = Phi' Sigma^-1 y, so
    both pieces are nonnegative by construction.  v = (ytilde - R h) / sigma2
    with h = U z the posterior mean, so q = (U' ytilde - C z) / sigma2.
    """
    s2 = ctx.sigma2
    lam = f.eta.lam
    flat = sinv.ravel(order="K")
    v_lam = max(ctx.stats.n - s2 * float(flat @ flat), 0.0) / lam
    q = ctx.stats.cum_y - ctx.stats.C @ _root_mean(f)
    q /= s2
    dq = f.d * q
    u_lam = float(dq @ dq) / lam
    return v_lam, u_lam, q


def _split(ctx: MLContext, f: _Factors) -> tuple:
    """Sign-split gradient (V, U) of the negative log marginal likelihood at f.eta.

    The gradient is V - U: V collects the positive (log-determinant side)
    parts and U the nonnegative (data fit side) parts, and scaled projected
    methods use V alone to build their diagonal metric.  f.eta must be
    interior.  The beta component is assembled blockwise: the
    derivative kernel d K_b / d beta decomposes over leading-block indicators
    with weights of either sign (kernel.dbeta_block_weights), and each block
    contributes a nonnegative trace and a nonnegative quadratic term, routed
    to V or U according to the weight's sign so that V > 0, U >= 0 and
    grad = V - U.  V and U are (lam, beta) pairs of floats.
    """
    eta = f.eta
    _require_interior(eta)
    n, s2 = ctx.stats.n, ctx.sigma2
    sinv = _inverse(f)
    v_lam, u_lam, q = _lambda_terms(ctx, f, sinv)

    # Per-block trace terms tv_m = Tr(Sigma^-1 Phi B_m Phi') = (C_mm - ||G e_m||^2) / sigma2
    # with G = S^-1 L' R U = S^-1 (d * C), and quadratics tu_m = (v' B_m v) = q_m^2.
    # terms holds sigma2 * tv and tu, parts the positive and negative parts
    # c+ and c- of the block weights, so parts @ terms' is
    # [[c+ . sigma2 tv, c+ . tu], [c- . sigma2 tv, c- . tu]].
    g = sinv @ f.dc
    terms = np.empty((2, n))
    np.einsum("ij,ij->j", g, g, out=terms[0])
    np.subtract(ctx.stats.C.diagonal(), terms[0], out=terms[0])
    np.maximum(terms[0], 0.0, out=terms[0])
    np.multiply(q, q, out=terms[1])
    c = dbeta_block_weights(n, eta.beta)
    parts = np.empty((2, n))
    np.maximum(c, 0.0, out=parts[0])
    np.subtract(parts[0], c, out=parts[1])
    (pos_tv, pos_tu), (neg_tv, neg_tu) = (parts @ terms.T).tolist()
    v_beta = eta.lam * (pos_tv / s2 + neg_tu)
    u_beta = eta.lam * (neg_tv / s2 + pos_tu)

    if not all(map(math.isfinite, (v_lam, v_beta, u_lam, u_beta))):
        raise NonFiniteLikelihoodError(
            f"non-finite gradient at eta=({eta.lam!r}, {eta.beta!r})"
        )
    return (v_lam, v_beta), (u_lam, u_beta)


def _lambda_split(ctx: MLContext, f: _Factors) -> tuple:
    """(V_lam, U_lam) at an interior f.eta without the beta machinery.

    The cheap path for frozen beta.
    """
    _require_interior(f.eta)
    v_lam, u_lam, _ = _lambda_terms(ctx, f, _inverse(f))
    if not (math.isfinite(v_lam) and math.isfinite(u_lam)):
        raise NonFiniteLikelihoodError(
            f"non-finite gradient at eta=({f.eta.lam!r}, {f.eta.beta!r})"
        )
    return v_lam, u_lam


def _root_moment(ctx: MLContext, f: _Factors) -> np.ndarray:
    """Z = diag(U^-1 M U^-T) for the posterior second moment M = P + h h'.

    In the root basis the covariance is U^-1 P U^-T = sigma2 diag(d) S^-T S^-1 diag(d)
    and the mean is U^-1 h = d * S^-T t (_root_mean), so
    Z = sigma2 d^2 * colnorms^2(S^-1) + (d * S^-T t)^2, O(n^2) given S^-1.
    """
    sinv = _inverse(f)
    z = np.einsum("ij,ij->j", sinv, sinv)
    z *= ctx.sigma2 * (f.d * f.d)
    z += _root_mean(f) ** 2
    return z
