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

The gradient and the posterior are read in the same root basis, off
diag((S S')^-1) (one dtrtri) and w = S^-T t (one dtrtrs).  The gradient is
sum 2 g (p - w^2) with p = 1 - sigma2 diag((S S')^-1) and g the log-derivative
of d (_split), so no n-by-n product is formed and nothing divides by d.
The posterior mean is h = U (d * w), and the EM M-step reads the second
moment M = P + h h' only through Z = diag(U^-1 M U^-T) (_root_moment),
because in that basis the unit kernel's inverse is diagonal (kernel module
docstring).

Along lam at one frozen beta the inner matrix is the one-parameter family
A(lam) = sigma2 I + lam M, M = diag(d0) C diag(d0), d0 = sqrt(c(beta)).
``_FrozenBeta`` eigendecomposes M = Q diag(mu) Q' once and keeps
b = Q' (d0 * cum_y); then at any lam, with delta = sigma2 + lam mu,

    log det A = sum log delta,    ||t||^2 = lam sum b^2 / delta,
    V_lam = sum mu / delta,       U_lam = sum b^2 / delta^2,

each O(n) and free of subtraction.  One eigendecomposition costs some 28
Cholesky factorizations at n = 80, so it pays only where many lam are
visited at one beta: a lam-only run of ``optim.opt_until_convergence``,
whose secant seed, steps and line searches all read it.

There is one factorization per (batch, eta): ``_factorize`` builds S and t,
together with log det S S' and ||t||^2, and the value (O(1) from those two
numbers), the gradient, the posterior mean and the EM second moment are all
read off that one factor.  The updaters in ``optim`` hand it along: the
gradient's factor gives the value at the same eta, and every updater returns
the factor at its new eta (the accepted line-search candidate, or the EM
update), from which the estimator forms its posterior mean, so a batch never
factors the same matrix twice.  This module has no eta-level wrappers;
callers factor once and read what they need.  LAPACK is called directly
through scipy's Fortran wrappers dpotrf, dtrtrs, dtrtri and dsyevd, which
``_lapack`` loads without scipy.linalg's package.  A finiteness check on
the factor's log determinant and ||t||^2 stands in for scipy's input
validation.  Past the factor, the one n-by-n temporary is S^-1, which the
gradient and the EM second moment build for its column norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack as lapack
from .kernel import Hyperparameters, dlog_root_weights, tc_block_weights
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
        a = d[:, None] * ctx.stats.C
        a *= d
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
    return _Factors(eta, d, s, t, logdet, tt)


def _value(ctx: MLContext, f) -> float:
    """Negative log marginal likelihood at f.eta, O(1) given f.logdet and f.tt.

    f is a Cholesky factor (_Factors) or a frozen-beta evaluation (_Spectral).
    """
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
    return np.add.accumulate(_root_mean(f)[::-1])[::-1]


def _inverse_diagonal(f: _Factors) -> np.ndarray:
    """diag((S S')^-1) = colnorms^2(S^-1), from one dtrtri."""
    sinv, _ = lapack.dtrtri(f.s, lower=1)
    return np.einsum("ij,ij->j", sinv, sinv)


def _root_terms(ctx: MLContext, f: _Factors) -> tuple:
    """(p, w, V_lam, U_lam): the root-basis diagonals of the gradient (_split).

    p = 1 - sigma2 diag((S S')^-1), clipped at 0 against rounding, and
    w = S^-T t; V_lam = sum p / lam and U_lam = ||w||^2 / lam.  f.eta must be
    interior.
    """
    lam, beta = f.eta.lam, f.eta.beta
    if lam <= 0.0 or not 0.0 < beta < 1.0:
        raise ValueError(
            f"gradient needs interior eta (lam > 0, 0 < beta < 1), got ({lam!r}, {beta!r})"
        )
    p = _inverse_diagonal(f)
    p *= -ctx.sigma2
    p += 1.0
    np.maximum(p, 0.0, out=p)
    w, _ = lapack.dtrtrs(f.s, f.t, lower=1, trans=1)
    return p, w, float(p.sum()) / lam, float(w @ w) / lam


def _checked(eta: Hyperparameters, parts: tuple) -> tuple:
    if not all(map(math.isfinite, parts)):
        raise NonFiniteLikelihoodError(
            f"non-finite gradient at eta=({eta.lam!r}, {eta.beta!r})"
        )
    return parts


def _lambda_split(ctx: MLContext, f: _Factors) -> tuple:
    """(V_lam, U_lam) at an interior f.eta: _split's lam components alone.

    The frozen-beta gradient on a Cholesky factor, for one-step batches; a
    lam-only opt run, its seed included, reads _FrozenBeta.lambda_split.
    """
    return _checked(f.eta, _root_terms(ctx, f)[2:])


def _split(ctx: MLContext, f: _Factors) -> tuple:
    """Sign-split gradient (V, U) of the negative log marginal likelihood at f.eta.

    The gradient is V - U: V collects the positive (log-determinant side)
    parts and U the nonnegative (data fit side) parts, and scaled projected
    methods use V alone to build their diagonal metric.  V and U are
    (lam, beta) pairs of floats; f.eta must be interior.

    Both components are read in the kernel root's basis.  With L = U diag(d)
    and L' R L = S S' - sigma2 I,

        L' Phi' Sigma^-1 Phi L = I - sigma2 (S S')^-1,    L' Phi' Sigma^-1 y = S^-T t = w,

    and d K / d theta = L diag(2 g) L' with g = d log d / d theta: 1 / (2 lam)
    for lam, and kernel.dlog_root_weights for beta, finite everywhere inside
    the box.  So with p = diag(I - sigma2 (S S')^-1), which lies in [0, 1],

        dL/dtheta = Tr(Sigma^-1 dSigma) - y' Sigma^-1 dSigma Sigma^-1 y = sum 2 g (p - w^2).

    p and w^2 are nonnegative, so routing each term by the sign of g gives
    V = (sum p / lam, 2 (g+ . p + g- . w^2)) and U = (||w||^2 / lam,
    2 (g- . p + g+ . w^2)): V >= 0, U >= 0 and grad = V - U.  These are the
    numbers the derivative kernel's block decomposition gives (its weights
    are lam c' = 2 g d^2, with the same signs as g), but read without G =
    S^-1 diag(d) C, whose trace terms C_mm - ||G e_m||^2 cancel at high SNR.
    Nothing divides by d, which underflows at small lam or beta: the chain
    rule through log d leaves g, and p and w come straight off the factor.
    """
    eta = f.eta
    p, w, v_lam, u_lam = _root_terms(ctx, f)
    w *= w
    g = dlog_root_weights(ctx.stats.n, eta.beta)
    pos = np.maximum(g, 0.0)
    neg = pos - g
    v_beta = 2.0 * (float(pos @ p) + float(neg @ w))
    u_beta = 2.0 * (float(neg @ p) + float(pos @ w))
    _checked(eta, (v_lam, v_beta, u_lam, u_beta))
    return (v_lam, v_beta), (u_lam, u_beta)


def _root_moment(ctx: MLContext, f: _Factors) -> np.ndarray:
    """Z = diag(U^-1 M U^-T) for the posterior second moment M = P + h h'.

    In the root basis the covariance is U^-1 P U^-T = sigma2 diag(d) S^-T S^-1 diag(d)
    and the mean is U^-1 h = d * S^-T t (_root_mean), so
    Z = sigma2 d^2 * diag((S S')^-1) + (d * S^-T t)^2, O(n^2) given S^-1.
    """
    z = _inverse_diagonal(f)
    # one factor at a time: sigma2 * d^2 alone overflows at large output scale
    z *= ctx.sigma2
    z *= f.d
    z *= f.d
    z += _root_mean(f) ** 2
    return z


class _Spectral(NamedTuple):
    """A frozen-beta evaluation at eta: what _value and _FrozenBeta.lambda_split read."""

    eta: Hyperparameters
    inv: np.ndarray  # 1 / delta, delta = sigma2 + lam * mu
    w: np.ndarray  # b / delta
    logdet: float  # log det (sigma2 I + lam M)
    tt: float  # ||t||^2 = lam * b' w


class _FrozenBeta:
    """The likelihood and its lam-gradient along lam at one beta, from one eigendecomposition.

    M = diag(d0) C diag(d0) = Q diag(mu) Q' is positive semidefinite by
    construction, so mu is clipped at 0 against rounding; dsyevd factors it
    once, and every ``at`` after that is O(n) (module docstring).  ``at``
    keeps its last evaluation and hands it back for the same eta object, so
    an optimizer step that starts from the candidate its predecessor
    accepted does not evaluate it again.  The lam-gradient exists on the
    whole closed box -- V_lam = sum mu / delta and U_lam = sum b^2 / delta^2
    are finite at lam = 0 and at beta = 0 or 1 -- so it is read at eta
    itself, with none of ``optim._interior``'s margins.
    """

    def __init__(self, ctx: MLContext, beta: float):
        stats = ctx.stats
        d0 = np.sqrt(tc_block_weights(stats.n, beta))
        m = d0[:, None] * stats.C
        m *= d0
        # m is symmetric, so m.T is the same matrix in Fortran order
        mu, q, info = lapack.dsyevd(m.T, lower=1, overwrite_a=1)
        if info != 0:
            raise NonFiniteLikelihoodError(
                f"eigendecomposition failed at beta={beta!r}: dsyevd info {info}"
            )
        np.maximum(mu, 0.0, out=mu)
        self.sigma2 = ctx.sigma2
        self.beta = beta
        self.mu = mu
        self.b = q.T @ (d0 * stats.cum_y)
        self._last = None

    def at(self, eta: Hyperparameters) -> _Spectral:
        """The evaluation at eta, whose beta must be the frozen one.

        An overflowing lam * mu leaves log det infinite, and a non-finite
        log det or ||t||^2 raises NonFiniteLikelihoodError, as in _factorize.
        """
        if self._last is not None and self._last.eta is eta:
            return self._last
        if eta.beta != self.beta:
            raise ValueError(f"beta is frozen at {self.beta!r}, got {eta.beta!r}")
        lam = eta.lam
        with np.errstate(over="ignore", invalid="ignore"):
            delta = self.mu * lam
            delta += self.sigma2
            inv = 1.0 / delta
            w = self.b * inv
            logdet = float(np.log(delta).sum())
            tt = lam * float(self.b @ w)
        if not (math.isfinite(logdet) and math.isfinite(tt)):
            raise NonFiniteLikelihoodError(
                f"non-finite frozen-beta evaluation at eta=({lam!r}, {eta.beta!r})"
            )
        self._last = _Spectral(eta, inv, w, logdet, tt)
        return self._last

    def lambda_split(self, f: _Spectral) -> tuple:
        """(V_lam, U_lam) at f.eta, as _lambda_split: V_lam = sum mu / delta, U_lam = ||w||^2."""
        return _checked(f.eta, (float(self.mu @ f.inv), float(f.w @ f.w)))
