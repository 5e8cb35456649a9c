"""One-step hyperparameter updaters and the iterate-to-convergence baseline.

Each online update performs a single projected scaled-gradient iteration

    z = Pi_box(eta - B grad L(eta)),    eta_next = eta + gamma (z - eta),

with the metric B chosen per method (Barzilai-Borwein step, split gradient
projection scaling, or a damped BFGS matrix) and gamma found by Armijo
backtracking.  The EM alternatives share one update, em_step: lam in closed
form, plus a golden-section search over beta for ``em``.  Every updater
returns a StepReport carrying the likelihood factor at its new eta, from
which the estimator forms the posterior mean.  State needed across batches
is only the previous iterate, its gradient, the BB alternation threshold,
and the BFGS matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import likelihood
from .kernel import Hyperparameters, NotPositiveDefiniteError
from .likelihood import (
    MLContext,
    NonFiniteLikelihoodError,
    _lambda_split,
    _mean,
    _moment_bands,
    _split,
    _value,
)

GRADIENT_METHODS = ("bb", "sgp", "bfgs")
EM_METHODS = ("em", "em1", "em2")
METHODS = GRADIENT_METHODS + EM_METHODS

# Gradient evaluations clamp eta away from the boundary of the feasible box,
# where the split gradient is undefined.
GRAD_LAMBDA_FLOOR = 1e-12

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerConfig:
    """Step-size clamps, line-search knobs, and convergence thresholds."""

    alpha_min: float = 1e-7
    alpha_max: float = 1e7
    d_min: float = 1e-10
    d_max: float = 1e10
    tau0: float = 0.5
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 20
    beta_eps: float = 1e-6
    opt_tol: float = 1e-6
    opt_max_iter: int = 500
    em_golden_tol: float = 1e-6
    em_max_evals: int = 100


@dataclass
class OptimizerState:
    """Cross-batch memory for the gradient-based one-step updaters.

    ``active`` selects the coordinates being optimized: (0,) freezes beta and
    updates lam only, (0, 1) updates both.  ``grad_prev`` and ``b_prev`` live
    on the active coordinates.
    """

    eta_prev: np.ndarray
    grad_prev: np.ndarray
    tau: float
    active: tuple = (0, 1)
    b_prev: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.b_prev is None:
            self.b_prev = np.eye(len(self.active))

    def copy(self) -> "OptimizerState":
        return OptimizerState(
            eta_prev=self.eta_prev.copy(),
            grad_prev=self.grad_prev.copy(),
            tau=self.tau,
            active=self.active,
            b_prev=self.b_prev.copy(),
        )


@dataclass(frozen=True)
class StepReport:
    """Outcome of one updater application."""

    eta_new: Hyperparameters
    ml_before: float
    ml_after: float
    gamma: float
    backtracks: int  # rejected candidate step lengths
    # factor at eta_new, so the caller forms the posterior mean without
    # factorizing again
    factors: likelihood._Factors = field(repr=False, compare=False)


class OptInfo(NamedTuple):
    state: Optional[OptimizerState]
    iterations: int


def _clamp_box(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out[0] = max(out[0], 0.0)
    out[1] = min(max(out[1], 0.0), 1.0)
    return out


def _interior(eta: Hyperparameters, cfg: OptimizerConfig) -> Hyperparameters:
    lam = max(eta.lam, GRAD_LAMBDA_FLOOR)
    beta = min(max(eta.beta, cfg.beta_eps), 1.0 - cfg.beta_eps)
    return Hyperparameters(lam, beta)


def secant_pair(state: OptimizerState, eta_arr: np.ndarray, grad_act: np.ndarray):
    """Displacement r and gradient difference w on the active coordinates."""
    act = list(state.active)
    r = np.asarray(eta_arr, dtype=float)[act] - state.eta_prev[act]
    w = np.asarray(grad_act, dtype=float) - state.grad_prev
    return r, w


def bb_stepsize(r: np.ndarray, w: np.ndarray, tau: float, cfg: OptimizerConfig,
                metric: np.ndarray = None):
    """Alternating Barzilai-Borwein step size; returns (alpha, tau_next).

    alpha1 = r'r / r'w and alpha2 = r'w / w'w are clamped to
    [alpha_min, alpha_max]; the shorter step is taken when their ratio falls
    below tau, which then shrinks (else grows) by 10%.  Non-positive curvature
    r'w falls back to alpha_min with tau unchanged.

    With ``metric`` (the positive diagonal d of a scaling matrix D) the two
    rules fit the scaled model B = alpha*D instead of alpha*I:
    alpha1 = r'D^-2 r / r'D^-1 w and alpha2 = r'D w / w'D^2 w.  Without this,
    a steplength fitted in the unscaled metric double-counts the scaling
    already in D and the combined step can underflow to nothing.  Non-positive
    curvature then falls back to alpha = 1 -- the raw fixed-point step that D
    encodes -- because alpha_min * D would freeze the iteration where the
    objective is locally concave (small lambda) instead of walking out of it.
    """
    if metric is None:
        cross = float(r @ w)
        a1_num, a1_den = float(r @ r), cross
        a2_num, a2_den = cross, float(w @ w)
        fallback = cfg.alpha_min
    else:
        rd = r / metric
        dw = metric * w
        a1_num, a1_den = float(rd @ rd), float(rd @ w)
        a2_num, a2_den = float(r @ dw), float(dw @ dw)
        fallback = 1.0
    if not (np.isfinite(a1_den) and np.isfinite(a2_num)) or a1_den <= 0.0 or a2_num <= 0.0 or a2_den <= 0.0:
        return fallback, tau
    a1 = min(max(a1_num / a1_den, cfg.alpha_min), cfg.alpha_max)
    a2 = min(max(a2_num / a2_den, cfg.alpha_min), cfg.alpha_max)
    if a2 / a1 <= tau:
        return a2, 0.9 * tau
    return a1, 1.1 * tau


def sgp_scaling(eta_act: np.ndarray, v_act: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    """Diagonal scaling d_i = clamp(eta_i / V_i) from the positive gradient part."""
    eta_act = np.asarray(eta_act, dtype=float)
    v_act = np.asarray(v_act, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = eta_act / v_act
    ratio = np.where(np.isfinite(ratio), ratio, cfg.d_max)
    return np.clip(ratio, cfg.d_min, cfg.d_max)


def bfgs_update(b_prev: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Direct BFGS update of the inverse-Hessian approximation B.

    Skips the update (returning b_prev) when the curvature r'w is not safely
    positive, so B stays symmetric positive definite; otherwise the returned B
    satisfies the secant equation B w = r exactly.
    """
    rw = float(r @ w)
    if rw <= 1e-12 * float(np.linalg.norm(r)) * float(np.linalg.norm(w)):
        return b_prev
    rho = 1.0 / rw
    eye = np.eye(len(r))
    m = eye - rho * np.outer(r, w)
    b = rho * np.outer(r, r) + m @ b_prev @ m.T
    return 0.5 * (b + b.T)


def _grad_at(ctx: MLContext, eta: Hyperparameters, active: tuple, cfg: OptimizerConfig):
    """(grad, V, factor) on the active coordinates, at the interior-clamped eta."""
    f = likelihood._factorize(ctx, _interior(eta, cfg))
    if active == (0,):
        v_lam, u_lam = _lambda_split(ctx, f)
        return np.array([v_lam - u_lam]), np.array([v_lam]), f
    split = _split(ctx, f)
    return split.grad, split.V, f


def gradient_step(
    ctx: MLContext,
    state: OptimizerState,
    eta: Hyperparameters,
    method: str,
    cfg: OptimizerConfig = None,
) -> StepReport:
    """One projected scaled-gradient iteration; mutates ``state`` in place.

    After the call the state holds the pre-step iterate and its gradient,
    which is exactly the secant seed the next batch needs.  An interior eta
    is factorized once, for the gradient and the value alike, and each
    line-search candidate once; the report carries the factor at eta_new.
    """
    if method not in GRADIENT_METHODS:
        raise ValueError(f"unknown gradient method {method!r}")
    cfg = cfg or OptimizerConfig()
    act = list(state.active)
    eta_arr = eta.as_array()

    grad_act, v_act, f = _grad_at(ctx, eta, state.active, cfg)
    r, w = secant_pair(state, eta_arr, grad_act)
    tau_new = state.tau
    b_new = state.b_prev
    if method == "bb":
        alpha, tau_new = bb_stepsize(r, w, state.tau, cfg)
        b = alpha * np.eye(len(act))
    elif method == "sgp":
        d_act = sgp_scaling(eta_arr[act], v_act, cfg)
        alpha, tau_new = bb_stepsize(r, w, state.tau, cfg, metric=d_act)
        b = alpha * np.diag(d_act)
    else:  # bfgs
        b_new = bfgs_update(state.b_prev, r, w)
        b = b_new

    step = np.zeros(2)
    step[act] = b @ grad_act
    z = _clamp_box(eta_arr - step)
    delta = z - eta_arr
    slope = float(grad_act @ delta[act])

    if f.eta != eta:  # the gradient was taken at the interior-clamped eta
        f = likelihood._factorize(ctx, eta)
    ml_before = _value(ctx, f)
    gamma = 0.0
    backtracks = 0
    ml_after = ml_before
    eta_new = eta
    if slope < 0.0:
        backtracks = cfg.max_backtracks
        # The box is convex, so eta + gamma * delta stays feasible for any
        # gamma in [0, 1]; the clamp only sweeps up rounding residue.
        for i in range(cfg.max_backtracks + 1):
            g = cfg.backtrack_factor**i
            cand = Hyperparameters.from_array(_clamp_box(eta_arr + g * delta))
            try:
                f_c = likelihood._factorize(ctx, cand)
                ml_c = _value(ctx, f_c)
            except NonFiniteLikelihoodError:
                continue
            if ml_c <= ml_before + cfg.armijo_c * g * slope:
                gamma = g
                backtracks = i
                ml_after = ml_c
                eta_new = cand
                f = f_c
                break

    state.eta_prev = eta_arr
    state.grad_prev = grad_act
    state.tau = tau_new
    if method == "bfgs":
        if gamma == 0.0:
            # A rejected (or ascent) direction means the accumulated curvature
            # model has gone stale; restarting from identity is cheaper than
            # paying a full failed line search on every subsequent batch.
            b_new = np.eye(len(act))
        state.b_prev = b_new
    return StepReport(
        eta_new=eta_new,
        ml_before=ml_before,
        ml_after=ml_after,
        gamma=gamma,
        backtracks=backtracks,
        factors=f,
    )


def _golden_min(fn, lo: float, hi: float, tol: float, max_evals: int):
    """Golden-section minimum of fn on [lo, hi]; returns the best evaluated (x, fx)."""
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    evals = 2
    while hi - lo > tol and evals < max_evals:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = fn(x2)
        evals += 1
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _em_profile(m_diag: np.ndarray, m_off: np.ndarray):
    """The M-step's closed form in beta from the two bands of the second moment M.

    Returns (lam_star, objective).  lam_star(beta) = Tr(K_b^-1 M) / n is the
    closed-form lam for fixed beta.  The unit kernel's inverse is exactly
    tridiagonal,

        inv[1, 1] = 1 / (beta (1 - beta))           (1 / beta when n == 1)
        inv[i, i] = (1 + beta) / (beta^i (1 - beta))   for 1 < i < n
        inv[n, n] = 1 / (beta^n (1 - beta))
        inv[i, i+1] = -1 / (beta^i (1 - beta)),

    so for n >= 2

        lam* n (1 - beta) beta^n = sum_i beta^(n-i) (p_i + beta q_i),
        p_i = M_ii - 2 M_i,i+1 (p_n = M_nn),  q_i = M_ii for 1 < i < n else 0,

    and each evaluation is one powers vector and two dot products.  lam_star
    is inf wherever the inverse does not exist or overflows: beta = 0,
    beta = 1 for n >= 2, beta^n underflowing.  objective(beta) =
    n log lam* + log det K_b is the M-step objective profiled over lam, for
    0 < beta < 1; it is inf wherever lam* is not finite and positive.
    """
    n = m_diag.size
    pq = np.zeros((2, n))  # rows p and q, reversed so that entry k is weighted by beta**k
    pq[0] = m_diag[::-1]
    pq[0, 1:] -= 2.0 * m_off[::-1]
    pq[1, 1:-1] = m_diag[-2:0:-1]
    k = np.arange(n, dtype=float)
    half = 0.5 * n * (n + 1)

    def lam_star(beta: float) -> float:
        if n == 1:  # the inverse is the scalar 1 / beta
            scale = beta
        else:
            beta_n = beta**n
            scale = (1.0 - beta) * beta_n
        if scale == 0.0 or not math.isfinite((1.0 + beta) / scale):
            return np.inf
        sp, sq = pq @ beta**k
        return float(sp + beta * sq) / (n * scale)

    def objective(beta: float) -> float:
        lam = lam_star(beta)
        if not math.isfinite(lam) or lam <= 0.0:
            return np.inf
        return n * math.log(lam) + half * math.log(beta) + (n - 1) * math.log1p(-beta)

    return lam_star, objective


def em_step(
    ctx: MLContext, eta: Hyperparameters, method: str, cfg: OptimizerConfig = None
) -> StepReport:
    """One EM update: posterior second moment at eta, then the exact M-step.

    lam has the closed form Tr(K_b^-1 M) / n for fixed beta, with M the
    posterior second moment (_em_profile).  ``em`` takes M = P + h h' and
    minimizes the lam-profiled objective over beta by golden section,
    compared against the current beta so the evidence never degrades.
    ``em1`` (M = h h', the covariance dropped) and ``em2`` (M = P + h h')
    keep beta frozen and raise NotPositiveDefiniteError where the kernel
    inverse does not exist.  The M-step reads only M's main and first super
    diagonal (likelihood._moment_bands, O(n^2) column sums from the factor
    at eta), and the report carries the factor at the new eta; both values
    are O(n) given their factors.
    """
    if method not in EM_METHODS:
        raise ValueError(f"unknown EM method {method!r}")
    cfg = cfg or OptimizerConfig()
    f = likelihood._factorize(ctx, eta)
    if method == "em1":
        h = _mean(f)
        m_diag, m_off = h * h, h[:-1] * h[1:]
    else:
        m_diag, m_off = _moment_bands(ctx, f)

    lam_star, objective = _em_profile(m_diag, m_off)
    if float(m_diag.sum()) <= 0.0:
        # Degenerate posterior (lam already 0, or a zero kernel at beta = 0):
        # the M-step sends lam to the boundary, and neither beta nor the
        # kernel inverse is needed.
        eta_new = Hyperparameters(0.0, eta.beta)
    elif method == "em":
        lo, hi = cfg.beta_eps, 1.0 - cfg.beta_eps
        beta_cur = min(max(eta.beta, lo), hi)
        g_cur = objective(beta_cur)
        beta_gs, g_gs = _golden_min(objective, lo, hi, cfg.em_golden_tol, cfg.em_max_evals)
        beta_sel = beta_gs if g_gs < g_cur else beta_cur
        # lam = 0 when no evaluated beta gave a finite objective
        lam_sel = lam_star(beta_sel) if min(g_gs, g_cur) < np.inf else 0.0
        eta_new = Hyperparameters(lam_sel, beta_sel)
    else:
        lam_new = lam_star(eta.beta)
        if lam_new == np.inf:
            raise NotPositiveDefiniteError(
                f"kernel inverse does not exist at beta={eta.beta!r}, n={m_diag.size}"
            )
        eta_new = Hyperparameters(max(lam_new, 0.0), eta.beta)

    f_new = likelihood._factorize(ctx, eta_new)
    return StepReport(eta_new, _value(ctx, f), _value(ctx, f_new), 1.0, 0, f_new)


def fresh_state(
    ctx: MLContext,
    eta: Hyperparameters,
    cfg: OptimizerConfig = None,
    lambda_only: bool = False,
) -> OptimizerState:
    """Optimizer state with a usable secant seed.

    The seed is eta scaled by (1 + 1e-3) componentwise (clamped to the box),
    whose gradient is evaluated on the current context.
    """
    cfg = cfg or OptimizerConfig()
    active = (0,) if lambda_only else (0, 1)
    eta_prev = _clamp_box(eta.as_array() * (1.0 + 1e-3))
    grad_prev, _, _ = _grad_at(ctx, Hyperparameters.from_array(eta_prev), active, cfg)
    return OptimizerState(
        eta_prev=eta_prev,
        grad_prev=grad_prev,
        tau=cfg.tau0,
        active=active,
    )


def opt_until_convergence(
    ctx: MLContext,
    eta0: Hyperparameters,
    method: str = "sgp",
    cfg: OptimizerConfig = None,
    lambda_only: bool = False,
):
    """Iterate the chosen updater on fixed data until the objective settles.

    Stops when |L_j - L_{j-1}| <= opt_tol * (1 + |L_j|) or after opt_max_iter
    iterations.  Returns (StepReport, OptInfo): the last iteration's report,
    whose eta_new is the result and whose factor gives its posterior mean,
    and the final optimizer state (whose eta_prev/grad_prev form a secant
    seed; None for EM) with the iteration count.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cfg = cfg or OptimizerConfig()
    if cfg.opt_max_iter < 1:
        raise ValueError(f"opt_max_iter must be >= 1, got {cfg.opt_max_iter}")
    eta = eta0
    state = None
    if method in GRADIENT_METHODS:
        state = fresh_state(ctx, eta0, cfg, lambda_only=lambda_only)
    iterations = 0
    for _ in range(cfg.opt_max_iter):
        if method in GRADIENT_METHODS:
            rep = gradient_step(ctx, state, eta, method, cfg)
        else:
            rep = em_step(ctx, eta, method, cfg)
        eta = rep.eta_new
        iterations += 1
        if abs(rep.ml_after - rep.ml_before) <= cfg.opt_tol * (1.0 + abs(rep.ml_after)):
            break
    return rep, OptInfo(state=state, iterations=iterations)
