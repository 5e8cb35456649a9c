"""One-step hyperparameter updaters and the iterate-to-convergence baseline.

Each online update performs a single projected scaled-gradient iteration

    z = Pi_box(eta - B grad L(eta)),    eta_next = eta + gamma (z - eta),

with the metric B chosen per method (Barzilai-Borwein step, split gradient
projection scaling, or a damped BFGS matrix) and gamma found by Armijo
backtracking.  The EM alternatives share one update, em_step: lam in closed
form, plus for ``em`` a search over beta (a fixed grid, polished by
safeguarded Newton); ``step`` runs the one that a method names, for a
one-step batch and for each iteration of opt_until_convergence alike.
Every updater returns a StepReport carrying the likelihood factor at its new
eta, from which the estimator forms the posterior mean; a lam-only
opt_until_convergence run steps on one frozen-beta eigendecomposition
(likelihood._FrozenBeta) and factors only its result.  State needed across
batches is only the previous iterate, its gradient, the BB alternation
threshold, and the BFGS matrix.  OptimizerConfig holds the six settings a
caller may vary; the rest are the module constants below.

The optimizer moves one or two coordinates, so its vectors are tuples of
Python floats and B is a tuple of rows: at this size a numpy call costs
several times the arithmetic it would do.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import likelihood
from .kernel import Hyperparameters
from .likelihood import (
    MLContext,
    NonFiniteLikelihoodError,
    _lambda_split,
    _root_mean,
    _root_moment,
    _split,
    _value,
)

GRADIENT_METHODS = ("bb", "sgp", "bfgs")
EM_METHODS = ("em", "em1", "em2")
METHODS = GRADIENT_METHODS + EM_METHODS

# Gradient evaluations clamp eta away from the boundary of the feasible box,
# where the split gradient is undefined; em searches beta on the same margin.
GRAD_LAMBDA_FLOOR = 1e-12
BETA_EPS = 1e-6
D_MIN, D_MAX = 1e-10, 1e10  # sgp's clamp on its diagonal scaling
TAU0 = 0.5  # initial Barzilai-Borwein alternation threshold
BACKTRACK_FACTOR = 0.5  # Armijo step shrink per rejected candidate
EM_BETA_TOL = 1e-6  # em's Newton polish stops at a beta step this small

_IDENTITY = {1: ((1.0,),), 2: ((1.0, 0.0), (0.0, 1.0))}

# em's beta search: grid size, and a cap on the Newton polish.  Its step
# lengths at least halve every second iteration, so it ends within about
# 2 log2(bracket / tol), some 32 iterations, before the cap.
_GRID_POINTS = 257
_NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class OptimizerConfig:
    """BB step clamps, Armijo rule, and opt_until_convergence's stopping rule."""

    alpha_min: float = 1e-7
    alpha_max: float = 1e7
    armijo_c: float = 1e-4
    max_backtracks: int = 20
    opt_tol: float = 1e-6
    opt_max_iter: int = 500


@dataclass(frozen=True)
class OptimizerState:
    """Cross-batch memory for the gradient-based one-step updaters.

    ``active`` selects the coordinates being optimized: (0,) freezes beta and
    updates lam only, (0, 1) updates both.  ``grad_prev`` and ``b_prev`` live
    on the active coordinates.  A state is never changed after it is built:
    gradient_step returns the next one in its report.
    """

    eta_prev: tuple
    grad_prev: tuple
    tau: float
    active: tuple = (0, 1)
    b_prev: tuple = None

    def __post_init__(self):
        if self.b_prev is None:
            object.__setattr__(self, "b_prev", _IDENTITY[len(self.active)])


@dataclass(frozen=True)
class StepReport:
    """Outcome of one updater application."""

    eta_new: Hyperparameters
    ml_before: float
    ml_after: float
    gamma: float
    backtracks: int  # rejected candidate step lengths
    # factor at eta_new, so the caller forms the posterior mean without
    # factorizing again (a frozen-beta step's evaluation at eta_new instead,
    # until opt_until_convergence factors the result)
    factors: likelihood._Factors = field(repr=False, compare=False)
    # optimizer state for the next gradient step (None after an EM step)
    state: Optional[OptimizerState] = field(repr=False, compare=False)


def _dot(a, b) -> float:
    return sum(map(operator.mul, a, b))


def _clamp_box(lam: float, beta: float) -> tuple:
    return max(lam, 0.0), min(max(beta, 0.0), 1.0)


def _interior(eta: Hyperparameters) -> Hyperparameters:
    """eta moved inside the box by the gradient's margins; eta itself when it already is."""
    lam = max(eta.lam, GRAD_LAMBDA_FLOOR)
    beta = min(max(eta.beta, BETA_EPS), 1.0 - BETA_EPS)
    if lam == eta.lam and beta == eta.beta:
        return eta
    return Hyperparameters(lam, beta)


def secant_pair(state: OptimizerState, eta: tuple, grad: tuple):
    """Displacement r and gradient difference w on the active coordinates."""
    r = tuple(eta[i] - state.eta_prev[i] for i in state.active)
    w = tuple(g - g_prev for g, g_prev in zip(grad, state.grad_prev))
    return r, w


def bb_stepsize(r, w, tau: float, cfg: OptimizerConfig, metric=None):
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
        cross = _dot(r, w)
        a1_num, a1_den = _dot(r, r), cross
        a2_num, a2_den = cross, _dot(w, w)
        fallback = cfg.alpha_min
    else:
        rd = [x / d for x, d in zip(r, metric)]
        dw = [d * x for d, x in zip(metric, w)]
        a1_num, a1_den = _dot(rd, rd), _dot(rd, w)
        a2_num, a2_den = _dot(r, dw), _dot(dw, dw)
        fallback = 1.0
    if not (math.isfinite(a1_den) and math.isfinite(a2_num)) or a1_den <= 0.0 or a2_num <= 0.0 or a2_den <= 0.0:
        return fallback, tau
    a1 = min(max(a1_num / a1_den, cfg.alpha_min), cfg.alpha_max)
    a2 = min(max(a2_num / a2_den, cfg.alpha_min), cfg.alpha_max)
    if a2 / a1 <= tau:
        return a2, 0.9 * tau
    return a1, 1.1 * tau


def sgp_scaling(eta_act, v_act) -> tuple:
    """Diagonal scaling d_i = clamp(eta_i / V_i) from the positive gradient part.

    A ratio that is not finite (V_i = 0 included) takes D_MAX.
    """
    out = []
    for e, v in zip(eta_act, v_act):
        ratio = e / v if v != 0.0 else math.inf
        if not math.isfinite(ratio):
            ratio = D_MAX
        out.append(min(max(ratio, D_MIN), D_MAX))
    return tuple(out)


def bfgs_update(b_prev, r, w) -> tuple:
    """Direct BFGS update of the inverse-Hessian approximation B, as a tuple of rows.

    Skips the update (returning b_prev) unless the curvature r'w is shown to
    be safely positive (a NaN bound shows nothing), so B stays symmetric
    positive definite; otherwise the returned B satisfies the secant equation
    B w = r exactly.  With M = I - rho r w', rho = 1 / r'w, B = rho r r' + M B_prev M'.
    """
    rw = _dot(r, w)
    if not rw > 1e-12 * math.sqrt(_dot(r, r)) * math.sqrt(_dot(w, w)):
        return b_prev
    rho = 1.0 / rw
    dim = range(len(r))
    m = [[float(i == j) - rho * (r[i] * w[j]) for j in dim] for i in dim]
    mb = [[_dot(m[i], [row[j] for row in b_prev]) for j in dim] for i in dim]
    b = [[rho * (r[i] * r[j]) + _dot(mb[i], m[j]) for j in dim] for i in dim]
    return tuple(tuple(0.5 * (b[i][j] + b[j][i]) for j in dim) for i in dim)


def _grad_at(ctx: MLContext, eta: Hyperparameters, active: tuple):
    """(grad, V, factor) on the active coordinates, at the interior-clamped eta."""
    f = likelihood._factorize(ctx, _interior(eta))
    if active == (0,):
        v_lam, u_lam = _lambda_split(ctx, f)
        return (v_lam - u_lam,), (v_lam,), f
    (v_lam, v_beta), (u_lam, u_beta) = _split(ctx, f)
    return (v_lam - u_lam, v_beta - u_beta), (v_lam, v_beta), f


def gradient_step(
    ctx: MLContext,
    state: OptimizerState,
    eta: Hyperparameters,
    method: str,
    cfg: OptimizerConfig = None,
    frozen: likelihood._FrozenBeta = None,
) -> StepReport:
    """One projected scaled-gradient iteration from ``state``, which is left as it was.

    The report's state holds the pre-step iterate and its gradient, which is
    exactly the secant seed the next batch needs.  An interior eta
    is factorized once, for the gradient and the value alike, and each
    line-search candidate once; the report carries the factor at eta_new.

    With ``frozen`` (a lam-only state at frozen.beta) the values and the
    lam-gradient are read from its eigendecomposition instead, O(n) each,
    the gradient at eta itself (likelihood._FrozenBeta), and the report
    carries that evaluation at eta_new in place of a factor.
    """
    if method not in GRADIENT_METHODS:
        raise ValueError(f"unknown gradient method {method!r}")
    cfg = cfg or OptimizerConfig()
    active = state.active
    lam, beta = here = (eta.lam, eta.beta)

    if frozen is None:
        evaluate = functools.partial(likelihood._factorize, ctx)
        grad, v, f = _grad_at(ctx, eta, active)
    else:
        evaluate = frozen.at
        f = evaluate(eta)
        v_lam, u_lam = frozen.lambda_split(f)
        grad, v = (v_lam - u_lam,), (v_lam,)
    r, w = secant_pair(state, here, grad)
    tau_new = state.tau
    b_new = state.b_prev
    if method == "bb":
        alpha, tau_new = bb_stepsize(r, w, state.tau, cfg)
        move = [alpha * g for g in grad]
    elif method == "sgp":
        d = sgp_scaling([here[i] for i in active], v)
        alpha, tau_new = bb_stepsize(r, w, state.tau, cfg, metric=d)
        move = [(alpha * d_i) * g for d_i, g in zip(d, grad)]
    else:  # bfgs
        b_new = bfgs_update(state.b_prev, r, w)
        move = [_dot(row, grad) for row in b_new]

    move.append(0.0)  # a frozen beta does not move
    z_lam, z_beta = _clamp_box(lam - move[0], beta - move[1])
    delta = (z_lam - lam, z_beta - beta)
    slope = _dot(grad, delta)  # over the active coordinates only

    if f.eta is not eta:  # the gradient was taken at the interior-clamped eta
        f = evaluate(eta)
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
            g = BACKTRACK_FACTOR**i
            cand = Hyperparameters(*_clamp_box(lam + g * delta[0], beta + g * delta[1]))
            try:
                f_c = evaluate(cand)
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

    if method == "bfgs" and gamma == 0.0:
        # A rejected (or ascent) direction means the accumulated curvature
        # model has gone stale; restarting from identity is cheaper than
        # paying a full failed line search on every subsequent batch.
        b_new = _IDENTITY[len(active)]
    return StepReport(
        eta_new=eta_new,
        ml_before=ml_before,
        ml_after=ml_after,
        gamma=gamma,
        backtracks=backtracks,
        factors=f,
        state=OptimizerState(here, grad, tau_new, active, b_new),
    )


def _em_profile(z: np.ndarray):
    """The M-step's closed form in beta from Z = diag(U^-1 M U^-T), M the second moment.

    Returns (lam_star, objective, best_beta).  lam_star(beta) = Tr(K_b^-1 M) / n
    is the closed-form lam for fixed beta.  The unit kernel's inverse is
    U^-T diag(1 / c) U^-1 (kernel module docstring), so lam* = sum_m Z_m / c_m / n,
    and for n >= 2

        F(beta) = n (1 - beta) beta^n lam* = sum_(m<n) Z_m beta^(n-m) + Z_n (1 - beta),

    a polynomial of degree n - 1 whose coefficients, Z reversed with Z_n
    taken from the linear one, are read off once (n = 1: lam* = Z_1 / beta).
    lam_star is inf wherever the inverse does not exist or overflows
    (_inverse_scale): beta = 0, beta = 1 for n >= 2, beta^n underflowing.
    objective(beta) = n log lam* + log det K_b is the M-step objective
    profiled over lam, for 0 < beta < 1; it is inf wherever lam* is not
    finite and positive.

    best_beta() minimizes the objective on [BETA_EPS, 1 - BETA_EPS] (see
    _best_beta); it returns None where there is nothing to search.
    """
    n = z.size
    coef = z[::-1].copy()  # F's coefficients of beta^0 .. beta^(n-1)
    coef[1:2] -= z[-1]  # the -Z_n beta term, absent for n = 1
    k = np.arange(n, dtype=float)
    half = 0.5 * n * (n + 1)

    def lam_star(beta: float) -> float:
        scale = _inverse_scale(beta, n)
        if scale is None:
            return math.inf
        return float(coef @ beta**k) / (n * scale)

    def objective(beta: float) -> float:
        lam = lam_star(beta)
        if not math.isfinite(lam) or lam <= 0.0:
            return math.inf
        return n * math.log(lam) + half * math.log(beta) + (n - 1) * math.log1p(-beta)

    def best_beta():
        # n = 1 leaves the objective flat in beta: log lam* + log beta = log Z_1
        return _best_beta(coef) if n > 1 else None

    return lam_star, objective, best_beta


def _inverse_scale(beta: float, n: int):
    """Divisor (1 - beta) beta^n (n = 1: beta) of the unit kernel's inverse; None if that overflows."""
    scale = beta if n == 1 else (1.0 - beta) * beta**n
    if scale == 0.0 or not math.isfinite((1.0 + beta) / scale):
        return None
    return scale


@functools.lru_cache(maxsize=8)
def _beta_grid(n: int):
    """em's search grid on [BETA_EPS, 1 - BETA_EPS] for n taps, computed once per n.

    Returns the points, uniform in logit(beta) so that they crowd toward
    both ends of the box; their powers beta^0 .. beta^(n-1), one row each;
    the beta-only part of the profiled objective, -n(n-1)/2 log beta -
    log(1 - beta); and the mask of points where lam* exists.
    """
    lo, hi = BETA_EPS, 1.0 - BETA_EPS
    s = np.linspace(math.log(lo / (1.0 - lo)), math.log(hi / (1.0 - hi)), _GRID_POINTS)
    beta = 1.0 / (1.0 + np.exp(-s))
    beta[0], beta[-1] = lo, hi
    powers = beta[:, None] ** np.arange(n, dtype=float)
    exists = np.array([_inverse_scale(b, n) is not None for b in beta.tolist()])
    base = -0.5 * n * (n - 1) * np.log(beta) - np.log1p(-beta)
    for arr in (beta, powers, base, exists):
        arr.flags.writeable = False
    return beta, powers, base, exists


def _best_beta(coef: np.ndarray):
    """Minimizer over [BETA_EPS, 1 - BETA_EPS] of em's profiled objective, for n = coef.size >= 2.

    Up to the constant n log n the objective is

        phi(beta) = n log F(beta) - n(n-1)/2 log beta - log(1 - beta),

    F the polynomial with coefficients ``coef``.  One product against a
    cached grid of beta powers locates the global minimum among the grid
    points where lam* exists, and safeguarded Newton on the closed-form
    derivative phi' = n F'/F - n(n-1)/(2 beta) + 1/(1 - beta) polishes it
    inside the bracket of its two grid neighbours, bisecting whenever a
    Newton step would leave the bracket or shrink it too slowly; it stops
    once a step is below EM_BETA_TOL.  Returns None when lam* exists at no
    grid point.
    """
    n = coef.size
    grid, powers, base, exists = _beta_grid(n)
    f_grid = powers @ coef
    ok = exists & (f_grid > 0.0)
    if not ok.any():
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(ok, n * np.log(f_grid) + base, np.inf)
    j = int(np.argmin(phi))
    x = float(grid[j])
    a = float(grid[j - 1]) if j > 0 and ok[j - 1] else x
    b = float(grid[j + 1]) if j + 1 < grid.size and ok[j + 1] else x

    # rows: F, F' and F'' as polynomials in beta
    k = np.arange(n, dtype=float)
    derivs = np.zeros((3, n))
    derivs[0] = coef
    derivs[1, :-1] = k[1:] * coef[1:]
    derivs[2, :-2] = k[2:] * k[1:-1] * coef[2:]
    tri = 0.5 * n * (n - 1)
    dx_old = dx = b - a
    for _ in range(_NEWTON_MAX_ITER):
        f0, f1, f2 = (derivs @ x**k).tolist()
        if not f0 > 0.0:  # F rounded to <= 0 between two grid points: keep the grid's pick
            return float(grid[j])
        r1, r2 = f1 / f0, f2 / f0
        d1 = n * r1 - tri / x + 1.0 / (1.0 - x)
        d2 = n * (r2 - r1 * r1) + tri / (x * x) + 1.0 / ((1.0 - x) * (1.0 - x))
        if d1 < 0.0:
            a = x
        else:
            b = x
        newton = x - d1 / d2 if d2 > 0.0 else math.nan
        if a < newton < b and abs(2.0 * d1) <= abs(dx_old * d2):
            dx_old, dx = dx, d1 / d2
            x = newton
        else:
            dx_old, dx = dx, 0.5 * (b - a)
            x = a + dx
        if abs(dx) <= EM_BETA_TOL:
            break
    return x


def em_step(ctx: MLContext, eta: Hyperparameters, method: str) -> StepReport:
    """One EM update: posterior second moment at eta, then the exact M-step.

    lam has the closed form Tr(K_b^-1 M) / n for fixed beta, with M the
    posterior second moment (_em_profile).  ``em`` takes M = P + h h' and
    minimizes the lam-profiled objective over beta (_best_beta), compared
    against the current beta so the evidence never degrades.  ``em1``
    (M = h h', the covariance dropped) and ``em2`` (M = P + h h') keep beta
    frozen; where _inverse_scale is None there is no lam*, and they hold eta
    with gamma = 0.  The M-step reads M only through Z = diag(U^-1 M U^-T)
    (likelihood._root_moment, O(n^2) given the factor at eta), and the
    report carries the factor at the new eta; both values are O(n) given
    their factors.
    """
    if method not in EM_METHODS:
        raise ValueError(f"unknown EM method {method!r}")
    f = likelihood._factorize(ctx, eta)
    z = _root_mean(f) ** 2 if method == "em1" else _root_moment(ctx, f)
    lam_star, objective, best_beta = _em_profile(z)
    if float(z.sum()) <= 0.0:
        # Degenerate posterior (lam already 0, or a zero kernel at beta = 0):
        # the M-step sends lam to the boundary, and neither beta nor the
        # kernel inverse is needed.
        eta_new = Hyperparameters(0.0, eta.beta)
    elif method == "em":
        beta_cur = _interior(eta).beta
        g_cur = objective(beta_cur)
        beta_new = best_beta()
        g_new = math.inf if beta_new is None else objective(beta_new)
        beta_sel = beta_new if g_new < g_cur else beta_cur
        # lam = 0 when neither beta gave a finite objective
        lam_sel = lam_star(beta_sel) if min(g_new, g_cur) < math.inf else 0.0
        eta_new = Hyperparameters(lam_sel, beta_sel)
    else:
        lam_new = lam_star(eta.beta)
        if lam_new == math.inf:
            ml = _value(ctx, f)
            return StepReport(eta, ml, ml, 0.0, 0, f, None)
        eta_new = Hyperparameters(max(lam_new, 0.0), eta.beta)

    f_new = likelihood._factorize(ctx, eta_new)
    return StepReport(eta_new, _value(ctx, f), _value(ctx, f_new), 1.0, 0, f_new, None)


def fresh_state(
    ctx: MLContext,
    eta: Hyperparameters,
    *,
    lambda_only: bool = False,
) -> OptimizerState:
    """Optimizer state with a usable secant seed.

    The seed is eta scaled by (1 + 1e-3) componentwise (clamped to the box),
    whose gradient is evaluated on the current context.
    """
    active = (0,) if lambda_only else (0, 1)
    eta_prev = _clamp_box(eta.lam * (1.0 + 1e-3), eta.beta * (1.0 + 1e-3))
    grad_prev, _, _ = _grad_at(ctx, Hyperparameters(*eta_prev), active)
    return OptimizerState(
        eta_prev=eta_prev,
        grad_prev=grad_prev,
        tau=TAU0,
        active=active,
    )


def step(
    ctx: MLContext, state, eta: Hyperparameters, method: str, cfg: OptimizerConfig, frozen=None
):
    """One update of ``method`` from eta: gradient_step from ``state`` and ``frozen``, or em_step."""
    if method in GRADIENT_METHODS:
        return gradient_step(ctx, state, eta, method, cfg, frozen)
    return em_step(ctx, eta, method)


def opt_until_convergence(
    ctx: MLContext,
    eta0: Hyperparameters,
    method: str = "sgp",
    cfg: OptimizerConfig = None,
    lambda_only: bool = False,
):
    """Iterate the chosen updater on fixed data until the objective settles.

    Stops when |L_j - L_{j-1}| <= opt_tol * (1 + |L_j|) or after opt_max_iter
    iterations.  Returns (StepReport, iterations): the last iteration's
    report, whose eta_new is the result, whose factor gives its posterior
    mean and whose state (None for EM) holds a secant seed in its
    eta_prev/grad_prev, with the iteration count.

    A lam-only run of a gradient method visits many lam at one beta, so
    every iteration reads the likelihood from one likelihood._FrozenBeta
    eigendecomposition, and the result alone is factored by _factorize,
    which gives the report its factor and its ml_after (ml_before stays the
    eigendecomposition's value).  The fresh_state seed keeps the Cholesky
    path: its gradient is taken at beta * (1 + 1e-3), not at the frozen
    beta, so the eigendecomposition cannot serve it.  EM runs, em1 and em2
    included, factor every iteration as one-step batches do.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cfg = cfg or OptimizerConfig()
    if cfg.opt_max_iter < 1:
        raise ValueError(f"opt_max_iter must be >= 1, got {cfg.opt_max_iter}")
    eta = eta0
    state = frozen = None
    if method in GRADIENT_METHODS:
        state = fresh_state(ctx, eta0, lambda_only=lambda_only)
        if lambda_only:
            frozen = likelihood._FrozenBeta(ctx, eta0.beta)
    iterations = 0
    for _ in range(cfg.opt_max_iter):
        rep = step(ctx, state, eta, method, cfg, frozen)
        state = rep.state
        eta = rep.eta_new
        iterations += 1
        if abs(rep.ml_after - rep.ml_before) <= cfg.opt_tol * (1.0 + abs(rep.ml_after)):
            break
    if frozen is not None:
        f = likelihood._factorize(ctx, eta)
        rep = replace(rep, ml_after=_value(ctx, f), factors=f)
    return rep, iterations
