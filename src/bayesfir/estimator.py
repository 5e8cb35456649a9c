"""Online empirical Bayes FIR estimator.

Each arriving batch is folded into the sufficient statistics, the noise
variance is re-estimated from the running least-squares residual, the kernel
hyperparameters receive exactly one update of the configured method
(``optim.step``; a full re-optimization in ``opt`` mode), and the
impulse-response estimate is the posterior mean under the updated prior.
Per-batch work is O(n^3) and state is O(n^2), independent of how much data
has streamed past.

The warmup's result is a ``WarmStart`` record apart from the estimator that
computed it: ``initialize`` optimizes the first chunk once and returns the
record, and ``start`` lets any estimator of the same order and
``OptimizerConfig`` begin from it, whatever its method, mode or
``lambda_only``.  The warmup and every ``opt``-mode batch solve from the
same from-scratch start: lam0 = ybar / (nbar * n), and beta0 = BETA0 unless
beta is frozen.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from .kernel import Hyperparameters
from .likelihood import MLContext, _mean
from .optim import METHODS, TAU0, OptimizerConfig, OptimizerState, opt_until_convergence, step
from .stats import Batch, SufficientStats, ingest, noise_variance

BETA0 = 0.9  # initial kernel decay before the warmup optimization
MODES = ("onestep", "opt")


@dataclass(frozen=True)
class WarmStart:
    """The warmup's result, shared by every estimator that starts from it.

    ``eta`` is the warmup optimum; ``eta_prev`` and ``grad_prev`` are the
    last iterate before it and its gradient over both coordinates, the
    secant seed of the online updates.  ``stats`` is never mutated (ingest
    returns new statistics), so one record serves any number of estimators.
    """

    config: OptimizerConfig
    stats: SufficientStats
    sigma2: float
    eta: Hyperparameters
    eta_prev: tuple
    grad_prev: tuple


@dataclass(frozen=True)
class EstimateSnapshot:
    """Impulse-response estimate and diagnostics after one processed batch."""

    h: np.ndarray
    eta: Hyperparameters
    sigma2: float
    nbar: int
    batch_index: int
    seconds: float


class OnlineEstimator:
    """Streaming FIR estimator with one-step hyperparameter adaptation.

    Every batch, single samples included, takes the same path: ingest, the
    noise variance from the ridge-guarded least-squares residual of
    ``stats.noise_variance``, one hyperparameter update, and the posterior
    mean.  The likelihood evaluations behind the update factor only an
    n-by-n inner matrix built from the TC kernel's closed-form square root;
    the kernel itself and the posterior covariance are never formed.  Every
    update (a gradient step, an EM step, or the last iteration of a full
    re-optimization) hands back the factor at its new eta, so the mean
    costs no further factorization.  A lam-only gradient re-optimization
    (``opt`` mode) seeds and steps on one eigendecomposition of the
    frozen-beta inner matrix instead and factors only its result; em1 and
    em2 in ``opt`` mode factor every iteration.

    Parameters
    ----------
    n : FIR order (number of impulse-response taps), an integer >= 1.
    method : one of "bb", "sgp", "bfgs", "em", "em1", "em2".
    mode : "onestep" applies a single update per batch; "opt" re-runs the
        chosen updater to convergence on every batch (the reference baseline).
    lambda_only : freeze beta and adapt lam alone (implied by em1/em2).
    config : the optimizer's settable values; defaults match OptimizerConfig.
    """

    def __init__(
        self,
        n: int,
        method: str = "sgp",
        mode: str = "onestep",
        lambda_only: bool = False,
        config: OptimizerConfig = None,
    ):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        if method == "em" and lambda_only:
            raise ValueError("use method 'em1' or 'em2' for lambda-only EM updates")
        if isinstance(n, bool):
            raise TypeError(f"n must be an integer, got {n!r}")
        self.n = operator.index(n)  # TypeError for 2.5 and other non-integers
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        self.method = method
        self.mode = mode
        self.lambda_only = bool(lambda_only) or method in ("em1", "em2")
        self.config = config or OptimizerConfig()
        self._stats = None
        self._eta = None
        self._opt_state = None
        self._batch_index = 0

    @property
    def initialized(self) -> bool:
        return self._stats is not None

    def initialize(self, u, y) -> WarmStart:
        """Warm up: ingest the first chunk, optimize eta to convergence, and start.

        The initial guess is lam0 = ybar / (nbar * n) (output power spread
        over the taps) and beta0 = 0.9; the warmup runs the full SGP
        optimization whatever this estimator's method, and its last two
        iterates seed the online secant pair.  Returns the record, which
        ``start`` accepts on other estimators of the same n and config.
        """
        batch = Batch(u, y)
        stats = ingest(SufficientStats.empty(self.n), batch)
        sigma2 = noise_variance(stats)
        rep = self._from_scratch(MLContext(stats, sigma2), BETA0, "sgp", False)
        warm = WarmStart(
            config=self.config,
            stats=stats,
            sigma2=sigma2,
            eta=rep.eta_new,
            eta_prev=rep.state.eta_prev,
            grad_prev=rep.state.grad_prev,
        )
        self.start(warm)
        return warm

    def start(self, warm: WarmStart) -> None:
        """Begin the stream from a warmup record, keeping the active gradient coordinates."""
        if warm.stats.n != self.n:
            raise ValueError(f"warm start has n={warm.stats.n}, estimator has n={self.n}")
        if warm.config != self.config:
            raise ValueError(
                f"warm start was optimized with {warm.config}, estimator has {self.config}"
            )
        active = (0,) if self.lambda_only else (0, 1)
        self._stats = warm.stats
        self._eta = warm.eta
        self._opt_state = OptimizerState(
            eta_prev=warm.eta_prev,
            grad_prev=tuple(warm.grad_prev[i] for i in active),
            tau=TAU0,
            active=active,
        )
        self._batch_index = 0

    def _from_scratch(self, ctx: MLContext, beta0: float, method: str, lambda_only: bool):
        """``method`` run to convergence from lam0 = ybar / (nbar * n) and beta0; its last report."""
        stats = ctx.stats
        eta0 = Hyperparameters(stats.ybar / (stats.nbar * self.n), beta0)
        rep, _ = opt_until_convergence(ctx, eta0, method, self.config, lambda_only=lambda_only)
        return rep

    def process_batch(self, u, y) -> EstimateSnapshot:
        """Fold one batch in and return the refreshed estimate.

        All state is committed only after every stage has succeeded, so a
        raised error leaves the estimator exactly as it was.
        """
        if not self.initialized:
            raise RuntimeError("initialize() or start() must run before process_batch()")
        start = time.perf_counter()
        batch = Batch(u, y)
        new_stats = ingest(self._stats, batch)
        sigma2 = noise_variance(new_stats)
        ctx = MLContext(new_stats, sigma2)

        if self.mode == "opt":
            # The full-optimization baseline restarts from the scale-aware
            # initializer every batch rather than polishing the previous
            # optimum, so its cost reflects a from-scratch solve.
            beta0 = self._eta.beta if self.lambda_only else BETA0
            rep = self._from_scratch(ctx, beta0, self.method, self.lambda_only)
        else:
            rep = step(ctx, self._opt_state, self._eta, self.method, self.config)

        eta_new = rep.eta_new
        h = _mean(rep.factors)
        elapsed = time.perf_counter() - start

        self._stats = new_stats
        self._eta = eta_new
        self._opt_state = rep.state
        self._batch_index += 1
        return EstimateSnapshot(
            h=h,
            eta=eta_new,
            sigma2=sigma2,
            nbar=new_stats.nbar,
            batch_index=self._batch_index,
            seconds=elapsed,
        )
