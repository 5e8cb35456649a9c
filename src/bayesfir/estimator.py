"""Online empirical Bayes FIR estimator.

Each arriving batch is folded into the sufficient statistics, the noise
variance is re-estimated from the running least-squares residual, the kernel
hyperparameters receive exactly one update of the configured method (or a
full re-optimization in ``opt`` mode), and the impulse-response estimate is
the posterior mean under the updated prior.  Per-batch work is O(n^3) and
state is O(n^2), independent of how much data has streamed past.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .kernel import Hyperparameters
from .likelihood import MLContext, _mean
from .optim import (
    GRADIENT_METHODS,
    METHODS,
    OptimizerConfig,
    OptimizerState,
    em_step,
    gradient_step,
    opt_until_convergence,
)
from .stats import Batch, SufficientStats, ingest, noise_variance

BETA0 = 0.9  # initial kernel decay before the warmup optimization
MODES = ("onestep", "opt")


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
    costs no further factorization.

    Parameters
    ----------
    n : FIR order (number of impulse-response taps).
    method : one of "bb", "sgp", "bfgs", "em", "em1", "em2".
    mode : "onestep" applies a single update per batch; "opt" re-runs the
        chosen updater to convergence on every batch (the reference baseline).
    lambda_only : freeze beta and adapt lam alone (implied by em1/em2).
    config : optimizer constants; defaults match OptimizerConfig.
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
        self.n = int(n)
        self.method = method
        self.mode = mode
        self.lambda_only = bool(lambda_only) or method in ("em1", "em2")
        self.config = config or OptimizerConfig()
        self._stats = None
        self._eta = None
        self._sigma2 = None
        self._opt_state = None
        self._batch_index = 0
        self._snapshot = None

    @property
    def initialized(self) -> bool:
        return self._stats is not None

    def initialize(self, u, y) -> None:
        """Warm up: ingest the first chunk and optimize eta to convergence.

        The initial guess is lam0 = ybar / (nbar * n) (output power spread
        over the taps) and beta0 = 0.9; the warmup runs the full SGP
        optimization and its last two iterates seed the online secant pair.
        """
        batch = Batch(u, y)
        stats = ingest(SufficientStats.empty(self.n), batch)
        sigma2 = noise_variance(stats)
        lam0 = stats.ybar / (stats.nbar * self.n)
        eta0 = Hyperparameters(lam0, BETA0)
        ctx = MLContext(stats, sigma2)
        rep, _ = opt_until_convergence(ctx, eta0, "sgp", self.config)
        active = (0,) if self.lambda_only else (0, 1)
        state = OptimizerState(
            eta_prev=rep.state.eta_prev,
            grad_prev=tuple(rep.state.grad_prev[i] for i in active),
            tau=self.config.tau0,
            active=active,
        )
        self._stats = stats
        self._eta = rep.eta_new
        self._sigma2 = sigma2
        self._opt_state = state
        self._batch_index = 0
        self._snapshot = None

    def process_batch(self, u, y) -> EstimateSnapshot:
        """Fold one batch in and return the refreshed estimate.

        All state is committed only after every stage has succeeded, so a
        raised error leaves the estimator exactly as it was.
        """
        if not self.initialized:
            raise RuntimeError("initialize() must run before process_batch()")
        start = time.perf_counter()
        batch = Batch(u, y)
        new_stats = ingest(self._stats, batch)
        sigma2 = noise_variance(new_stats)
        ctx = MLContext(new_stats, sigma2)

        state_new = self._opt_state
        if self.mode == "opt":
            # The full-optimization baseline restarts from the scale-aware
            # initializer every batch rather than polishing the previous
            # optimum, so its cost reflects a from-scratch solve.
            lam0 = new_stats.ybar / (new_stats.nbar * self.n)
            beta0 = self._eta.beta if self.lambda_only else BETA0
            rep, _ = opt_until_convergence(
                ctx, Hyperparameters(lam0, beta0), self.method, self.config,
                lambda_only=self.lambda_only,
            )
        elif self.method in GRADIENT_METHODS:
            rep = gradient_step(ctx, self._opt_state, self._eta, self.method, self.config)
            state_new = rep.state
        else:
            rep = em_step(ctx, self._eta, self.method, self.config)

        eta_new = rep.eta_new
        h = _mean(rep.factors)
        elapsed = time.perf_counter() - start

        self._stats = new_stats
        self._eta = eta_new
        self._sigma2 = sigma2
        self._opt_state = state_new
        self._batch_index += 1
        self._snapshot = EstimateSnapshot(
            h=h,
            eta=eta_new,
            sigma2=sigma2,
            nbar=new_stats.nbar,
            batch_index=self._batch_index,
            seconds=elapsed,
        )
        return self._snapshot

    def current_estimate(self) -> EstimateSnapshot:
        """Latest snapshot; read-only, so repeated calls agree exactly."""
        if self._snapshot is None:
            raise RuntimeError("no batch processed yet")
        return self._snapshot
