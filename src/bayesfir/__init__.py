"""Streaming Bayesian FIR system identification.

Impulse responses are estimated under a TC (tuned/correlated) kernel prior
whose hyperparameters are adapted online: each arriving data batch triggers
exactly one marginal-likelihood optimization step, so the per-batch work is
independent of stream length.
"""

from .estimator import EstimateSnapshot, OnlineEstimator
from .kernel import Hyperparameters, NotPositiveDefiniteError
from .likelihood import (
    MLContext,
    NonFiniteLikelihoodError,
    grad_neg_log_ml,
    neg_log_ml,
    posterior_moments,
)
from .optim import (
    OptimizerConfig,
    bb_stepsize,
    bfgs_update,
    em1_lambda,
    em2_lambda,
    em_step,
    gradient_step,
    opt_until_convergence,
    project,
    sgp_scaling,
)
from .simgen import (
    ExperimentConfig,
    bandlimited_input,
    fit,
    random_system,
    simulate_io,
)
from .stats import (
    Batch,
    IllConditionedUpdateError,
    RankDeficientError,
    SufficientStats,
    ingest,
    ls_estimate,
    noise_variance,
    regressor_rows,
    sherman_morrison_inverse_update,
)

__version__ = "0.1.0"
