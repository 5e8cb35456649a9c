"""Streaming Bayesian FIR system identification.

Impulse responses are estimated under a TC (tuned/correlated) kernel prior
whose hyperparameters are adapted online: each arriving data batch triggers
exactly one marginal-likelihood optimization step, so the per-batch work is
independent of stream length.
"""

from .estimator import EstimateSnapshot, OnlineEstimator
from .kernel import Hyperparameters, NotPositiveDefiniteError
from .likelihood import NonFiniteLikelihoodError
from .optim import OptimizerConfig
from .stats import RankDeficientError

__version__ = "0.1.0"
