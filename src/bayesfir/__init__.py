"""Streaming Bayesian FIR system identification.

Impulse responses are estimated under a TC (tuned/correlated) kernel prior
whose hyperparameters are adapted online: each arriving data batch triggers
exactly one marginal-likelihood optimization step, so the per-batch work is
independent of stream length.

The top level exports the estimator and its hyperparameter pair; the
snapshot, optimizer constants and error types are imported from their
modules (``estimator``, ``optim``, ``likelihood``, ``stats``).
"""

from .estimator import OnlineEstimator
from .kernel import Hyperparameters

__version__ = "0.1.0"
