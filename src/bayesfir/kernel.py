"""Tuned/correlated (TC) kernel structure used as FIR impulse-response priors.

The kernel over tap indices i, j = 1..n is

    K[i, j] = lam * beta ** max(i, j),

which encodes exponentially decaying, positively correlated impulse
responses.  ``lam`` scales the prior variance and ``beta`` controls the
decay rate.  The feasible box is lam >= 0, 0 <= beta <= 1.

The kernel is never formed.  With U the upper-triangular all-ones matrix,

    K = lam * U diag(c) U',   c_m = beta**m (1 - beta) (m < n),  c_n = beta**n,

and every c_m >= 0, so U diag(sqrt(lam * c)) is an exact square root on the
whole closed box, boundary included (Chen & Ljung, Automatica 2013).  The
log-derivative of its weights is closed form and finite everywhere inside
the box, g = d log sqrt(c) / d beta (dlog_root_weights), so dK/dbeta =
lam U diag(2 g c) U' needs no division by c; the likelihood gradient reads
it in the root's basis.  So is the inverse: wherever every c_m > 0,
U^-T diag(1 / (lam * c)) U^-1, which is diagonal in the root's basis.  The
EM M-step reads it there (optim._em_profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel hyperparameters: scale ``lam`` >= 0 and decay ``beta`` in [0, 1]."""

    lam: float
    beta: float

    def __post_init__(self):
        lam = float(self.lam)
        beta = float(self.beta)
        if not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not math.isfinite(beta) or not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta", beta)


def tc_block_weights(n: int, beta: float) -> np.ndarray:
    """Weights c >= 0 with the unit-scale kernel beta ** max(i, j) == sum_m c[m] * B_m.

    B_m is the rank-one block indicator (ones on the leading m-by-m block),
    i.e. U diag(c) U' with U the upper-triangular all-ones matrix:
    c[m] = beta**m (1 - beta) for m < n and c[n] = beta**n (1-based).
    """
    if n < 1:
        raise ValueError(f"kernel order must be >= 1, got {n}")
    powers = beta ** np.arange(1, n + 1, dtype=float)
    c = powers * (1.0 - beta)
    c[-1] = powers[-1]
    return c


def dlog_root_weights(n: int, beta: float) -> np.ndarray:
    """g = d log sqrt(c) / d beta inside the box (0 < beta < 1), c = tc_block_weights(n, beta).

    From c_m = beta**m (1 - beta) for m < n and c_n = beta**n (1-based),
    g_m = (m / beta - 1 / (1 - beta)) / 2 and g_n = n / (2 beta), so the
    root's derivative is g * sqrt(c) and c' = 2 g c.  Nothing here divides
    by c, which underflows at large m.
    """
    g = np.arange(1.0, n + 1.0) * (0.5 / beta)
    g[:-1] -= 0.5 / (1.0 - beta)
    return g
