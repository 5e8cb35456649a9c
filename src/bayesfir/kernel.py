"""Tuned/correlated (TC) kernel structure used as FIR impulse-response priors.

The kernel over tap indices i, j = 1..n is

    K[i, j] = lam * beta ** max(i, j),

which encodes exponentially decaying, positively correlated impulse
responses.  ``lam`` scales the prior variance and ``beta`` controls the
decay rate.  The feasible box is lam >= 0, 0 <= beta <= 1.

The kernel is never formed.  With U the upper-triangular all-ones matrix,

    K = lam * U diag(c) U',   c_m = beta**m (1 - beta) (m < n),  c_n = beta**n,

and every c_m >= 0, so U diag(sqrt(lam * c)) is an exact square root on the
whole closed box, boundary included (Chen & Ljung, Automatica 2013).  Its
beta-derivative is closed-form too, and so is its exactly tridiagonal
inverse, which the EM M-step reads (optim._em_profile).
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

    def as_array(self) -> np.ndarray:
        return np.array([self.lam, self.beta])

    @classmethod
    def from_array(cls, eta) -> "Hyperparameters":
        lam, beta = np.asarray(eta, dtype=float)
        return cls(lam, beta)


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


def dbeta_block_weights(n: int, beta: float) -> np.ndarray:
    """Beta-derivative of tc_block_weights: d/dbeta beta ** max(i, j) == sum_m c[m] * B_m.

    Any matrix a[max(i, j)] splits into sum_m (a_m - a_{m+1}) B_m + a_n B_n;
    here a_m = m * beta ** (m - 1).  Positive weights collect the positive
    semidefinite part of the derivative and negative weights the rest, which
    is what the gradient sign-split needs.
    """
    m = np.arange(1, n + 1, dtype=float)
    a = m * beta ** (m - 1.0)
    c = np.empty(n)
    c[:-1] = a[:-1] - a[1:]
    c[-1] = a[-1]
    return c
