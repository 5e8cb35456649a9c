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
beta-derivative and the exactly tridiagonal inverse are closed-form too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Unit kernel is singular, so its inverse and log-determinant do not exist."""


@dataclass(frozen=True)
class Hyperparameters:
    """Kernel hyperparameters: scale ``lam`` >= 0 and decay ``beta`` in [0, 1]."""

    lam: float
    beta: float

    def __post_init__(self):
        lam = float(self.lam)
        beta = float(self.beta)
        if not np.isfinite(lam) or lam < 0.0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not np.isfinite(beta) or not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta", beta)

    def as_array(self) -> np.ndarray:
        return np.array([self.lam, self.beta])

    @classmethod
    def from_array(cls, eta) -> "Hyperparameters":
        lam, beta = np.asarray(eta, dtype=float)
        return cls(lam, beta)


def unit_kernel_inverse_bands(n: int, beta: float):
    """(diag, offdiag) of the tridiagonal inverse of the unit-scale kernel.

    The kernel beta ** max(i, j) is a reversed min-type matrix, so its
    inverse is exactly tridiagonal:

        inv[1, 1]     = 1 / (beta * (1 - beta))          (1 / beta when n == 1)
        inv[i, i]     = (1 + beta) / (beta**i * (1 - beta))   for 1 < i < n
        inv[n, n]     = 1 / (beta**n * (1 - beta))
        inv[i, i + 1] = -1 / (beta**i * (1 - beta))

    Quadratic forms and traces against the inverse therefore cost O(n)
    instead of a dense factorization.  Raises when the kernel is singular:
    beta <= 0 always, beta >= 1 for n >= 2, or beta**n underflowing to zero.
    """
    if n < 1:
        raise ValueError(f"kernel order must be >= 1, got {n}")
    if beta <= 0.0 or (n >= 2 and beta >= 1.0):
        raise NotPositiveDefiniteError(f"unit kernel is singular at beta={beta!r}, n={n}")
    if n == 1:
        return np.array([1.0 / beta]), np.zeros(0)
    powers = beta ** np.arange(1, n + 1, dtype=float)
    if powers[-1] == 0.0:
        raise NotPositiveDefiniteError(f"beta**n underflows at beta={beta!r}, n={n}")
    # scale grows monotonically toward the tail, so the largest band entry is
    # (1 + beta) / ((1 - beta) * beta**n); if that scalar is finite nothing
    # else can overflow and the vector arithmetic below is warning-free.
    with np.errstate(over="ignore", divide="ignore"):
        top = (1.0 + beta) / ((1.0 - beta) * powers[-1])
    if not np.isfinite(top):
        raise NotPositiveDefiniteError(f"unit kernel inverse overflows at beta={beta!r}, n={n}")
    scale = 1.0 / ((1.0 - beta) * powers)
    diag = (1.0 + beta) * scale
    diag[0] = scale[0]
    diag[-1] = scale[-1]
    offdiag = -scale[:-1]
    return diag, offdiag


def unit_kernel_logdet(n: int, beta: float) -> float:
    """log det of the unit-scale kernel: (n(n+1)/2) ln beta + (n-1) ln(1-beta)."""
    if n < 1:
        raise ValueError(f"kernel order must be >= 1, got {n}")
    if beta <= 0.0 or (n >= 2 and beta >= 1.0):
        raise NotPositiveDefiniteError(f"unit kernel is singular at beta={beta!r}, n={n}")
    return 0.5 * n * (n + 1) * np.log(beta) + (n - 1) * np.log1p(-beta)


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
