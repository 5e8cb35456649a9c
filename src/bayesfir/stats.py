"""Streaming sufficient statistics for FIR least squares.

Incoming input/output batches are compressed into {R, ytilde, ybar, nbar}
with R = Phi' Phi and ytilde = Phi' Y, so memory stays O(n^2) no matter how
long the stream runs.  The same Gram matrix in the cumulative-sum basis of
the TC kernel's square root, C = U' R U (U the upper-triangular all-ones
matrix), is folded in alongside R, since every likelihood evaluation reads
it.  Regressor rows follow the convention

    phi(t) = [u(t), u(t-1), ..., u(t-n+1)],

with inputs before time 1 taken as zero; the last n-1 inputs are carried
across batch boundaries so rows at a boundary are exact.

The noise variance is the least-squares residual, read off one Cholesky
factor of the augmented Gram matrix [[R, ytilde], [ytilde', ybar]].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

RIDGE_SCALE = 1e-8
NOISE_FLOOR = 1e-12


class RankDeficientError(np.linalg.LinAlgError):
    """Normal matrix R is numerically singular with nbar >= n samples."""


@dataclass(frozen=True)
class Batch:
    """One contiguous chunk of input/output samples."""

    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if u.ndim != 1 or y.ndim != 1:
            raise ValueError("batch u and y must be one-dimensional")
        if u.size != y.size:
            raise ValueError(f"batch length mismatch: {u.size} inputs vs {y.size} outputs")
        if u.size == 0:
            raise ValueError("batch must contain at least one sample")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ValueError("batch contains non-finite samples")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class SufficientStats:
    """Compressed regression statistics plus the input tail for row building.

    ``C`` = U' R U = cumsum(cumsum(R, 0), 1); ``ingest`` updates it with the
    batch's cumulative-sum rows, and it is computed from R when left out.
    """

    n: int
    R: np.ndarray
    ytilde: np.ndarray
    ybar: float
    nbar: int
    history: np.ndarray  # last n-1 inputs seen, oldest first
    C: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.C is None:
            object.__setattr__(self, "C", np.cumsum(np.cumsum(self.R, axis=0), axis=1))

    @classmethod
    def empty(cls, n: int) -> "SufficientStats":
        if n < 1:
            raise ValueError(f"model order must be >= 1, got {n}")
        return cls(
            n=n,
            R=np.zeros((n, n)),
            ytilde=np.zeros(n),
            ybar=0.0,
            nbar=0,
            history=np.zeros(n - 1),
        )


def regressor_rows(u: np.ndarray, history: np.ndarray, n: int) -> np.ndarray:
    """Build the batch regressor matrix, one row [u(t), ..., u(t-n+1)] per sample.

    ``history`` holds exactly the n-1 inputs that preceded this batch (zeros
    where the stream has not run that long yet).  The result is a read-only strided view.
    """
    ext = np.concatenate([history, u])
    # row t starts at u(t) = ext[n-1+t] and walks back n samples: a read-only
    # view with a negative column stride, no copy
    step = ext.strides[0]
    return np.lib.stride_tricks.as_strided(ext[n - 1:], shape=(u.size, n), strides=(step, -step), writeable=False)


def ingest(stats: SufficientStats, batch: Batch) -> SufficientStats:
    """Fold one batch into the statistics, returning a new instance.

    The caller's ``stats`` is never mutated, so a failed downstream update
    can simply keep the old object.
    """
    phi = regressor_rows(batch.u, stats.history, stats.n)
    psi = np.cumsum(phi, axis=1)  # rows of Phi U
    r_new = stats.R + phi.T @ phi
    c_new = stats.C + psi.T @ psi
    ytilde_new = stats.ytilde + phi.T @ batch.y
    ybar_new = stats.ybar + float(batch.y @ batch.y)
    history_new = np.concatenate([stats.history, batch.u])[-(stats.n - 1):] if stats.n > 1 else stats.history
    return SufficientStats(
        n=stats.n,
        R=r_new,
        ytilde=ytilde_new,
        ybar=ybar_new,
        nbar=stats.nbar + len(batch),
        history=history_new,
        C=c_new,
    )


def noise_variance(stats: SufficientStats) -> float:
    """Noise variance: the least-squares residual over nbar - n, floored at NOISE_FLOOR.

    The residual sum of squares min_h ||Y - Phi h||^2 = ybar - ytilde' R^-1 ytilde
    is the square of the last pivot of the Cholesky factor of the augmented
    Gram matrix [Phi Y]'[Phi Y] = [[R, ytilde], [ytilde', ybar]], so one
    dpotrf gives it and the least-squares vector is never formed.

    When the factorization fails inside the R block -- underdetermined early
    stream, or a band-limited input whose sample Gram matrix stays numerically
    singular well past nbar = n -- R is retried with the ridge
    RIDGE_SCALE * trace(R)/n * I added, and the residual is then
    ybar - ytilde' (R + ridge I)^-1 ytilde.  Only an exactly unidentifiable
    problem raises: some regressor column carries zero energy (a diagonal of
    R is zero) even though nbar >= n, so no amount of further data at this
    excitation can pin that coefficient down.  A failed last pivot alone
    means the residual rounded to zero or below (noise-free data); the floor
    keeps downstream likelihood evaluations well defined.  Up to nbar = n
    the residual carries no information, and the raw output power
    ybar / nbar bounds the noise until the stream catches up.
    """
    n, nbar = stats.n, stats.nbar
    g = np.empty((n + 1, n + 1))
    g[:n, :n] = stats.R
    g[:n, n] = g[n, :n] = stats.ytilde
    g[n, n] = stats.ybar
    if not np.isfinite(g).all():
        raise RankDeficientError("sufficient statistics are not finite")
    # g is symmetric, so g.T is the same matrix in Fortran order; this first
    # call factors a copy and leaves g for the ridge retry
    s, info = lapack.dpotrf(g.T, lower=1)
    if 0 < info <= n:
        diag = np.diagonal(stats.R)
        if nbar >= n and np.any(diag <= 0.0):
            raise RankDeficientError(
                f"unexcited regressor lag: R has a zero diagonal with nbar={nbar} >= n={n}"
            )
        trace = float(diag.sum())
        if trace > 0.0:  # else R = 0, which the check above allows only while nbar < n
            g.ravel()[: n * (n + 2) : n + 2] += RIDGE_SCALE * trace / n
            s, info = lapack.dpotrf(g.T, lower=1, overwrite_a=1)
            if 0 < info <= n:
                raise RankDeficientError("R is numerically singular even after ridge regularization")
    if nbar <= n:
        return max(stats.ybar / max(nbar, 1), NOISE_FLOOR)
    if info != 0:  # only the last pivot failed: the residual rounded to <= 0
        return NOISE_FLOOR
    pivot = float(s[n, n])
    # pivot * pivot, not pivot ** 2: pow is not correctly rounded, and the
    # product keeps sigma2 exactly equivariant under power-of-two rescaling
    return max(pivot * pivot / (nbar - n), NOISE_FLOOR)
