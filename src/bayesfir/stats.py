"""Streaming sufficient statistics for FIR least squares.

Incoming input/output batches are compressed into the augmented Gram matrix

    [Phi Y]'[Phi Y] = [[R, ytilde], [ytilde', ybar]],   R = Phi' Phi, ytilde = Phi' Y,

plus the sample count nbar, so memory stays O(n^2) no matter how long the
stream runs.  The same statistics in the cumulative-sum basis of the TC
kernel's square root, C = U' R U and U' ytilde (U the upper-triangular
all-ones matrix), are folded in alongside, since every likelihood
evaluation reads them.  Regressor rows follow the convention

    phi(t) = [u(t), u(t-1), ..., u(t-n+1)],

with inputs before time 1 taken as zero; the last n-1 inputs are carried
across batch boundaries so rows at a boundary are exact.

The noise variance is the least-squares residual, read off one Cholesky
factor of the stored augmented Gram matrix (LAPACK dpotrf from ``_lapack``,
scipy's Fortran wrapper loaded without scipy.linalg's package).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _lapack as lapack

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
        u = np.array(self.u, dtype=float, copy=None, ndmin=1)
        y = np.array(self.y, dtype=float, copy=None, ndmin=1)
        if u.ndim != 1 or y.ndim != 1:
            raise ValueError("batch u and y must be one-dimensional")
        if u.size != y.size:
            raise ValueError(f"batch length mismatch: {u.size} inputs vs {y.size} outputs")
        if u.size == 0:
            raise ValueError("batch must contain at least one sample")
        if not (np.isfinite(u).all() and np.isfinite(y).all()):
            raise ValueError("batch contains non-finite samples")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.u.size


@dataclass(frozen=True)
class SufficientStats:
    """Compressed regression statistics plus the input tail for row building.

    ``gram`` is the augmented Gram matrix [[R, ytilde], [ytilde', ybar]],
    read whole by ``noise_variance``; ``ybar`` reads its last diagonal
    entry.  ``C`` = U' R U (contiguous) and ``cum_y`` = U' ytilde are the
    same statistics in the kernel-root basis, which the likelihood reads.
    """

    n: int
    gram: np.ndarray
    C: np.ndarray
    cum_y: np.ndarray
    nbar: int
    history: np.ndarray  # last n-1 inputs seen, oldest first

    @property
    def ybar(self) -> float:
        return float(self.gram[self.n, self.n])

    @classmethod
    def empty(cls, n: int) -> "SufficientStats":
        if n < 1:
            raise ValueError(f"model order must be >= 1, got {n}")
        return cls(n, np.zeros((n + 1, n + 1)), np.zeros((n, n)), np.zeros(n), 0, np.zeros(n - 1))


@functools.lru_cache(maxsize=8)
def _window(n: int, m: int) -> np.ndarray:
    """Gather index of an m-sample batch's rows [u(t), ..., u(t-n+1), y(t)].

    It indexes the concatenation [history, u, y], whose first n-1 entries
    are the inputs that preceded the batch.  A stream has a batch size or
    two, so a handful of cached entries (8 m (n + 1) bytes each) serve every
    batch; gathering with one is a third of the cost of building the rows
    anew.
    """
    idx = np.empty((m, n + 1), dtype=np.intp)
    idx[:, :n] = (n - 1) + np.arange(m)[:, None] - np.arange(n)
    idx[:, n] = (n - 1 + m) + np.arange(m)
    idx.flags.writeable = False
    return idx


def ingest(stats: SufficientStats, batch: Batch) -> SufficientStats:
    """Fold one batch into the statistics, returning a new instance.

    The caller's ``stats`` is never mutated, so a failed downstream update
    can simply keep the old object.  With X = [Phi Y] the batch's augmented
    regressors and Psi = Phi U their cumulative sums along each row, the
    updates are the gemms X'X and Psi'Psi.  Each left factor is a transposed
    copy rather than a view, because numpy sends x.T @ x to syrk, which is
    about twice as slow as a gemm at these sizes.  The cumulative sums call
    np.add.accumulate, the ufunc behind np.cumsum, without the dispatch that
    costs np.cumsum more than the sum itself here.
    """
    n, m = stats.n, len(batch)
    ext = np.concatenate((stats.history, batch.u, batch.y))
    x = ext[_window(n, m)]
    gram = x.T.copy() @ x
    gram += stats.gram
    psi = np.add.accumulate(x[:, :n], axis=1)
    c = psi.T.copy() @ psi
    c += stats.C
    return SufficientStats(
        n=n,
        gram=gram,
        C=c,
        cum_y=np.add.accumulate(gram[:n, n]),
        nbar=stats.nbar + m,
        history=ext[m: m + n - 1],
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
    g = stats.gram
    if not np.isfinite(g).all():
        raise RankDeficientError("sufficient statistics are not finite")
    # g is symmetric, so g.T is the same matrix in Fortran order; dpotrf
    # factors a copy and the stored statistics stay as they are
    s, info = lapack.dpotrf(g.T, lower=1)
    if 0 < info <= n:
        diag = np.diagonal(g)[:n]
        if nbar >= n and np.any(diag <= 0.0):
            raise RankDeficientError(
                f"unexcited regressor lag: R has a zero diagonal with nbar={nbar} >= n={n}"
            )
        trace = float(diag.sum())
        if trace > 0.0:  # else R = 0, which the check above allows only while nbar < n
            ridged = g.copy()
            ridged.ravel()[: n * (n + 2) : n + 2] += RIDGE_SCALE * trace / n
            s, info = lapack.dpotrf(ridged.T, lower=1, overwrite_a=1)
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
