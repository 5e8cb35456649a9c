"""Synthetic benchmark systems, band-limited excitation, and fit scoring.

Test systems are random stable rational transfer functions (poles inside a
disk of radius 0.95, conjugate-closed) truncated to an n-tap impulse response
with unit Euclidean norm; systems whose response has not decayed to 1e-3 of
its peak by tap n are resampled.  The excitation is unit-variance white noise
shaped by a fixed 64-tap Hamming-windowed-sinc low-pass with cutoff at 0.8
times Nyquist.

Both filters are numpy-only, and bit-identical to scipy.signal's
``firwin(64, 0.8)`` and ``lfilter``, so this module does not load scipy.signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FILTER_TAPS = 64
FILTER_CUTOFF = 0.8  # relative to Nyquist
POLE_RADIUS = 0.95
ORDER_RANGE = (5, 10)
DECAY_TOL = 1e-3
MAX_RETRIES = 50


def _lowpass_taps(numtaps: int, cutoff: float) -> np.ndarray:
    """Hamming-windowed-sinc low-pass, unit gain at DC, as firwin computes it.

    The window coefficient 1 - 0.54 is spelled as firwin's general_hamming
    spells it; the literal 0.46 differs from it by one ulp.
    """
    m = np.arange(numtaps, dtype=float) - 0.5 * (numtaps - 1)
    window = 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, numtaps))
    h = cutoff * np.sinc(cutoff * m) * window
    return h / np.sum(h)


_LOWPASS = _lowpass_taps(FILTER_TAPS, FILTER_CUTOFF)


@dataclass(frozen=True)
class TrueSystem:
    """Ground-truth system: rational model plus its truncated impulse response."""

    order: int
    poles: np.ndarray
    zeros: np.ndarray
    gain: float
    h_true: np.ndarray


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark protocol knobs shared by the CLI commands, and their defaults.

    ``methods`` holds CLI method tokens (cli.METHOD_TOKENS), each of which
    says whether it is lambda-only.  The optimizer's constants are not part
    of the protocol: they live in optim.OptimizerConfig.
    """

    n: int = 80
    n_total: int = 5000
    n_warmup: int = 100
    n_k: int = 10
    snr: float = 5.0
    runs: int = 200
    seed: int = 0
    methods: tuple = ("bb", "sgp", "bfgs", "em", "em1", "em2", "opt")

    def __post_init__(self):
        if self.n < 1 or self.n_warmup < 1 or self.n_k < 1 or self.runs < 1:
            raise ValueError("n, n_warmup, n_k, and runs must all be >= 1")
        if self.n_total <= self.n_warmup:
            raise ValueError(
                f"n_total={self.n_total} must exceed n_warmup={self.n_warmup}"
            )
        if not self.snr > 0:  # NaN fails this test too
            raise ValueError(f"snr must be > 0, got {self.snr}")
        object.__setattr__(self, "methods", tuple(self.methods))


def _sample_in_disk(rng, count: int, radius: float) -> np.ndarray:
    """Conjugate-closed draw of ``count`` points uniform in a centered disk."""
    vals = []
    if count % 2:
        vals.append(complex(rng.uniform(-radius, radius)))
    for _ in range(count // 2):
        r = radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, np.pi)
        p = r * np.exp(1j * theta)
        vals.extend([p, np.conj(p)])
    return np.array(vals)


def impulse_response(b: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """First n impulse-response taps of the rational filter b(z^-1)/a(z^-1).

    Bit-identical to ``lfilter(b, a, impulse)``.  A polynomial denominator
    runs lfilter's transposed direct-form II on Python floats in its order of
    operations: both polynomials are zero-padded to one length and divided
    by a[0], then per sample y = z[0] + b[0] x and
    z[j] = (z[j+1] + x b[j+1]) - y a[j+1], the last state x b[-1] - y a[-1].
    A scalar denominator is a convolution, as in lfilter.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    imp = np.zeros(n)
    imp[0] = 1.0
    if a.size == 1:
        return np.convolve(b / a[0], imp)[:n]
    width = max(b.size, a.size)
    bn = (np.pad(b, (0, width - b.size)) / a[0]).tolist()
    an = (np.pad(a, (0, width - a.size)) / a[0]).tolist()
    b_mid, a_mid = bn[1:-1], an[1:-1]
    out = []
    z = [0.0] * (width - 1)
    for x in imp.tolist():
        y = z[0] + bn[0] * x
        z = [zj + x * bj - y * aj for zj, bj, aj in zip(z[1:], b_mid, a_mid)]
        z.append(x * bn[-1] - y * an[-1])
        out.append(y)
    return np.array(out)


def random_system(rng, n: int) -> TrueSystem:
    """Draw a random stable system and truncate it to n unit-norm taps.

    Up to MAX_RETRIES draws of order in ORDER_RANGE with poles inside
    POLE_RADIUS; a draw whose response has not decayed to DECAY_TOL of its
    peak by tap n is rejected.
    """
    for _ in range(MAX_RETRIES):
        order = int(rng.integers(ORDER_RANGE[0], ORDER_RANGE[1] + 1))
        poles = _sample_in_disk(rng, order, POLE_RADIUS)
        zeros = _sample_in_disk(rng, order - 1, 1.0)
        a = np.real(np.poly(poles))
        b_raw = np.real(np.poly(zeros))
        # One extra delay keeps the model strictly proper: b has degree
        # order-1 against a's degree order.
        b = np.concatenate([[0.0], b_raw])
        h_raw = impulse_response(b, a, n)
        norm = float(np.linalg.norm(h_raw))
        if norm < 1e-12:
            continue
        h_true = h_raw / norm
        if abs(h_true[-1]) > DECAY_TOL * np.max(np.abs(h_true)):
            continue
        return TrueSystem(
            order=order, poles=poles, zeros=zeros, gain=1.0 / norm, h_true=h_true
        )
    raise RuntimeError(f"no admissible system after {MAX_RETRIES} draws")


def bandlimited_input(rng, n_samples: int) -> np.ndarray:
    """Unit-variance Gaussian noise low-passed to [0, 0.8] of Nyquist."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    white = rng.standard_normal(n_samples)
    shaped = np.convolve(_LOWPASS, white)[:n_samples]
    scale = float(np.std(shaped))
    return shaped / scale if scale > 0.0 else shaped


def simulate_io(system: TrueSystem, u: np.ndarray, snr: float, rng) -> np.ndarray:
    """Noisy output y = h_true * u + e with var(e) = var(h_true * u) / snr."""
    u = np.asarray(u, dtype=float)
    y0 = np.convolve(system.h_true, u)[: u.size]
    noise_var = float(np.var(y0)) / snr
    return y0 + np.sqrt(noise_var) * rng.standard_normal(u.size)


def fit(h_true: np.ndarray, h_hat: np.ndarray) -> float:
    """Fit score 100 * (1 - ||h_true - h_hat|| / ||h_true||); 100 is exact recovery."""
    h_true = np.asarray(h_true, dtype=float)
    h_hat = np.asarray(h_hat, dtype=float)
    denom = float(np.linalg.norm(h_true))
    if denom == 0.0:
        raise ValueError("fit is undefined for an all-zero reference response")
    return 100.0 * (1.0 - float(np.linalg.norm(h_true - h_hat)) / denom)


def dump_dataset(path, u: np.ndarray, y: np.ndarray) -> None:
    """Write an input/output record as two-column text with a ``u,y`` header.

    Values are written with shortest round-trip precision so a reload
    reproduces the exact same doubles.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError("u and y must be one-dimensional and equally long")
    with open(path, "w") as fh:
        fh.write("u,y\n")
        for ui, yi in zip(u, y):
            # plain-float repr; numpy scalars would stringify as np.float64(...)
            fh.write(f"{float(ui)!r},{float(yi)!r}\n")


def load_dataset(path):
    """Read a dataset written by dump_dataset; returns (u, y).

    Raises ValueError naming the offending line number on malformed or
    non-finite input.
    """
    u, y = [], []
    with open(path) as fh:
        header = fh.readline()
        if header.strip() != "u,y":
            raise ValueError(f"{path}: line 1: expected header 'u,y'")
        for lineno, line in enumerate(fh, start=2):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two comma-separated values")
            try:
                ui, yi = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
            if not (math.isfinite(ui) and math.isfinite(yi)):
                raise ValueError(f"{path}: line {lineno}: non-finite value")
            u.append(ui)
            y.append(yi)
    if not u:
        raise ValueError(f"{path}: no samples found")
    return np.array(u), np.array(y)
