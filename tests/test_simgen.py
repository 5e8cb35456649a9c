"""Random system draws, input shaping, output simulation, dataset files."""

import numpy as np
import pytest
from scipy.signal import firwin
from scipy.stats import chi2

from bayesfir import simgen
from bayesfir.simgen import (
    ExperimentConfig,
    bandlimited_input,
    dump_dataset,
    fit,
    impulse_response,
    load_dataset,
    random_system,
    simulate_io,
)

from oracles import (
    impulse_from_transfer,
    lfilter_bandlimited_input,
    lfilter_impulse_response,
)

N_TAPS = 30


def test_experiment_config_validation():
    ExperimentConfig()  # defaults are admissible
    for kwargs in (
        {"n": 0},
        {"n_total": 50, "n_warmup": 100},
        {"snr": 0.0},
        {"runs": 0},
        {"n_k": 0},
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


def test_system_draws_satisfy_the_contract():
    # 80 taps: long enough that the decay rejection stays rare and does not
    # distort the order histogram
    rng = np.random.default_rng(101)
    orders = []
    for _ in range(1000):
        sys = random_system(rng, 80)
        orders.append(sys.order)
        assert 5 <= sys.order <= 10
        assert np.all(np.abs(sys.poles) <= 0.95 + 1e-12)
        assert np.all(np.abs(sys.zeros) <= 1.0 + 1e-12)
        # conjugate closure keeps the difference equation real
        np.testing.assert_allclose(
            np.sort_complex(sys.poles), np.sort_complex(np.conj(sys.poles)), atol=1e-12
        )
        assert abs(np.linalg.norm(sys.h_true) - 1.0) < 1e-10
        assert abs(sys.h_true[-1]) <= 1e-3 * np.max(np.abs(sys.h_true))
    counts = np.bincount(orders, minlength=11)[5:11]
    # uniform over {5..10}: chi-square with 5 degrees of freedom
    stat = float(np.sum((counts - 1000 / 6.0) ** 2 / (1000 / 6.0)))
    assert stat < chi2.ppf(0.999, 5)


def test_true_response_matches_long_division():
    rng = np.random.default_rng(103)
    for _ in range(25):
        sys = random_system(rng, 80)
        a = np.real(np.poly(sys.poles))
        b = sys.gain * np.concatenate([[0.0], np.real(np.poly(sys.zeros))])
        np.testing.assert_allclose(
            sys.h_true, impulse_from_transfer(b, a, 80), rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(
            impulse_response(b, a, 80), impulse_from_transfer(b, a, 80),
            rtol=1e-10, atol=1e-12,
        )


def _same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_lowpass_taps_are_firwin_bit_for_bit():
    assert _same_bits(simgen._LOWPASS, firwin(simgen.FILTER_TAPS, simgen.FILTER_CUTOFF))


def test_impulse_response_is_lfilter_bit_for_bit():
    rng = np.random.default_rng(137)
    for n in (1, 2, 80, 200):
        for _ in range(150):
            order = int(rng.integers(5, 11))
            # a non-monic denominator exercises lfilter's normalization by a[0]
            a = rng.uniform(0.2, 5.0) * np.poly(simgen._sample_in_disk(rng, order, 0.95)).real
            b = np.concatenate([[0.0], np.poly(simgen._sample_in_disk(rng, order - 1, 1.0)).real])
            assert _same_bits(impulse_response(b, a, n), lfilter_impulse_response(b, a, n))
    # numerator and denominator of different lengths, and a scalar denominator
    for lb, la in ((1, 4), (6, 3), (4, 1), (1, 1)):
        b = rng.standard_normal(lb)
        a = np.concatenate([[rng.uniform(0.5, 2.0)], rng.standard_normal(la - 1)])
        assert _same_bits(impulse_response(b, a, 30), lfilter_impulse_response(b, a, 30))


def test_bandlimited_input_is_firwin_lfilter_bit_for_bit():
    for n_samples in (1, 63, 64, 65, 4096):
        got = bandlimited_input(np.random.default_rng(139), n_samples)
        ref = lfilter_bandlimited_input(np.random.default_rng(139), n_samples)
        assert _same_bits(got, ref)


def test_protocol_draws_match_the_scipy_path(monkeypatch):
    def draw(seed, run):
        rng = np.random.default_rng(np.random.SeedSequence((seed, run)))
        system = random_system(rng, 80)
        return system, simgen.bandlimited_input(rng, 700), rng.standard_normal()

    seeds = [(s, k) for s in range(3) for k in range(40)]
    draws = [draw(s, k) for s, k in seeds]
    monkeypatch.setattr(simgen, "impulse_response", lfilter_impulse_response)
    monkeypatch.setattr(simgen, "bandlimited_input", lfilter_bandlimited_input)
    for (s, k), (system, u, tail) in zip(seeds, draws):
        ref_system, ref_u, ref_tail = draw(s, k)
        assert system.order == ref_system.order and system.gain == ref_system.gain
        assert _same_bits(system.h_true, ref_system.h_true)
        # equal trailing draws: both paths consumed the generator alike
        assert _same_bits(u, ref_u) and tail == ref_tail


def test_undecayed_draws_are_rejected_or_disabled(monkeypatch):
    rng = np.random.default_rng(107)
    monkeypatch.setattr(simgen, "MAX_RETRIES", 5)
    with pytest.raises(RuntimeError, match="after 5 draws"):
        random_system(rng, 3)  # no order-5 system dies in 3 taps
    monkeypatch.setattr(simgen, "MAX_RETRIES", 0)
    with pytest.raises(RuntimeError):
        random_system(rng, 80)  # admissible at n = 80, but no draw is allowed


def test_bandlimited_input_statistics():
    rng = np.random.default_rng(109)
    u = bandlimited_input(rng, 4096)
    assert abs(float(np.std(u)) - 1.0) < 1e-12
    spectrum = np.abs(np.fft.rfft(u)) ** 2
    freqs = np.fft.rfftfreq(4096)
    high = freqs > 0.85 * 0.5
    assert float(spectrum[high].sum()) < 0.05 * float(spectrum.sum())
    assert bandlimited_input(rng, 1).shape == (1,)
    with pytest.raises(ValueError):
        bandlimited_input(rng, 0)


def test_simulate_io_snr_accounting():
    rng = np.random.default_rng(113)
    sys = random_system(rng, N_TAPS)
    u = bandlimited_input(rng, 5000)
    y = simulate_io(sys, u, 5.0, rng)
    y0 = np.convolve(sys.h_true, u)[: u.size]
    ratio = float(np.var(y0)) / float(np.var(y - y0))
    assert 4.0 < ratio < 6.25


def test_simulate_io_is_the_convolution():
    rng = np.random.default_rng(127)
    sys = random_system(rng, N_TAPS)
    # near-noiseless: an impulse input reads the taps back out
    impulse = np.zeros(N_TAPS)
    impulse[0] = 1.0
    y = simulate_io(sys, impulse, 1e30, rng)
    np.testing.assert_allclose(y, sys.h_true, rtol=1e-10, atol=1e-12)
    u = rng.standard_normal(200)
    y = simulate_io(sys, u, 1e30, rng)
    direct = np.zeros(200)
    for t in range(200):
        for i in range(min(t + 1, N_TAPS)):
            direct[t] += sys.h_true[i] * u[t - i]
    np.testing.assert_allclose(y, direct, rtol=1e-10, atol=1e-10)


def test_fit_scores():
    h = np.array([1.0, -0.5, 0.25])
    assert fit(h, h) == 100.0
    assert fit(h, np.zeros(3)) == 0.0
    assert fit(h, 2.0 * h) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fit(np.zeros(3), h)


def test_dataset_round_trip(tmp_path):
    rng = np.random.default_rng(131)
    u = rng.standard_normal(40)
    y = rng.standard_normal(40)
    path = tmp_path / "data.csv"
    dump_dataset(path, u, y)
    u2, y2 = load_dataset(path)
    np.testing.assert_array_equal(u2, u)
    np.testing.assert_array_equal(y2, y)
    with pytest.raises(ValueError):
        dump_dataset(tmp_path / "bad.csv", u, y[:-1])


def test_dataset_errors_name_the_line(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("time,value\n1.0,2.0\n")
    with pytest.raises(ValueError, match="line 1"):
        load_dataset(bad_header)
    bad_row = tmp_path / "r.csv"
    bad_row.write_text("u,y\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset(bad_row)
    bad_value = tmp_path / "v.csv"
    bad_value.write_text("u,y\n1.0,2.0\nx,3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_dataset(bad_value)
    for text in ("nan,1.0", "1.0,inf", "-inf,1.0", "1e400,1.0"):
        non_finite = tmp_path / "f.csv"
        non_finite.write_text(f"u,y\n1.0,2.0\n3.0,4.0\n{text}\n")
        with pytest.raises(ValueError, match="line 4: non-finite"):
            load_dataset(non_finite)
    empty = tmp_path / "e.csv"
    empty.write_text("u,y\n")
    with pytest.raises(ValueError, match="no samples"):
        load_dataset(empty)
