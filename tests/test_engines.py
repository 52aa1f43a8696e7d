import math

import numpy as np
import pytest

from nvforge import engines
from nvforge.curves import DecayCurve
from nvforge.engines import (
    HyperfineTriplet,
    attenuation_exponent,
    decay_time_grid,
    simulate_analytic,
    simulate_fid_beats,
    simulate_mc,
    t2_vs_n,
)
from nvforge.noise import NoiseModel, ou_cell_coefficients
from nvforge.presets import paper_like_noise, slow_bath_noise
from nvforge.sequences import build_sequence


def ramsey_chi_closed_form(b, tau_c, t):
    x = t / tau_c
    return b**2 * tau_c**2 * (math.exp(-x) - 1 + x)


def riemann_chi(seq, b, tau_c, total_t, n=10000):
    """Brute-force midpoint double sum of the attenuation integral."""
    edges = np.linspace(0.0, total_t, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = total_t / n
    signs = np.ones(n)
    for i, t_pi in enumerate(seq.pi_pulse_times(total_t)):
        signs[mids > t_pi] = (-1) ** (i + 1)
    chi = 0.0
    chunk = 500
    for i0 in range(0, n, chunk):
        block = np.exp(-np.abs(mids[i0 : i0 + chunk, None] - mids[None, :]) / tau_c)
        chi += float(np.sum(signs[i0 : i0 + chunk, None] * signs[None, :] * block))
    return 0.5 * b * b * h * h * chi


def pairwise_chi(seq, noise, total_t):
    """O(n^2) reference: diagonal cell integrals plus every cell pair."""
    tau = noise.tau_c_s
    edges = [0.0, *seq.pi_pulse_times(total_t), total_t]
    starts = np.array(edges[:-1])
    lengths = np.diff(edges)
    ends = starts + lengths
    signs = (-1.0) ** np.arange(lengths.size)
    one_m = 1.0 - np.exp(-lengths / tau)
    chi = float(np.sum(2.0 * tau * (lengths - tau * one_m)))
    for j in range(lengths.size - 1):
        gaps = starts[j + 1 :] - ends[j]
        cross = tau * tau * one_m[j] * one_m[j + 1 :] * np.exp(-gaps / tau)
        chi += 2.0 * float(np.sum(signs[j] * signs[j + 1 :] * cross))
    return 0.5 * noise.b_rad_s**2 * chi


@pytest.mark.parametrize(
    "kind,n", [("hahn", None), ("xy8", None), ("cpmg", 2), ("cpmg", 7), ("cpmg", 64), ("cpmg", 256)]
)
@pytest.mark.parametrize("b_tau", [0.1, 1.0, 10.0])
def test_chi_matches_pairwise_reference(kind, n, b_tau):
    # Below t/tau_c ~ 1 the reference itself loses digits to cancellation.
    tau_c = 1e-6
    noise = NoiseModel(b_tau / tau_c, tau_c)
    seq = build_sequence(kind, 1e-6, n=n)
    times = tau_c * np.geomspace(10.0, 1e3, 9)
    got = attenuation_exponent(seq, noise, times)
    want = [pairwise_chi(seq, noise, t) for t in times]
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def test_hahn_chi_matches_short_time_series():
    # chi = b^2 tau_c^2 (x^3/12 - x^4/32 + 7 x^5/960 + O(x^6)), x = t/tau_c.
    noise = NoiseModel(1e6, 1e-5)
    seq = build_sequence("hahn", 1e-6)
    for x in (1e-3, 3e-3):
        series = (noise.b_rad_s * noise.tau_c_s) ** 2 * (x**3 / 12 - x**4 / 32 + 7 * x**5 / 960)
        got = attenuation_exponent(seq, noise, x * noise.tau_c_s)
        assert got == pytest.approx(series, rel=1e-8, abs=0.0)


def test_chi_array_call_equals_scalar_calls():
    noise = NoiseModel(2e6, 1e-6)
    for kind, n in (("ramsey", None), ("hahn", None), ("cpmg", 64)):
        seq = build_sequence(kind, 1e-6, n=n)
        times = np.geomspace(1e-8, 1e-4, 17)
        got = attenuation_exponent(seq, noise, times)
        assert got.shape == times.shape
        assert np.array_equal(got, [attenuation_exponent(seq, noise, t) for t in times])


def test_ramsey_chi_matches_closed_form():
    noise = NoiseModel(1e6, 1e-6)
    seq = build_sequence("ramsey", 1e-6)
    for t in (1e-8, 1e-7, 1e-6, 5e-6, 2e-5):
        got = attenuation_exponent(seq, noise, t)
        want = ramsey_chi_closed_form(noise.b_rad_s, noise.tau_c_s, t)
        assert got == pytest.approx(want, rel=1e-12)


def test_ramsey_short_time_gaussian_limit():
    # For t << tau_c the exponent approaches b^2 t^2 / 2.
    noise = NoiseModel(2e6, 1e-5)
    seq = build_sequence("ramsey", 1e-6)
    t = noise.tau_c_s / 100
    chi = attenuation_exponent(seq, noise, t)
    assert chi == pytest.approx(noise.b_rad_s**2 * t**2 / 2, rel=5e-3)


def test_hahn_chi_matches_riemann_double_sum():
    tau_c = 1e-6
    noise = NoiseModel(1.0 / tau_c, tau_c)  # b * tau_c = 1
    t = 2 * tau_c
    seq = build_sequence("hahn", t / 2)
    closed = attenuation_exponent(seq, noise, t)
    brute = riemann_chi(seq, noise.b_rad_s, tau_c, t)
    assert closed == pytest.approx(brute, rel=1e-4)


def test_cpmg_chi_matches_riemann_double_sum():
    tau_c = 1e-6
    noise = NoiseModel(2.0 / tau_c, tau_c)
    seq = build_sequence("cpmg", 1e-6, n=4)
    t = 6e-6
    closed = attenuation_exponent(seq, noise, t)
    brute = riemann_chi(seq, noise.b_rad_s, tau_c, t)
    assert closed == pytest.approx(brute, rel=1e-4)


def test_chi_zero_at_zero_time_and_zero_coupling():
    seq = build_sequence("hahn", 1e-6)
    assert attenuation_exponent(seq, NoiseModel(0.0, 1e-6), 1e-5) == 0.0
    assert attenuation_exponent(seq, NoiseModel(1e6, 1e-6), 0.0) == 0.0


def test_analytic_noiseless_reduces_to_t1_channel():
    seq = build_sequence("hahn", 1e-6)
    noise = NoiseModel(0.0, 1e-6, t1_s=3.14e-3, t1_exponent_q=1.32)
    times = np.geomspace(1e-5, 1e-2, 20)
    curve = simulate_analytic(seq, noise, times)
    expected = np.exp(-((times / 3.14e-3) ** 1.32))
    assert np.allclose(curve.signal, expected, rtol=1e-12)


def test_analytic_signal_bounds_and_chi_properties():
    noise = NoiseModel(3e6, 2e-6)
    for kind, n in (("ramsey", None), ("hahn", None), ("cpmg", 8), ("xy8", None)):
        seq = build_sequence(kind, 1e-6, n=n)
        times = decay_time_grid(seq, noise, n_points=30, decay_lo=1e-4, decay_hi=6.0)
        curve = simulate_analytic(seq, noise, times)
        assert np.all(curve.signal > 0)
        assert np.all(curve.signal <= 1.0)
        chis = [attenuation_exponent(seq, noise, t) for t in times]
        assert all(c >= 0 for c in chis)


def test_refocusing_limit_many_pulses():
    # At fixed total time the CPMG filter suppresses the OU bath entirely
    # as n grows; with n = 512 the analytic signal matches the T1 channel
    # within 1e-3.
    noise = NoiseModel(paper_like_noise().b_rad_s, 1e-5, t1_s=3.14e-3, t1_exponent_q=1.32)
    seq = build_sequence("cpmg", 1e-6, n=512)
    t = 2e-5
    signal = simulate_analytic(seq, noise, [t]).signal[0]
    t1_only = math.exp(-((t / 3.14e-3) ** 1.32))
    assert abs(signal - t1_only) < 1e-3


def test_cpmg1_identical_to_hahn_both_engines():
    noise = NoiseModel(1e6, 1e-6)
    times = np.geomspace(1e-7, 1e-5, 10)
    hahn = build_sequence("hahn", 1e-6)
    cpmg1 = build_sequence("cpmg", 1e-6, n=1)
    an_h = simulate_analytic(hahn, noise, times)
    an_c = simulate_analytic(cpmg1, noise, times)
    assert np.array_equal(an_h.signal, an_c.signal)
    mc_h = simulate_mc(hahn, noise, times, 20000, seed=3)
    mc_c = simulate_mc(cpmg1, noise, times, 20000, seed=3)
    assert np.array_equal(mc_h.signal, mc_c.signal)


def test_ou_cell_coefficients_stationary_statistics():
    # One long cell: the integral variance must equal the closed-form
    # stationary result 2 b^2 tau (L - tau (1 - alpha)).
    b, tau, length = 2.3e6, 1.7e-6, 4.1e-6
    alpha, m_i, l11, l21, l22 = ou_cell_coefficients(b, tau, length)
    assert alpha == pytest.approx(math.exp(-length / tau), rel=1e-12)
    var_x_cond = l11**2
    assert var_x_cond + (alpha * b) ** 2 == pytest.approx(b**2, rel=1e-12)
    # Unconditional integral variance: Var(m_i x0 + noise) with x0 ~ N(0, b^2).
    var_i = (m_i * b) ** 2 + l21**2 + l22**2
    expected = 2 * b**2 * tau * (length - tau * (1 - alpha))
    assert var_i == pytest.approx(expected, rel=1e-10)


def test_ou_cell_coefficients_short_cell_limit():
    # Var(x(L) | x0) = b^2 (1 - alpha^2) -> 2 b^2 L / tau_c without cancellation.
    b, tau = 2.3e6, 1.7e-6
    length = 1e-12 * tau
    _, _, l11, _, _ = ou_cell_coefficients(b, tau, length)
    assert l11**2 == pytest.approx(2 * b**2 * length / tau, rel=1e-9)


def test_mc_never_evaluates_chi(monkeypatch):
    seq = build_sequence("cpmg", 1e-6, n=4)
    noise = NoiseModel(1e6, 1e-6)
    times = np.geomspace(1e-7, 1e-5, 5)
    expected = simulate_mc(seq, noise, times, 3000, seed=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the MC engine must not evaluate chi")

    monkeypatch.setattr(engines, "attenuation_exponent", forbidden)
    got = simulate_mc(seq, noise, times, 3000, seed=2)
    assert np.array_equal(got.signal, expected.signal)
    assert got.meta == expected.meta


def test_mc_noiseless_is_exactly_one():
    seq = build_sequence("hahn", 1e-6)
    curve = simulate_mc(seq, NoiseModel(0.0, 1e-6), [1e-6, 1e-5], 128, seed=1)
    assert np.all(curve.signal == 1.0)


def test_mc_bit_reproducible_and_block_order_independent():
    seq = build_sequence("cpmg", 1e-6, n=4)
    noise = NoiseModel(1e6, 1e-6)
    times = np.geomspace(1e-7, 2e-5, 12)
    a = simulate_mc(seq, noise, times, 50000, seed=7)
    b = simulate_mc(seq, noise, times, 50000, seed=7)
    assert np.array_equal(a.signal, b.signal)
    shuffled = simulate_mc(seq, noise, times, 50000, seed=7, _block_order=[3, 1, 0, 2])
    assert np.array_equal(a.signal, shuffled.signal)
    other = simulate_mc(seq, noise, times, 50000, seed=8)
    assert not np.array_equal(a.signal, other.signal)


def test_mc_motional_narrowing_agrees_with_analytic():
    # b*tau_c << 1: exponential decay at rate ~ b^2 tau_c; the MC estimate
    # agrees with the closed form within 3 sigma at every point.
    noise = NoiseModel(2 * math.pi * 1e6, 1e-8)
    seq = build_sequence("hahn", 1e-6)
    times = decay_time_grid(seq, noise, n_points=12)
    mc = simulate_mc(seq, noise, times, 40000, seed=11)
    an = simulate_analytic(seq, noise, times)
    stderr = np.array(mc.meta["mc_stderr"])
    assert np.all(np.abs(mc.signal - an.signal) <= 3 * stderr)
    rate = noise.b_rad_s**2 * noise.tau_c_s
    assert np.allclose(an.signal, np.exp(-rate * times), rtol=0.05)


def test_mc_agrees_with_analytic_across_regimes():
    times_rms = []
    for b_tau in (0.1, 1.0, 10.0):
        noise = NoiseModel(b_tau / 1e-6, 1e-6)
        seq = build_sequence("xy4", 1e-6)
        times = decay_time_grid(seq, noise, n_points=10)
        mc = simulate_mc(seq, noise, times, 30000, seed=5)
        an = simulate_analytic(seq, noise, times)
        times_rms.append(float(np.sqrt(np.mean((mc.signal - an.signal) ** 2))))
    assert max(times_rms) < 0.02


def test_mc_rejects_bad_trajectory_count():
    seq = build_sequence("hahn", 1e-6)
    with pytest.raises(ValueError):
        simulate_mc(seq, NoiseModel(1e6, 1e-6), [1e-6], 0, seed=1)


def test_fid_beats_signal_structure():
    triplet = HyperfineTriplet(50e6, 0.0)
    t = np.linspace(1e-9, 2e-7, 400)
    curve = simulate_fid_beats(triplet, 3.6e-6, t)
    expected = np.exp(-t / 3.6e-6) * np.cos(2 * math.pi * 50e6 * t)
    assert np.allclose(curve.signal, expected, atol=1e-12)


def test_fid_triplet_beat_node_at_one_third_a():
    # Equal-weight triplet: envelope (1 + 2 cos(2 pi A t))/3 first vanishes
    # at t = 1/(3A).
    a_hf = 2.16e6
    triplet = HyperfineTriplet(50e6, a_hf)
    node = 1.0 / (3 * a_hf)
    t = np.linspace(node - 2e-9, node + 2e-9, 5)
    envelope = (1 + 2 * np.cos(2 * math.pi * a_hf * t)) / 3
    assert abs(envelope[2]) < 1e-3
    curve = simulate_fid_beats(triplet, 1.0, t)
    assert abs(curve.signal[2]) < 1e-3


def test_fid_doublet_beat_node_at_one_half_a():
    # Spin-1/2 doublet (lines at +-A/2): envelope cos(pi A t) first vanishes
    # at t = 1/(2A) ~ 231 ns for A = 2.16 MHz.
    a_hf = 2.16e6
    doublet = HyperfineTriplet.doublet(50e6, a_hf)
    node = 1.0 / (2 * a_hf)
    assert node == pytest.approx(231.5e-9, rel=1e-3)
    tt = np.linspace(1e-10, 4e-7, 50000)
    curve = simulate_fid_beats(doublet, 50e6, tt)
    envelope = np.abs(np.cos(math.pi * a_hf * tt))
    first_node = tt[np.argmin(envelope)]
    assert first_node == pytest.approx(node, rel=1e-3)
    assert abs(curve.signal[np.argmin(np.abs(tt - node))]) < 2e-3


def test_fid_dominant_fft_peak_at_detuning():
    t = np.arange(1, 7200) * 2e-9
    curve = simulate_fid_beats(HyperfineTriplet(50e6, 0.0), 3.6e-6, t)
    spectrum = np.abs(np.fft.rfft(curve.signal, n=65536))
    freqs = np.fft.rfftfreq(65536, d=2e-9)
    peak = freqs[int(np.argmax(spectrum))]
    assert peak == pytest.approx(50e6, abs=1e6)


def test_fid_requires_positive_t2star():
    with pytest.raises(ValueError):
        simulate_fid_beats(HyperfineTriplet(50e6, 0.0), 0.0, [1e-9])


def test_hyperfine_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        HyperfineTriplet(50e6, 2e6, ((-1.0, 0.5), (1.0, 0.4)))


def test_t2_vs_n_first_point_equals_hahn():
    noise = NoiseModel(1e6, 1e-6)
    table = t2_vs_n(noise, [1])
    from nvforge import fitkit

    hahn = build_sequence("hahn", 1e-6)
    times = decay_time_grid(hahn, noise, n_points=40)
    curve = simulate_analytic(hahn, noise, times)
    direct = fitkit.fit(curve, fitkit.FitModel.stretched_exp(), fix={"c": 0.0})
    assert table[0][1] == pytest.approx(direct.params["t2_s"], rel=1e-9)


def test_t2_vs_n_slow_bath_scaling():
    # tau_c far above every pulse spacing: T2(n) ~ n^(2/3).
    noise = slow_bath_noise()
    table = t2_vs_n(noise, [4, 8, 16, 32, 64])
    ns = np.array([n for n, _ in table], dtype=float)
    t2s = np.array([t2 for _, t2 in table])
    slope = np.polyfit(np.log(ns), np.log(t2s), 1)[0]
    assert slope == pytest.approx(2 / 3, abs=0.1)


def test_t2_vs_n_paper_like_extension():
    table = dict(t2_vs_n(paper_like_noise(), [1, 4, 8, 16, 32, 64]))
    values = [table[n] for n in (1, 4, 8, 16, 32, 64)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert table[64] / table[1] >= 10.0


def test_t2_vs_n_rejects_empty_list():
    with pytest.raises(ValueError):
        t2_vs_n(NoiseModel(1e6, 1e-6), [])


def test_paper_like_preset_calibration():
    noise = paper_like_noise()
    assert noise.tau_c_s == 1e-5
    seq = build_sequence("hahn", 3.2e-6)
    assert attenuation_exponent(seq, noise, 6.4e-6) == pytest.approx(1.0, rel=1e-12)


def test_decay_time_grid_spans_requested_decay():
    noise = NoiseModel(1e6, 1e-6)
    seq = build_sequence("hahn", 1e-6)
    times = decay_time_grid(seq, noise, n_points=16, decay_lo=0.02, decay_hi=3.0)
    assert times.size == 16
    assert attenuation_exponent(seq, noise, times[0]) == pytest.approx(0.02, rel=1e-3)
    assert attenuation_exponent(seq, noise, times[-1]) == pytest.approx(3.0, rel=1e-3)


def test_decay_time_grid_rejects_no_decay():
    with pytest.raises(ValueError):
        decay_time_grid(build_sequence("hahn", 1e-6), NoiseModel(0.0, 1e-6))


def test_decay_curve_validation():
    with pytest.raises(ValueError):
        DecayCurve([1e-6, 1e-6], [1.0, 0.5])
    with pytest.raises(ValueError):
        DecayCurve([1e-6, 2e-6], [1.0, 1.2])
    with pytest.raises(ValueError):
        DecayCurve([1e-6, 2e-6], [1.0])
    with pytest.raises(ValueError):
        DecayCurve([], [])
