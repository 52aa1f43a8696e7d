import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvforge import engines, fixtures
from nvforge.curves import DecayCurve
from nvforge.engines import (
    GRID_DECAY_HI,
    GRID_DECAY_LO,
    HyperfineTriplet,
    attenuation_exponent,
    decay_time_grid,
    simulate_analytic,
    simulate_fid_beats,
    seeded_rng,
    simulate_mc,
    t2_vs_n,
)
from nvforge.levmar import NumericalFailure
from nvforge.noise import (
    SHORT_CELL_SWITCH,
    NoiseModel,
    conditional_integral_variance,
    ou_cell_coefficients,
)
from nvforge.presets import paper_like_noise, slow_bath_noise
from nvforge.sequences import build_sequence


def ramsey_chi_closed_form(b, tau_c, t):
    x = t / tau_c
    return b**2 * tau_c**2 * (math.expm1(-x) + x)


def pulse_times(n, total_t):
    """CPMG(n) pi-pulse instants in a window of length total_t, independent of cell_lengths."""
    return [(2 * k - 1) / (2 * n) * total_t for k in range(1, n + 1)]


def riemann_chi(seq, b, tau_c, total_t, n=10000):
    """Brute-force midpoint double sum of the attenuation integral."""
    edges = np.linspace(0.0, total_t, n + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = total_t / n
    signs = np.ones(n)
    for i, t_pi in enumerate(pulse_times(seq.n_pi, total_t)):
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
    edges = [0.0, *pulse_times(seq.n_pi, total_t), total_t]
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


def cpmg_series(n):
    """Per-n reference: coefficients of (n - 1) u(2h) + E(h) as Python floats, h^30 down to h^3."""
    coeffs = list(engines.CHI_E_SERIES)
    for i, c in enumerate(engines.CHI_U_SERIES):
        coeffs[2 * i] += (n - 1) * c
    return tuple(reversed(coeffs))


def running_sum_chi(seq, noise, times_s):
    """O(n) reference: one running sum over the cells of cell_lengths.

    With x_k = L_k/tau_c, a_k = exp(-x_k) and s_k = (-1)^k,
    chi = b^2 tau_c^2 [sum_k (x_k - (1-a_k)) + sum_k s_k (1-a_k) A_k], where
    A_0 = 0 and A_{k+1} = a_k A_k + s_k (1-a_k).  Its terms cancel for
    short cells, so it is a reference only where every L_k/tau_c >= 1e-2.
    """
    x = seq.cell_lengths(times_s) / noise.tau_c_s
    alpha = np.exp(-x)
    one_m = -np.expm1(-x)
    acc = np.zeros(x.shape[:-1])
    total = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        sign = 1.0 if k % 2 == 0 else -1.0
        total += x[..., k] - one_m[..., k] + sign * one_m[..., k] * acc
        acc = alpha[..., k] * acc + sign * one_m[..., k]
    return (noise.b_rad_s * noise.tau_c_s) ** 2 * total


def binary_bisection_grid(seq, noise, n_points=24):
    """Reference grid: one kernel call per probe doubling and per bisection step."""

    def total_exponent(t):
        extra = 0.0
        if not math.isinf(noise.t1_s):
            extra = (t / noise.t1_s) ** noise.t1_exponent_q
        return attenuation_exponent(seq, noise, t) + extra

    probe = noise.tau_c_s
    for _ in range(200):
        if total_exponent(probe) >= GRID_DECAY_HI:
            break
        probe *= 2.0
    else:
        raise ValueError("noise model produces no appreciable decay")

    targets = np.array([GRID_DECAY_LO, GRID_DECAY_HI])
    lo, hi = np.zeros(2), np.full(2, probe)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = total_exponent(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t_lo, t_hi = 0.5 * (lo + hi)
    if t_lo == 0.0:
        raise ValueError("decay starts below the smallest positive time")
    return np.geomspace(t_lo, t_hi, n_points)


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


def switch_time(n, tau_c):
    """Largest t whose series argument (t/tau_c for Ramsey, else t/(2 n tau_c)) is below its switch."""
    if n == 0:
        width, switch = tau_c, engines.RAMSEY_SERIES_SWITCH
    else:
        width, switch = 2 * n * tau_c, engines.CHI_SERIES_SWITCH
    t = switch * width
    while t / width >= switch:
        t = math.nextafter(t, 0.0)
    while math.nextafter(t, math.inf) / width < switch:
        t = math.nextafter(t, math.inf)
    return t


def cpmg_or_ramsey(n):
    return build_sequence("cpmg", 1e-6, n=n) if n else build_sequence("ramsey", 1e-6)


def test_chi_array_call_equals_scalar_calls():
    # Both parities of (-a)^(n-1), and points on both sides of the series
    # switch, where an array call mixes the two branches.
    noise = NoiseModel(2e6, 1e-6)
    for n in (0, 1, 2, 3, 7, 8, 2048):
        seq = cpmg_or_ramsey(n)
        edge = switch_time(n, noise.tau_c_s)
        times = np.concatenate([np.geomspace(1e-14, 4 * edge, 17), [edge, math.nextafter(edge, 1.0)]])
        got = attenuation_exponent(seq, noise, times)
        assert got.shape == times.shape
        assert np.array_equal(got, [attenuation_exponent(seq, noise, t) for t in times])


def test_ramsey_chi_matches_closed_form():
    noise = NoiseModel(1e6, 1e-6)
    seq = build_sequence("ramsey", 1e-6)
    for t in (1e-8, 1e-7, 1e-6, 5e-6, 2e-5):
        got = attenuation_exponent(seq, noise, t)
        want = ramsey_chi_closed_form(noise.b_rad_s, noise.tau_c_s, t)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_ramsey_short_time_gaussian_limit():
    # For t << tau_c the exponent approaches b^2 t^2 / 2.
    noise = NoiseModel(2e6, 1e-5)
    seq = build_sequence("ramsey", 1e-6)
    t = noise.tau_c_s / 100
    chi = attenuation_exponent(seq, noise, t)
    assert chi == pytest.approx(noise.b_rad_s**2 * t**2 / 2, rel=5e-3, abs=0.0)


def test_hahn_chi_matches_riemann_double_sum():
    tau_c = 1e-6
    noise = NoiseModel(1.0 / tau_c, tau_c)  # b * tau_c = 1
    t = 2 * tau_c
    seq = build_sequence("hahn", t / 2)
    closed = attenuation_exponent(seq, noise, t)
    brute = riemann_chi(seq, noise.b_rad_s, tau_c, t)
    assert closed == pytest.approx(brute, rel=1e-4, abs=0.0)


def test_cpmg_chi_matches_riemann_double_sum():
    tau_c = 1e-6
    noise = NoiseModel(2.0 / tau_c, tau_c)
    seq = build_sequence("cpmg", 1e-6, n=4)
    t = 6e-6
    closed = attenuation_exponent(seq, noise, t)
    brute = riemann_chi(seq, noise.b_rad_s, tau_c, t)
    assert closed == pytest.approx(brute, rel=1e-4, abs=0.0)


def test_chi_zero_at_zero_time_and_zero_coupling():
    seq = build_sequence("hahn", 1e-6)
    assert attenuation_exponent(seq, NoiseModel(0.0, 1e-6), 1e-5) == 0.0
    assert attenuation_exponent(seq, NoiseModel(1e6, 1e-6), 0.0) == 0.0
    # Without coupling chi is 0 also where t/tau_c overflows (1e10 / 1e-300),
    # for Ramsey, for Hahn and for a column of pulse counts.
    no_coupling = NoiseModel(0.0, 1e-300)
    times = np.array([1e-6, 1e10])
    for n in (0, 1):
        assert np.array_equal(attenuation_exponent(cpmg_or_ramsey(n), no_coupling, times), np.zeros(2))
    got = engines._chi(np.array([1, 2, 2048]), no_coupling, times[:, None])
    assert got.shape == (2, 3) and np.array_equal(got, np.zeros((2, 3)))


def test_analytic_noiseless_reduces_to_t1_channel():
    seq = build_sequence("hahn", 1e-6)
    noise = NoiseModel(0.0, 1e-6, t1_s=3.14e-3, t1_exponent_q=1.32)
    times = np.geomspace(1e-5, 1e-2, 20)
    curve = simulate_analytic(seq, noise, times)
    expected = np.exp(-((times / 3.14e-3) ** 1.32))
    assert np.allclose(curve.signal, expected, rtol=1e-12)


def test_longitudinal_exponent_owns_the_t1_law():
    times = np.array([0.0, 1e-6, 1e-3])
    assert np.array_equal(NoiseModel(1e6, 1e-6).longitudinal_exponent(times), np.zeros(3))
    assert np.array_equal(NoiseModel(1e6, 1e-6).longitudinal_factor(times), np.ones(3))
    # (1e-3 / 1e-300)^2 overflows: inf, with no RuntimeWarning under the suite's filter.
    tiny_t1 = NoiseModel(1e6, 1e-6, t1_s=1e-300, t1_exponent_q=2.0)
    assert tiny_t1.longitudinal_exponent(times).tolist() == [0.0, math.inf, math.inf]
    assert tiny_t1.longitudinal_factor(times).tolist() == [1.0, 0.0, 0.0]
    noise = NoiseModel(1e6, 1e-6, t1_s=3.14e-3, t1_exponent_q=1.32)
    times = np.geomspace(1e-7, 1.0, 50)
    factor = noise.longitudinal_factor(times)
    assert factor.tobytes() == np.exp(-noise.longitudinal_exponent(times)).tobytes()


def test_mc_rejects_nan_time():
    with pytest.raises(ValueError, match="times must be >= 0"):
        simulate_mc(build_sequence("hahn", 1e-6), NoiseModel(1e5, 1e-6), [math.nan], 10, 1)


def test_mc_rejects_no_time_points():
    with pytest.raises(ValueError, match="at least one time point"):
        simulate_mc(build_sequence("cpmg", 1e-6, n=7), NoiseModel(1e5, 1e-6), [], 10, 1)


def test_analytic_signal_bounds_and_chi_properties():
    noise = NoiseModel(3e6, 2e-6)
    for kind, n in (("ramsey", None), ("hahn", None), ("cpmg", 8), ("xy8", None)):
        seq = build_sequence(kind, 1e-6, n=n)
        # Reaches far past the grid's chi window [0.02, 3] at both ends.
        grid = decay_time_grid(seq, noise)
        times = np.geomspace(grid[0] / 100, grid[-1] * 2, 30)
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


@pytest.mark.parametrize(
    "kind, n", [("hahn", 1), ("xy4", 4), ("xy8", 8)], ids=["hahn-cpmg1", "xy4-cpmg4", "xy8-cpmg8"]
)
def test_cpmg1_identical_to_hahn_both_engines(kind, n):
    # Hahn, XY4 and XY8 are CPMG(1), CPMG(4) and CPMG(8): phases are not simulated.
    noise = NoiseModel(1e6, 1e-6)
    times = np.geomspace(1e-7, 1e-5, 10)
    seq = build_sequence(kind, 1e-6)
    cpmg = build_sequence("cpmg", 1e-6, n=n)
    an_s = simulate_analytic(seq, noise, times)
    an_c = simulate_analytic(cpmg, noise, times)
    assert an_s.signal.tobytes() == an_c.signal.tobytes()
    mc_s = simulate_mc(seq, noise, times, 20000, seed=3)
    mc_c = simulate_mc(cpmg, noise, times, 20000, seed=3)
    assert mc_s.signal.tobytes() == mc_c.signal.tobytes()
    assert mc_s.meta["mc_stderr"] == mc_c.meta["mc_stderr"]


def test_ou_cell_coefficients_stationary_statistics():
    # One long cell: the integral variance must equal the closed-form
    # stationary result 2 b^2 tau (L - tau (1 - alpha)).
    b, tau, length = 2.3e6, 1.7e-6, 4.1e-6
    alpha, m_i, l11, l21, l22 = ou_cell_coefficients(b, tau, length)
    assert alpha == pytest.approx(math.exp(-length / tau), rel=1e-12, abs=0.0)
    var_x_cond = l11**2
    assert var_x_cond + (alpha * b) ** 2 == pytest.approx(b**2, rel=1e-12, abs=0.0)
    # Unconditional integral variance: Var(m_i x0 + noise) with x0 ~ N(0, b^2).
    var_i = (m_i * b) ** 2 + l21**2 + l22**2
    expected = 2 * b**2 * tau * (length - tau * (1 - alpha))
    assert var_i == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_ou_cell_coefficients_short_cell_limit():
    # Var(x(L) | x0) = b^2 (1 - alpha^2) -> 2 b^2 L / tau_c without cancellation.
    b, tau = 2.3e6, 1.7e-6
    length = 1e-12 * tau
    _, _, l11, _, _ = ou_cell_coefficients(b, tau, length)
    assert l11**2 == pytest.approx(2 * b**2 * length / tau, rel=1e-9, abs=0.0)


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def decimal_conditional_variance(x: float) -> Decimal:
    """2 (x - 2 tanh(x/2)) = 2 (x - 2 (1 - e^-x) / (1 + e^-x)) in 80-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = Decimal(x)
        a = (-x).exp()
        return 2 * (x - 2 * (1 - a) / (1 + a))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(x=log_uniform(1e-12, 1e3))
@example(x=1e-8)  # var_i - l21^2 from their closed forms cancels to 0 here
@example(x=1e-6)  # and is 1e-3 low here
def test_ou_conditional_integral_variance_property(x):
    # Var(I | x0, x(L)) = var_i - l21^2 over L/tau_c in [1e-12, 1e3]: exact
    # to ~1e-14 relative on both sides of the switch, below which the
    # closed form's terms cancel.
    want = decimal_conditional_variance(x)
    got = conditional_integral_variance(x)
    assert abs(Decimal(got) / want - 1) <= Decimal("2e-14")
    if x < 1e-3:  # the leading terms of the series, exact in rationals
        xf = Fraction(x)
        series = xf**3 / 6 - xf**5 / 60 + 17 * xf**7 / 10080
        assert abs(Fraction(got) / series - 1) <= Fraction(1, 10**15)
    b, tau = 2.3e6, 1.7e-6
    *_, l22 = ou_cell_coefficients(b, tau, x * tau)
    assert abs(Decimal(l22) / (Decimal(b * tau) * want.sqrt()) - 1) <= Decimal("2e-14")


def test_ou_conditional_integral_variance_is_continuous_at_the_switch():
    below = conditional_integral_variance(math.nextafter(SHORT_CELL_SWITCH, 0.0))
    at = conditional_integral_variance(SHORT_CELL_SWITCH)
    assert at == pytest.approx(below, rel=1e-15, abs=0.0)
    assert at == pytest.approx(float(decimal_conditional_variance(SHORT_CELL_SWITCH)), rel=2e-14, abs=0.0)


def taylor_quotient(numer, denom, degree):
    """Taylor coefficients of numer/denom (coefficient lists, lowest power first) up to ``degree``."""
    out = []
    for k in range(degree + 1):
        out.append((numer[k] - sum(out[j] * denom[k - j] for j in range(k))) / denom[0])
    return out


def chi_taylor_coefficients(degree):
    """Exact Taylor coefficients of u(2h) = 2 (h - tanh h), of E(h) and of X + expm1(-X)."""
    exp_m = [Fraction((-1) ** k, math.factorial(k)) for k in range(degree + 1)]  # e^-h
    exp_m2 = [c * 2**k for k, c in enumerate(exp_m)]  # e^-2h
    tanh = taylor_quotient([1 - exp_m2[0]] + [-c for c in exp_m2[1:]], [1 + exp_m2[0]] + exp_m2[1:], degree)
    h = [Fraction(int(k == 1)) for k in range(degree + 1)]
    one_m = [1 - exp_m[0]] + [-c for c in exp_m[1:]]  # 1 - e^-h
    u = [2 * (hk - tk) for hk, tk in zip(h, tanh)]
    e = [
        2 * (h[k] - one_m[k]) - sum(one_m[j] * tanh[k - j] for j in range(k + 1))
        for k in range(degree + 1)
    ]
    ramsey = [hk - ok for hk, ok in zip(h, one_m)]
    return u, e, ramsey


def test_chi_series_tables_are_the_exact_taylor_coefficients():
    # float() of a Fraction is correctly rounded, so == checks each table
    # entry against its defining series with no tolerance.
    u, e, ramsey = chi_taylor_coefficients(40)
    assert all(c == 0 for c in u[0:40:2]) and u[1] == 0
    assert engines.CHI_U_SERIES == tuple(float(c) for c in u[3:30:2])
    assert engines.CHI_E_SERIES == tuple(float(c) for c in e[3:31])
    assert ramsey[:2] == [0, 0]
    assert engines.RAMSEY_SERIES == tuple(float(c) for c in ramsey[2:16])
    # The terms left out are below 1e-17 of the sum at the switch.
    for coeffs, first, switch in (
        (u, 31, engines.CHI_SERIES_SWITCH),
        (e, 31, engines.CHI_SERIES_SWITCH),
        (ramsey, 16, engines.RAMSEY_SERIES_SWITCH),
    ):
        y = Fraction(switch)
        total = sum(c * y**k for k, c in enumerate(coeffs))
        left_out = sum(abs(c) * y**k for k, c in enumerate(coeffs) if k >= first)
        assert left_out < total / 10**17


def decimal_chi(n: int, t: float) -> Decimal:
    """chi at b = tau_c = 1 from the closed form, in 80-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = Decimal(t)
        if n == 0:
            return x - 1 + (-x).exp()
        h = x / (2 * n)
        e_h = (-h).exp()
        a = e_h * e_h
        tanh = (1 - a) / (1 + a)
        one_m = 1 - e_h
        g = (-a) ** (n - 1)
        closed = (n - 1) * 2 * (h - tanh) + 2 * (h - one_m) - one_m * tanh
        return closed + e_h * one_m**3 * (1 + e_h - g * e_h * one_m) / (1 + a) ** 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 4096), t=log_uniform(1e-12, 1e3))
@example(n=4096, t=1e-12)  # the accepted range's corners
@example(n=0, t=1e-12)
@example(n=4096, t=1e3)
@example(n=2048, t=1e3)  # every cell 0.24 tau_c: the series only
@example(n=2048, t=40.96)  # every half-cell exactly 1e-2 tau_c
@example(n=1, t=0.75)  # Hahn at the switch
@example(n=0, t=0.5)  # Ramsey at its switch
@example(n=3, t=1e-8)
def test_chi_closed_form_property(n, t):
    # b = tau_c = 1, so t is t/tau_c and chi is in units of b^2 tau_c^2.
    noise = NoiseModel(1.0, 1.0)
    seq = cpmg_or_ramsey(n)
    got = attenuation_exponent(seq, noise, t)
    # Exact to a few ulps on both sides of the series switch.
    assert abs(Decimal(got) / decimal_chi(n, t) - 1) <= Decimal("5e-15")
    # The running sum agrees wherever no cell is short enough for it to cancel.
    if t / (2 * n if n else 1) >= 1e-2:
        assert got == pytest.approx(running_sum_chi(seq, noise, t), rel=1e-11, abs=0.0)
    # Continuous across the switch: the series and the closed form meet.
    edge = switch_time(n, 1.0)
    below, at = attenuation_exponent(seq, noise, [edge, math.nextafter(edge, math.inf)])
    assert at == pytest.approx(below, rel=1e-14, abs=0.0)


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


def test_mc_weights_give_twice_chi(monkeypatch):
    # A trajectory's phase is the sum of w_d z_d over iid standard normals, so
    # its variance, the sum of w_d^2, is 2 chi.  The engine never forms that
    # sum; the test captures the backward sweep's weights and forms it here.
    captured = []

    def capture(rng, chunk_n, weights):
        captured.append(weights[:, :, 0].copy())
        return np.zeros(weights.shape[1]), np.zeros(weights.shape[1])

    monkeypatch.setattr(engines, "_mc_chunk_sums", capture)
    rng = np.random.default_rng(27)
    draws = [(int(rng.integers(0, 4097)), np.sort(10.0 ** rng.uniform(-12, 3, 4))) for _ in range(100)]
    # Of every n <= 4096, n = 4033 has the largest error, 1.22e-18 / t at
    # both t = 1e-12 and 1e-8; 1417 at 1.5e-11 gives 1.24e-9.
    draws += [(4033, np.array([1e-12, 1e-8])), (1417, np.array([1.5e-11]))]
    for n, times in draws:
        captured.clear()
        simulate_mc(cpmg_or_ramsey(n), NoiseModel(1.0, 1.0), times, 1, seed=0)
        (weights,) = captured
        for t, w in zip(times.tolist(), weights.T):
            err = abs(Decimal(math.fsum((w * w).tolist())) / (2 * decimal_chi(n, t)) - 1)
            assert err <= Decimal(2e-13 + 1.25e-18 / t), (n, t)


def state_recursion_chunk_sums(rng, chunk_n, coeffs, b_rad_s):
    """Reference MC chunk: carries the OU value x through every cell.

    ``coeffs[k]`` holds cell k's (alpha, m_i, l11, l21, l22) as columns of
    shape (n_times, 1), with the cell's sign folded into m_i, l21 and l22.
    It takes the draws in the engine's order: one initial value per
    trajectory, then one (z1, z2) pair per cell.
    """
    x = np.empty((coeffs.shape[2], chunk_n))
    x[:] = b_rad_s * rng.standard_normal(chunk_n)
    phase = np.zeros_like(x)
    term = np.empty_like(x)
    for alpha, m_i, l11, l21, l22 in coeffs:
        z1, z2 = rng.standard_normal((2, chunk_n))
        # phase += m_i x + l21 z1 + l22 z2 and x = alpha x + l11 z1, in place.
        phase += np.multiply(m_i, x, out=term)
        phase += np.multiply(l21, z1, out=term)
        phase += np.multiply(l22, z2, out=term)
        x *= alpha
        x += np.multiply(l11, z1, out=term)
    cos = np.cos(phase, out=phase)
    return cos.sum(axis=1), np.square(cos, out=term).sum(axis=1)


def state_recursion_mc(seq, noise, times, n_traj, seed):
    """Reference (signal, variance of cos(phase)) of simulate_mc, on its blocks and chunks, without T1."""
    lengths = seq.cell_lengths(times)
    cells = np.array(
        [[ou_cell_coefficients(noise.b_rad_s, noise.tau_c_s, length) for length in row] for row in lengths.T]
    )
    cells[1::2, :, [1, 3, 4]] *= -1.0
    coeffs = cells.transpose(0, 2, 1)[..., None]
    sums = np.zeros((2, times.size))
    for ib in range(-(-n_traj // engines.MC_BLOCK_SIZE)):
        rng = seeded_rng(seed, ib)
        block_n = min(engines.MC_BLOCK_SIZE, n_traj - ib * engines.MC_BLOCK_SIZE)
        for start in range(0, block_n, engines.MC_CHUNK_SIZE):
            chunk_n = min(engines.MC_CHUNK_SIZE, block_n - start)
            sums += state_recursion_chunk_sums(rng, chunk_n, coeffs, noise.b_rad_s)
    mean, mean_sq = sums / n_traj
    return mean, np.clip(mean_sq - mean**2, 0.0, None)


def assert_matches_state_recursion(seq, noise, times, n_traj, seed):
    # mc_stderr is compared as the variance n_traj * stderr^2: where the
    # signal is near 1, mean_sq - mean^2 cancels, and a 1-ulp move of the
    # mean moves the stderr by up to ~1e-11 while the variance moves by ~1e-16.
    curve = simulate_mc(seq, noise, times, n_traj, seed)
    signal, var = state_recursion_mc(seq, noise, times, n_traj, seed)
    assert np.max(np.abs(curve.signal - signal)) <= 1e-14
    assert np.max(np.abs(n_traj * np.array(curve.meta["mc_stderr"]) ** 2 - var)) <= 1e-14


@pytest.mark.parametrize("b_tau", [0.1, 1.0, 10.0])
@pytest.mark.parametrize(
    "kind, n", [("ramsey", 0), ("hahn", 1), ("xy8", 8), ("cpmg", 7), ("cpmg", 64), ("cpmg", 100)]
)
def test_mc_weights_match_the_state_recursion(kind, n, b_tau):
    # The per-draw weights reorder the phase sum of the state recursion on
    # the same draws, so the two agree to a few ulps of the phase.
    seq = build_sequence(kind, 1e-6, n=n)
    noise = NoiseModel(b_tau / 1e-6, 1e-6)
    times = np.geomspace(1e-10, 30.0, 9) * noise.tau_c_s
    assert_matches_state_recursion(seq, noise, times, 2500, seed=17)


def test_mc_weights_match_the_state_recursion_over_two_blocks():
    # Two blocks, the second ending on a partial chunk.
    seq = build_sequence("cpmg", 1e-6, n=7)
    noise = NoiseModel(1e6, 1e-6)
    times = np.geomspace(1e-10, 30.0, 7) * noise.tau_c_s
    n_traj = engines.MC_BLOCK_SIZE + engines.MC_CHUNK_SIZE + 452
    assert_matches_state_recursion(seq, noise, times, n_traj, seed=3)


def test_mc_draws_stay_in_a_bounded_working_set():
    # CPMG(512) takes 1 + 2 * 513 rows of draws per chunk; taken in one call
    # they would hold 1027 * 2048 * 8 B = 16.8 MB.
    seq = build_sequence("cpmg", 1e-6, n=512)
    times = np.geomspace(1e-7, 1e-5, 4)
    tracemalloc.start()
    try:
        simulate_mc(seq, NoiseModel(1e6, 1e-6), times, engines.MC_CHUNK_SIZE, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_mc_noiseless_is_exactly_one():
    seq = build_sequence("hahn", 1e-6)
    curve = simulate_mc(seq, NoiseModel(0.0, 1e-6), [1e-6, 1e-5], 128, seed=1)
    assert np.all(curve.signal == 1.0)


def test_mc_without_coupling_is_exactly_one_where_t_over_tau_c_overflows():
    # The cells are 1e10 / 1e-300 = inf correlation times long: b = 0 gives
    # zero cell noise, not 0 * inf.
    assert ou_cell_coefficients(0.0, 1e-300, 1e10)[2:] == (0.0, 0.0, 0.0)
    for kind in ("ramsey", "hahn", "xy8"):
        curve = simulate_mc(build_sequence(kind, 1e-6), NoiseModel(0.0, 1e-300), [1e-6, 1e10], 128, seed=1)
        assert np.array_equal(curve.signal, np.ones(2))
        assert curve.meta["mc_stderr"] == [0.0, 0.0]


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


def test_mc_point_does_not_depend_on_the_rest_of_its_call():
    # The MC analogue of test_chi_array_call_equals_scalar_calls: all points
    # share their draws, yet each point's signal and stderr come out bit for
    # bit the same alone as inside a larger call.  Nine blocks, so the block
    # sums must be added one block at a time for every shape, and a partial
    # last chunk.
    seq = build_sequence("cpmg", 1e-6, n=2)
    noise = NoiseModel(1e6, 1e-6, t1_s=3e-5)
    times = np.geomspace(1e-7, 2e-5, 6)
    n_traj = 8 * engines.MC_BLOCK_SIZE + 3000
    full = simulate_mc(seq, noise, times, n_traj, seed=4)
    for i in range(times.size):
        alone = simulate_mc(seq, noise, times[i : i + 1], n_traj, seed=4)
        assert alone.signal[0] == full.signal[i]
        assert alone.meta["mc_stderr"][0] == full.meta["mc_stderr"][i]


@pytest.mark.parametrize("n_traj", [20000, engines.MC_BLOCK_SIZE + 452])
def test_mc_bytes_do_not_depend_on_the_callers_ufunc_buffer(n_traj):
    # The chunks run under MC_UFUNC_BUFSIZE whatever the caller has set, and
    # the caller's buffer is back afterwards.  The second count ends on a
    # 452-wide chunk.
    seq = build_sequence("xy8", 1e-6)
    noise = NoiseModel(1e6, 1e-6)
    times = np.geomspace(1e-7, 2e-5, 16)
    runs = []
    for bufsize in (8192, 16, 1 << 20):
        old = np.setbufsize(bufsize)
        try:
            curve = simulate_mc(seq, noise, times, n_traj, seed=9)
            assert np.getbufsize() == bufsize
        finally:
            np.setbufsize(old)
        runs.append((curve.signal.tobytes(), curve.meta["mc_stderr"]))
    assert runs == runs[:1] * 3


def test_mc_chunks_run_under_the_small_ufunc_buffer_and_restore_the_callers(monkeypatch):
    seq = build_sequence("hahn", 1e-6)
    noise = NoiseModel(1e6, 1e-6)
    seen = []
    chunk_sums = engines._mc_chunk_sums

    def spy(*args):
        seen.append(np.getbufsize())
        return chunk_sums(*args)

    def broken(*args):
        raise RuntimeError("chunk failed")

    old = np.setbufsize(4096)
    try:
        monkeypatch.setattr(engines, "_mc_chunk_sums", spy)
        simulate_mc(seq, noise, [1e-6, 2e-6], 3000, seed=1)
        assert seen == [engines.MC_UFUNC_BUFSIZE] * 2
        assert np.getbufsize() == 4096
        monkeypatch.setattr(engines, "_mc_chunk_sums", broken)
        with pytest.raises(RuntimeError, match="chunk failed"):
            simulate_mc(seq, noise, [1e-6, 2e-6], 3000, seed=1)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


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
    assert node == pytest.approx(231.5e-9, rel=1e-3, abs=0.0)
    tt = np.linspace(1e-10, 4e-7, 50000)
    curve = simulate_fid_beats(doublet, 50e6, tt)
    envelope = np.abs(np.cos(math.pi * a_hf * tt))
    first_node = tt[np.argmin(envelope)]
    assert first_node == pytest.approx(node, rel=1e-3, abs=0.0)
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
    assert table[0][1] == pytest.approx(direct.params["t2_s"], rel=1e-9, abs=0.0)


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


def test_t2_vs_n_raises_on_the_first_failed_n(monkeypatch):
    from nvforge import fitkit

    def failing_fit(curve, model, fix=None):
        raise fitkit.FitError("no fit")

    monkeypatch.setattr(fitkit, "fit", failing_fit)
    with pytest.raises(fitkit.FitError, match=r"^T2 fit failed for n=4: no fit$"):
        t2_vs_n(NoiseModel(1e6, 1e-6), [4, 2])


def test_t2_vs_n_rejects_empty_list():
    with pytest.raises(ValueError):
        t2_vs_n(NoiseModel(1e6, 1e-6), [])


def test_t2_vs_n_rejects_a_non_integral_n():
    # CPMG(2.7) is no sequence; it must not be fitted as CPMG(2) and reported as n = 2.
    with pytest.raises(ValueError, match="integer"):
        t2_vs_n(NoiseModel(1e6, 1e-6), [4, 2.7])


def test_t2_vs_n_kernel_calls(monkeypatch):
    # One grid pass for the whole sweep, then one call per analytic curve.
    calls = []
    kernel = engines._chi

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(engines, "_chi", counted)
    n_list = [1, 4, 8, 16, 32, 64]
    t2_vs_n(paper_like_noise(), n_list)
    assert len(calls) <= 8 + len(n_list)



@pytest.mark.parametrize("family, n_curves", [(fixtures.decay_family_fig7, 5), (fixtures.xy_curves_fig9, 2)],
                         ids=["fig7", "fig9"])
def test_fixture_family_kernel_calls(monkeypatch, family, n_curves):
    # One call calibrates the preset, one grid pass serves the whole family,
    # then one call per curve.
    calls = []
    kernel = engines._chi

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(engines, "_chi", counted)
    assert len(family()) == n_curves
    assert len(calls) <= 1 + 8 + n_curves


def test_fixture_families_equal_one_grid_and_curve_per_sequence():
    noise = paper_like_noise()
    family = [(build_sequence("cpmg", 1e-6, n=n), curve) for n, curve in fixtures.decay_family_fig7()]
    family += [(build_sequence(kind, 1e-6), curve) for kind, curve in fixtures.xy_curves_fig9().items()]
    assert [seq.n_pi for seq, _ in family] == [*fixtures.FIG7_PULSE_COUNTS, 4, 8]
    for seq, curve in family:
        want = simulate_analytic(seq, noise, decay_time_grid(seq, noise, fixtures.DECAY_FIXTURE_POINTS))
        assert curve.times_s.tobytes() == want.times_s.tobytes()
        assert curve.signal.tobytes() == want.signal.tobytes()
        assert curve.meta == want.meta

def test_paper_like_preset_calibration():
    noise = paper_like_noise()
    assert noise.tau_c_s == 1e-5
    seq = build_sequence("hahn", 3.2e-6)
    assert attenuation_exponent(seq, noise, 6.4e-6) == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_decay_time_grid_spans_requested_decay():
    noise = NoiseModel(1e6, 1e-6)
    seq = build_sequence("hahn", 1e-6)
    times = decay_time_grid(seq, noise, n_points=16)
    assert times.size == 16
    assert attenuation_exponent(seq, noise, times[0]) == pytest.approx(0.02, rel=1e-3, abs=0.0)
    assert attenuation_exponent(seq, noise, times[-1]) == pytest.approx(3.0, rel=1e-3, abs=0.0)


def test_decay_time_grid_rejects_no_decay():
    with pytest.raises(ValueError):
        decay_time_grid(build_sequence("hahn", 1e-6), NoiseModel(0.0, 1e-6))


GRID_SEQUENCES = [
    ("ramsey", None), ("hahn", None), ("xy4", None), ("xy8", None),
    ("cpmg", 1), ("cpmg", 7), ("cpmg", 64), ("cpmg", 256),
]


@pytest.mark.parametrize("kind,n", GRID_SEQUENCES)
# From b * tau_c = 1e8 on, the window starts below a femtosecond; at 1e8
# the bisection bracket does not close within its 80 steps.
@pytest.mark.parametrize("b_tau", [0.1, 1.0, 10.0, 1e8, 5e8, 1e10])
@pytest.mark.parametrize("t1", [math.inf, 1e-4])
def test_decay_time_grid_equals_binary_bisection(kind, n, b_tau, t1):
    tau_c = 1e-6
    noise = NoiseModel(b_tau / tau_c, tau_c, t1, 1.32)
    seq = build_sequence(kind, 1e-6, n=n)
    assert np.array_equal(decay_time_grid(seq, noise), binary_bisection_grid(seq, noise))


@pytest.mark.parametrize("kind,n", GRID_SEQUENCES)
@pytest.mark.parametrize("preset", [paper_like_noise, slow_bath_noise])
def test_decay_time_grid_equals_binary_bisection_on_presets(kind, n, preset):
    seq = build_sequence(kind, 1e-6, n=n)
    noise = preset()
    grid = decay_time_grid(seq, noise, n_points=40)
    assert np.array_equal(grid, binary_bisection_grid(seq, noise, n_points=40))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["ramsey", "hahn", "xy4", "xy8", "cpmg"]),
    n=st.integers(1, 256),
    b_tau=log_uniform(1e-2, 1e2),
    tau_c=log_uniform(1e-8, 1e-2),
    t1_over_tau_c=st.one_of(st.just(math.inf), log_uniform(1e-1, 1e4)),
    q=st.floats(0.5, 3.0),
)
def test_decay_time_grid_equals_binary_bisection_property(kind, n, b_tau, tau_c, t1_over_tau_c, q):
    noise = NoiseModel(b_tau / tau_c, tau_c, t1_over_tau_c * tau_c, q)
    seq = build_sequence(kind, 1e-6, n=n)
    assert np.array_equal(decay_time_grid(seq, noise), binary_bisection_grid(seq, noise))


@pytest.mark.parametrize("kind,n", [("ramsey", None), ("hahn", None), ("xy8", None), ("cpmg", 256)])
def test_decay_time_grid_kernel_calls(monkeypatch, kind, n):
    calls = []
    kernel = engines._chi

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(engines, "_chi", counted)
    # b * tau_c = 1, the paper-like bath, then 1e8, 5e8 and 1e10, where the
    # window starts below a femtosecond.
    for noise in (NoiseModel(1e6, 1e-6), paper_like_noise(), *(NoiseModel(b, 1e-6) for b in (1e14, 5e14, 1e16))):
        calls.clear()
        decay_time_grid(build_sequence(kind, 1e-6, n=n), noise)
        assert len(calls) <= 8


#: Guesses of the bisection's crossing, good and bad, for _grid_guess(target, lo, f_lo, hi, f_hi, hi2, f_hi2).
GUESSES = {
    "lo": lambda target, lo, f_lo, hi, *_: lo,
    "hi": lambda target, lo, f_lo, hi, *_: hi,
    "zero": lambda *_: 0.0,
    "huge": lambda *_: 1e300,
}


@pytest.mark.parametrize("guess", GUESSES)
@pytest.mark.parametrize("b_tau", [0.1, 10.0, 1e8, 1e10])
@pytest.mark.parametrize("t1", [math.inf, 1e-4])
def test_decay_time_grid_bytes_do_not_depend_on_the_guess(monkeypatch, guess, b_tau, t1):
    # The guess sets only how many bisection steps each kernel call checks.
    tau_c = 1e-6
    noise = NoiseModel(b_tau / tau_c, tau_c, t1, 1.32)
    monkeypatch.setattr(engines, "_grid_guess", GUESSES[guess])
    seqs = [build_sequence(kind, 1e-6, n=n) for kind, n in GRID_SEQUENCES]
    for seq in seqs:
        assert np.array_equal(decay_time_grid(seq, noise), binary_bisection_grid(seq, noise))
    ns = [seq.n_pi for seq in seqs[1:]]
    for n, grid in zip(ns, engines._decay_time_grids(np.array(ns), noise, 24)):
        assert np.array_equal(grid, decay_time_grid(build_sequence("cpmg", 1e-6, n=n), noise))


def random_baths(count, seed):
    """Seeded OU baths: b * tau_c in [0.1, 10], tau_c in [1 us, 1 ms], T1 on for every other one."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        tau_c = 10 ** rng.uniform(-6, -3)
        b_tau = 10 ** rng.uniform(-1, 1)
        t1 = tau_c / min(b_tau, b_tau**2) * 10 ** rng.uniform(0, 2) if i % 2 else math.inf
        yield NoiseModel(b_tau / tau_c, tau_c, t1, rng.uniform(1.0, 2.0))


def test_chi_columns_of_n_equal_single_n_calls():
    # Both parities, points on both sides of the series switch, and n up to 2048.
    ns = np.array([1, 2, 3, 8, 7, 2048, 2])
    noise = NoiseModel(2e6, 1e-6)
    times = np.concatenate([np.geomspace(1e-12, 1e-2, 40),
                            [switch_time(n, noise.tau_c_s) for n in ns.tolist()]])
    got = engines._chi(ns, noise, times[:, None])
    assert got.shape == (times.size, ns.size)
    for column, n in zip(got.T, ns.tolist()):
        assert np.array_equal(column, engines._chi(n, noise, times))
        assert np.array_equal(column, engines._chi(np.int64(n), noise, times))
        for t, value in zip(times.tolist(), column.tolist()):
            point = engines._chi(n, noise, t)
            assert np.ndim(point) == 0 and point == value


def test_chi_series_coefficients_equal_the_per_n_sums(monkeypatch):
    # The coefficients _chi hands to Horner's rule, for an array n and for
    # scalar n, bit for bit those of the per-n sum.
    seen = []
    series_below = engines._series_below

    def spy(x, switch, coeffs, power, closed):
        seen.append(np.array(coeffs))
        return series_below(x, switch, coeffs, power, closed)

    monkeypatch.setattr(engines, "_series_below", spy)
    noise = NoiseModel(1e6, 1e-6)
    ns = np.arange(1, 4097)
    engines._chi(ns, noise, np.full((1, ns.size), 1e-7))
    scalars = [1, 2, 7, np.int64(64), 4096]
    for n in scalars:
        engines._chi(n, noise, 1e-7)
    assert seen[0].shape == (28, ns.size)
    assert seen[0].tobytes() == np.array([cpmg_series(n) for n in ns.tolist()]).T.tobytes()
    for got, n in zip(seen[1:], scalars, strict=True):
        assert got.tobytes() == np.array(cpmg_series(int(n))).tobytes()


def test_attenuation_exponent_raises_where_chi_overflows():
    # (b * tau_c)^2 = 1e388 overflows, so chi is inf at every t > 0.
    with pytest.raises(NumericalFailure, match="attenuation exponent is not finite"):
        attenuation_exponent(build_sequence("hahn", 1e-6), NoiseModel(1e200, 1e-6), [1e-7, 1e-5])


@pytest.mark.parametrize("b", [1e200, 2e154, np.float64(2e154)])
def test_mc_raises_where_its_cell_coefficients_overflow(b):
    # b * b overflows from b ~ 1.34e154, where chi itself may still be finite.
    with pytest.raises(NumericalFailure, match="Monte-Carlo cell coefficients are not finite"):
        simulate_mc(build_sequence("hahn", 1e-6), NoiseModel(b, 1e-6), [1e-160, 1e-150], 10, 1)


@pytest.mark.parametrize("noise", [paper_like_noise(), slow_bath_noise(), *random_baths(24, seed=22)],
                         ids=["paper-like", "slow-bath", *(f"random{i}" for i in range(24))])
def test_batched_grids_equal_per_n_grids(noise):
    # Mixed parities, unsorted, repeated, from 1 to 2048.
    rng = np.random.default_rng(int(noise.tau_c_s * 1e12))
    ns = [*rng.integers(1, 2049, size=6).tolist(), 1, 2048]
    ns += [ns[2], ns[0]]
    for n_points in (24, 40):
        grids = engines._decay_time_grids(np.array(ns), noise, n_points)
        assert len(grids) == len(ns)
        for n, grid in zip(ns, grids):
            assert np.array_equal(grid, decay_time_grid(build_sequence("cpmg", 1e-6, n=n), noise, n_points))


def test_decay_time_grid_rejects_decay_below_the_smallest_time():
    # T1 = tau_c = 5e-324: the decay window starts below the smallest
    # subnormal, where no log grid can start.
    noise = NoiseModel(0.0, 5e-324, 5e-324, 1.0)
    with pytest.raises(ValueError, match="smallest positive time"):
        decay_time_grid(build_sequence("hahn", 1e-6), noise)


@pytest.mark.parametrize("kind,b_tau", [("ramsey", 1e24), ("ramsey", 1e26), ("hahn", 1e37)])
def test_decay_time_grid_rejects_decay_below_the_bisections_reach(kind, b_tau):
    # The decay starts below tau_c * 2^(k - 80), the smallest time the 80
    # bisection steps reach: the low target's bracket still starts at 0, and
    # a grid would start at half that time, not where the decay starts.
    seq, noise = build_sequence(kind, 1e-6), NoiseModel(b_tau / 1e-6, 1e-6)
    start = binary_bisection_grid(seq, noise)[0]
    assert attenuation_exponent(seq, noise, start) > 2 * GRID_DECAY_LO
    with pytest.raises(ValueError, match="smallest positive time the grid bisection reaches"):
        decay_time_grid(seq, noise)


def test_decay_time_grid_ignores_overflow_past_the_bracket():
    # b * tau_c = 1: the bracket is tau_c * 4, and tau_c * 2^k overflows
    # from k = 11 on, where chi is no longer finite.
    noise = NoiseModel(1e-305, 1e305)
    seq = build_sequence("ramsey", 1e-6)
    assert np.array_equal(decay_time_grid(seq, noise), binary_bisection_grid(seq, noise))


@pytest.mark.parametrize(
    "b,tau_c",
    [
        (1e-308, 1e305),  # tau_c * 2^k overflows before chi reaches the bracket
        (1e200, 1e-6),  # (b * tau_c)^2 overflows
        (np.float64(1e200), 1e-6),  # the same on numpy floats, where it warns instead
    ],
)
def test_decay_time_grid_non_finite_chi_before_bracket(b, tau_c):
    with pytest.raises(NumericalFailure):
        decay_time_grid(build_sequence("ramsey", 1e-6), NoiseModel(b, tau_c))


def test_decay_curve_validation():
    with pytest.raises(ValueError):
        DecayCurve([1e-6, 1e-6], [1.0, 0.5])
    with pytest.raises(ValueError):
        DecayCurve([1e-6, 2e-6], [1.0, 1.2])
    with pytest.raises(ValueError):
        DecayCurve([1e-6, 2e-6], [1.0])
    with pytest.raises(ValueError):
        DecayCurve([], [])
