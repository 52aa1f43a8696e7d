import dataclasses
import math

import numpy as np
import pytest

from nvforge.constants import DOUBLET_MULTIPLICITIES, TRIPLET_MULTIPLICITIES, NumericalFailure
from nvforge.dataio import DecayCurve
from nvforge.engines import HyperfineTriplet, simulate_fid_beats
from nvforge.fitkit import (
    FitConvergenceError,
    FitError,
    FitModel,
    RankDeficientDataError,
    _table_fits,
    extract_t2_table,
    fit,
    fit_envelope,
    spectral_lines,
)
from nvforge.levmar import LAMBDA_GROW, LAMBDA_INIT, forward_differences, lm_least_squares


def _stretched_curve(t2, p, a=1.0, c=0.0, n=50, span=(0.05, 4.0)):
    t = np.geomspace(span[0] * t2, span[1] * t2, n)
    return DecayCurve(t, a * np.exp(-((t / t2) ** p)) + c)


def test_roundtrip_stretched_exp_paper_values():
    curve = _stretched_curve(6.4e-6, 0.96)
    result = fit(curve, FitModel.stretched_exp())
    assert result.converged
    assert result.params["t2_s"] == pytest.approx(6.4e-6, rel=1e-6)
    assert result.params["p"] == pytest.approx(0.96, rel=1e-6)
    assert result.params["a"] == pytest.approx(1.0, rel=1e-6)
    assert result.params["c"] == pytest.approx(0.0, abs=1e-9)


def test_roundtrip_t1_stretched_paper_values():
    curve = _stretched_curve(3.14e-3, 1.32)
    result = fit(curve, FitModel.t1_stretched())
    assert result.params["t1_s"] == pytest.approx(3.14e-3, rel=1e-6)
    assert result.params["q"] == pytest.approx(1.32, rel=1e-6)


def test_roundtrip_exp_t2star():
    t = np.geomspace(0.1e-6, 12e-6, 40)
    curve = DecayCurve(t, 0.8 * np.exp(-t / 3.6e-6) + 0.1)
    result = fit(curve, FitModel.exp_t2star())
    assert result.params["t2_star_s"] == pytest.approx(3.6e-6, rel=1e-6)
    assert result.params["a"] == pytest.approx(0.8, rel=1e-6)
    assert result.params["c"] == pytest.approx(0.1, rel=1e-6)


def test_roundtrip_fid_beats():
    t = np.arange(1, 6000) * 2e-9
    curve = simulate_fid_beats(HyperfineTriplet(50e6, 2.16e6), 3.6e-6, t)
    result = fit(curve, FitModel.fid_beats())
    assert result.params["t2_star_s"] == pytest.approx(3.6e-6, rel=1e-6)
    assert result.params["delta_hz"] == pytest.approx(50e6, rel=1e-6)
    assert result.params["a_hf_hz"] == pytest.approx(2.16e6, rel=1e-6)


def test_noisy_coverage_two_sigma():
    # Monte-Carlo coverage: the true parameter lies inside +-2 stderr in at
    # least 90% of noisy replicates.
    true_t2, true_p = 6.4e-6, 0.96
    t = np.geomspace(0.05 * true_t2, 4 * true_t2, 100)
    clean = np.exp(-((t / true_t2) ** true_p))
    model = FitModel.stretched_exp()
    hits_t2 = hits_p = 0
    n_seeds = 120
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        noisy = np.clip(clean + 0.02 * rng.standard_normal(t.size), -1.049, 1.049)
        result = fit(DecayCurve(t, noisy), model)
        if abs(result.params["t2_s"] - true_t2) <= 2 * result.stderr["t2_s"]:
            hits_t2 += 1
        if abs(result.params["p"] - true_p) <= 2 * result.stderr["p"]:
            hits_p += 1
    assert hits_t2 / n_seeds >= 0.9
    assert hits_p / n_seeds >= 0.9


def test_time_scale_equivariance():
    base = _stretched_curve(6.4e-6, 1.4)
    ref = fit(base, FitModel.stretched_exp())
    k = 1000.0
    scaled = DecayCurve(base.times_s * k, base.signal)
    res = fit(scaled, FitModel.stretched_exp())
    assert res.params["t2_s"] == pytest.approx(k * ref.params["t2_s"], rel=1e-8)
    assert res.params["p"] == pytest.approx(ref.params["p"], rel=1e-8)


def test_amplitude_scale_equivariance():
    base = _stretched_curve(6.4e-6, 0.96, a=0.5)
    ref = fit(base, FitModel.stretched_exp())
    # Amplitude scaling is capped by the signal-bound contract, so scale down.
    scaled = DecayCurve(base.times_s, base.signal * 0.5)
    res = fit(scaled, FitModel.stretched_exp())
    assert res.params["a"] == pytest.approx(0.5 * ref.params["a"], rel=1e-8)
    assert res.params["t2_s"] == pytest.approx(ref.params["t2_s"], rel=1e-8)
    assert res.params["p"] == pytest.approx(ref.params["p"], rel=1e-8)


def test_lm_returns_the_lowest_sse_it_evaluated():
    # LM accepts a step only if it lowers the SSE, so the result is the
    # best point of every residual evaluation, the start included.
    rng = np.random.default_rng(42)
    curve = _stretched_curve(2e-6, 0.8)
    t = curve.times_s
    y = np.clip(curve.signal + 0.01 * rng.standard_normal(curve.times_s.size), -1.04, 1.04)
    model = FitModel.stretched_exp()
    evaluated = []

    def evaluate(theta):
        predicted, jacobian = model.evaluate(t, theta)
        r = predicted - y
        evaluated.append(float(r @ r))
        return r, jacobian

    lo, hi = model.bounds()
    res = lm_least_squares(evaluate, model.initial_guess(t, y), lower=lo, upper=hi)
    assert len(evaluated) > 1
    assert res.sse == min(evaluated)
    assert res.sse <= evaluated[0]


@pytest.mark.parametrize("model", [FitModel.stretched_exp(), FitModel.exp_t2star(), FitModel.fid_beats()])
def test_lm_asks_for_the_jacobian_of_each_accepted_point_once(model):
    # A point is accepted when its SSE is below every earlier one, so the
    # Jacobians asked for are those of the start and of each such point, in
    # order, and none of a rejected trial.
    rng = np.random.default_rng(7)
    if model.kind == "fid_beats":
        t = np.arange(1, 3000) * 2e-9
        y = simulate_fid_beats(HyperfineTriplet(50e6, 2.16e6), 3.6e-6, t).signal
    else:
        t = _stretched_curve(2e-6, 1.7).times_s
        y = np.exp(-((t / 2e-6) ** 1.7))
    y = y + 0.01 * rng.standard_normal(t.size)
    evaluated, asked = [], []

    def evaluate(theta):
        predicted, jacobian = model.evaluate(t, theta)
        r = predicted - y
        evaluated.append((theta.tobytes(), float(r @ r)))
        return r, lambda: asked.append(theta.tobytes()) or jacobian()

    lo, hi = model.bounds()
    lm_least_squares(evaluate, model.initial_guess(t, y), lower=lo, upper=hi)
    best, accepted = math.inf, []
    for x, sse in evaluated:
        if not accepted or sse < best:
            best = sse
            accepted.append(x)
    assert len(accepted) > 1 and len(evaluated) > len(accepted)
    assert asked == accepted


def reference_lines(t, y, n_fft, resample):
    """spectral_lines' selection, one spectrum bin at a time, on n_fft points."""
    step = (t[-1] - t[0]) / (t.size - 1)
    if resample:
        tu = np.linspace(t[0], t[-1], max(4096, 4 * t.size))
        y, step = np.interp(tu, t, y), tu[1] - tu[0]
    spec = np.abs(np.fft.rfft(y, n=n_fft))
    freqs = np.fft.rfftfreq(n_fft, d=step).tolist()
    spec[0] = 0.0
    spec = spec.tolist()
    peak = spec.index(max(spec))
    lines = []
    for k, s in enumerate(spec):
        local_max = 0 < k < len(spec) - 1 and spec[k - 1] < s >= spec[k + 1]
        if (local_max or k == peak) and s >= 0.3 * spec[peak]:
            lines.append((freqs[k], s))
    return lines, (freqs[peak], spec[peak])


def check_lines(monkeypatch, t, y, n_fft, resample):
    lengths = []
    rfft = np.fft.rfft

    def recorded(a, n=None):
        lengths.append(n)
        return rfft(a, n=n)

    monkeypatch.setattr(np.fft, "rfft", recorded)
    lines = spectral_lines(t, y - np.mean(y))
    assert lengths == [n_fft]
    expected, peak = reference_lines(t, y - np.mean(y), n_fft, resample)
    assert lines == expected
    assert peak in lines
    freqs = [f for f, _ in lines]
    assert freqs == sorted(freqs) and len(lines) >= 2
    assert all(type(f) is float and type(m) is float for f, m in lines)


SIGNALS = pytest.mark.parametrize(
    "signal",
    [
        lambda t: simulate_fid_beats(HyperfineTriplet.doublet(2e6, 1e6), 2e-6, t).signal,
        lambda t: np.cos(2 * math.pi * 3e6 * t) + 0.4 * np.cos(2 * math.pi * 7e6 * t),
    ],
    ids=["doublet_fid", "two_tone"],
)


@SIGNALS
def test_spectral_lines_match_a_bin_by_bin_selection(monkeypatch, signal):
    # 2499 uniform samples are transformed as they are, zero padded to the
    # power of two at or above 4x their number: 16384.
    t = np.arange(1, 2500) * 2e-9
    check_lines(monkeypatch, t, signal(t), 16384, resample=False)


@SIGNALS
def test_spectral_lines_resample_a_log_sampled_curve(monkeypatch, signal):
    # 2499 log-spaced samples resample onto 9996 uniform points, zero padded
    # to the power of two at or above 4x that: 65536.
    t = np.geomspace(5e-7, 5e-6, 2499)
    check_lines(monkeypatch, t, signal(t), 65536, resample=True)


@pytest.mark.parametrize(
    "model, curve",
    [
        (FitModel.stretched_exp(), _stretched_curve(6.4e-6, 0.96)),
        (FitModel.t1_stretched(), _stretched_curve(3.14e-3, 1.32)),
        (FitModel.exp_t2star(), _stretched_curve(2e-6, 1.0)),
        (FitModel.fid_beats(), simulate_fid_beats(HyperfineTriplet(50e6, 2.16e6), 3.6e-6, np.arange(1, 7200) * 2e-9)),
    ],
    ids=["stretched_exp", "t1_stretched", "exp_t2star", "fid_beats"],
)
def test_fit_result_as_dict_is_dataclasses_asdict(model, curve):
    result = fit(curve, model)
    fields = result.as_dict()
    assert fields == dataclasses.asdict(result)
    assert list(fields) == list(dataclasses.asdict(result))
    assert fields["params"] is not result.params and fields["stderr"] is not result.stderr


def test_fix_offset_is_respected():
    curve = _stretched_curve(6.4e-6, 0.96)
    result = fit(curve, FitModel.stretched_exp(), fix={"c": 0.0})
    assert result.params["c"] == 0.0
    assert result.stderr["c"] == 0.0
    assert result.params["t2_s"] == pytest.approx(6.4e-6, rel=1e-6)


def test_preconditions():
    t = np.geomspace(1e-7, 1e-5, 6)
    short = DecayCurve(t, np.exp(-t / 3e-6))
    with pytest.raises(ValueError):
        fit(short, FitModel.stretched_exp())  # needs >= 12 points
    shifted = DecayCurve(np.linspace(0.0, 1e-5, 40), np.exp(-np.linspace(0, 1e-5, 40) / 3e-6))
    with pytest.raises(ValueError):
        fit(shifted, FitModel.exp_t2star())  # t = 0 not allowed
    with pytest.raises(ValueError, match="unknown fixed parameter 'x'"):
        fit(_stretched_curve(6.4e-6, 0.96), FitModel.stretched_exp(), fix={"x": 0})
    flat = DecayCurve(np.geomspace(1e-7, 1e-5, 40), np.full(40, 0.5))
    with pytest.raises(RankDeficientDataError):
        fit(flat, FitModel.exp_t2star())


def test_lm_refuses_a_start_whose_residual_is_not_finite():
    with pytest.raises(NumericalFailure, match="residual is not finite at the starting point"):
        lm_least_squares(forward_differences(lambda x: np.array([x[0], math.nan])), [1.0])


def test_lm_grows_the_damping_when_a_step_cannot_be_solved(monkeypatch):
    curve = _stretched_curve(6.4e-6, 0.96)
    expected = fit(curve, FitModel.stretched_exp())
    solve, systems = np.linalg.solve, []

    def fails_once(a, b):
        systems.append(a)
        if len(systems) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fails_once)
    result = fit(curve, FitModel.stretched_exp())
    # Both systems are J^T J + lam * diag(J^T J): lam = LAMBDA_INIT, then LAMBDA_GROW times it.
    first, second = systems[:2]
    off_diagonal = ~np.eye(len(first), dtype=bool)
    assert np.array_equal(first[off_diagonal], second[off_diagonal])
    hess_diagonal = first.diagonal() / (1 + LAMBDA_INIT)
    np.testing.assert_allclose(second.diagonal(), hess_diagonal * (1 + LAMBDA_GROW * LAMBDA_INIT), rtol=1e-14)
    assert result.converged
    assert result.params == pytest.approx(expected.params, rel=1e-9)


def test_stretching_exponent_bounds_enforced():
    # Data with p = 3 sits exactly on the upper bound and must stay there.
    curve = _stretched_curve(2e-6, 3.0, span=(0.3, 1.6))
    result = fit(curve, FitModel.stretched_exp(), fix={"c": 0.0})
    assert result.params["p"] <= 3.0
    assert result.params["p"] == pytest.approx(3.0, rel=1e-6)


def test_envelope_fit_recovers_t2star():
    t = np.arange(1, 7200) * 2e-9
    curve = simulate_fid_beats(HyperfineTriplet(50e6, 2.16e6), 3.6e-6, t)
    result = fit_envelope(curve)
    assert result.params["t2_star_s"] == pytest.approx(3.6e-6, rel=0.02)


def test_envelope_fit_doublet_multiplicities():
    t = np.arange(1, 7200) * 2e-9
    curve = simulate_fid_beats(HyperfineTriplet.doublet(50e6, 2.16e6), 3.6e-6, t)
    result = fit_envelope(curve, multiplicities=DOUBLET_MULTIPLICITIES)
    assert result.params["t2_star_s"] == pytest.approx(3.6e-6, rel=0.02)
    assert result.params["a_hf_hz"] == pytest.approx(2.16e6, rel=1e-3)


def test_envelope_pure_cosine_recovers_detuning():
    dt = 2e-9
    t = np.arange(1, 7200) * dt
    curve = simulate_fid_beats(HyperfineTriplet(50e6, 0.0), 3.6e-6, t)
    result = fit_envelope(curve)
    grid_resolution = 1.0 / (t[-1] - t[0])
    assert abs(result.params["delta_hz"] - 50e6) < grid_resolution


def test_envelope_requires_five_periods():
    # 2.95 periods at 50 MHz; the periodogram's peak bin, 1/(1024 samples)
    # apart, reads 2.92.
    t = np.linspace(1e-9, 60e-9, 200)
    curve = simulate_fid_beats(HyperfineTriplet(50e6, 0.0), 3.6e-6, t)
    with pytest.raises(ValueError, match=r"^curve spans 2\.92 oscillation periods; need >= 5$"):
        fit(curve, FitModel.fid_beats())


def test_wrong_model_residual_much_larger():
    # An oscillating curve fit with a monotone stretched exponential leaves
    # the oscillation in the residuals: at least 5x the matched-model rms.
    rng = np.random.default_rng(0)
    t = np.arange(1, 6000) * 2e-9
    curve = simulate_fid_beats(HyperfineTriplet(50e6, 2.16e6), 3.6e-6, t)
    noisy = DecayCurve(t, np.clip(curve.signal + 0.01 * rng.standard_normal(t.size), -1.04, 1.04))
    good = fit(noisy, FitModel.fid_beats())
    try:
        bad = fit(noisy, FitModel.stretched_exp())
        bad_rms = bad.residual_rms
    except FitConvergenceError as exc:
        bad_rms = exc.best_result.residual_rms
    assert bad_rms >= 5 * good.residual_rms


def test_extract_t2_table_roundtrip():
    rows_in = []
    for n in (1, 4, 8, 16, 32):
        t2 = 6.4e-6 * n ** (2 / 3)
        rows_in.append((n, _stretched_curve(t2, 1.5)))
    rows = extract_t2_table(rows_in)
    for (n, _), row in zip(rows_in, rows):
        assert row.n == n
        assert row.t2_s == pytest.approx(6.4e-6 * n ** (2 / 3), rel=0.01)
    t2s = [row.t2_s for row in rows]
    assert all(a < b for a, b in zip(t2s, t2s[1:]))


def test_extract_t2_table_single_row_matches_plain_fit():
    curve = _stretched_curve(6.4e-6, 0.96)
    rows = extract_t2_table([(1, curve)])
    direct = fit(curve, FitModel.stretched_exp(), fix={"c": 0.0})
    assert len(rows) == 1
    assert rows[0].t2_s == pytest.approx(direct.params["t2_s"], rel=1e-12)


def test_extract_t2_table_raises_on_the_first_failed_row():
    good = _stretched_curve(6.4e-6, 0.96)
    flat = DecayCurve(np.geomspace(1e-7, 1e-5, 40), np.full(40, 0.5))
    with pytest.raises(FitError, match=r"^T2 fit failed for n=2: signal is constant") as info:
        extract_t2_table([(1, good), (2, flat), (3, flat)])
    assert isinstance(info.value.__cause__, RankDeficientDataError)


def _outcome(call):
    """A fit's outcome, as the LM reference tests compare them: the result's repr, or the exception's
    type, message and best result."""
    try:
        return ("ok", repr(call()))
    except Exception as exc:
        return (type(exc).__name__, str(exc), repr(getattr(exc, "best_result", None)))


def _given(value):
    if isinstance(value, Exception):
        raise value
    return value


def _table_corpus():
    """T2 table curves of five sizes: noisy stretched decays, a fit capped at MAX_ITER, one whose
    Jacobian stops being finite, one with a NaN, a constant signal and one with too few points for
    three parameters."""
    rng = np.random.default_rng(40)
    curves = []
    for i in range(30):
        t2 = 10 ** rng.uniform(-7, -3)
        t = np.geomspace(0.05 * t2, 4 * t2, (12, 24, 40)[i % 3])
        y = np.exp(-((t / t2) ** rng.uniform(0.5, 2.5))) + 10 ** rng.uniform(-4, -1.5) * rng.standard_normal(t.size)
        curves.append(DecayCurve(t, np.clip(y, -1.04, 1.04)))
    t = np.geomspace(3e-4, 3.6e-2, 20)
    decay = 0.27 * np.exp(-((t / 5e-3) ** 2.2))
    curves[4:4] = [DecayCurve(t, decay - 0.1), DecayCurve(t, np.full(t.size, 0.5))]
    curves[11:11] = [DecayCurve(t, decay - 0.09 + 0.01 * np.random.default_rng(5).standard_normal(t.size))]
    curves[20:20] = [DecayCurve(t[:8], decay[:8]), DecayCurve(t, np.where(t < 1e-2, decay, np.nan))]
    return curves


def test_table_fits_equal_per_curve_fits_bit_for_bit():
    curves = _table_corpus()
    model = FitModel.stretched_exp()
    want = [_outcome(lambda curve=curve: fit(curve, model, fix={"c": 0.0})) for curve in curves]
    got = [_outcome(lambda value=value: _given(value)) for value in _table_fits(curves)]
    assert got == want
    kinds = [o[0] for o in want]
    assert kinds.count("ok") >= 25
    assert {"FitConvergenceError", "NumericalFailure", "RankDeficientDataError", "ValueError"} <= set(kinds)
    assert any("max_iter reached" in o[1] for o in want if o[0] == "FitConvergenceError")
    # extract_t2_table raises the first failure in input order, with its n if it is a FitError.
    for start in (0, 20):
        order = curves[start:] + curves[:start]
        outcomes = want[start:] + want[:start]
        first = next(i for i, o in enumerate(outcomes) if o[0] != "ok")
        with pytest.raises(Exception) as info:
            extract_t2_table(list(zip(range(1, len(order) + 1), order)))
        if info.type is FitError:
            assert str(info.value) == f"T2 fit failed for n={first + 1}: {outcomes[first][1]}"
            assert type(info.value.__cause__).__name__ == outcomes[first][0]
        else:
            assert (info.type.__name__, str(info.value)) == outcomes[first][:2]


def test_a_singular_system_of_a_batch_grows_only_its_own_damping(monkeypatch):
    rng = np.random.default_rng(41)
    curves = [DecayCurve(c.times_s, c.signal + 0.01 * rng.standard_normal(c.times_s.size))
              for c in (_stretched_curve(t2, p, n=30) for t2, p in ((2e-6, 0.8), (5e-6, 1.4), (1e-5, 2.2)))]
    model = FitModel.stretched_exp()
    solve, seen = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: seen.append(a.copy()) or solve(a, b))
    fit(curves[1], model, fix={"c": 0.0})
    singular = seen[0]  # the first damped system of the middle curve
    stacks = []

    def fails_on_it(a, b):
        hits = [np.array_equal(system, singular) for system in np.reshape(a, (-1, *singular.shape))]
        stacks.append(hits)
        if any(hits):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fails_on_it)
    want = [_outcome(lambda curve=curve: fit(curve, model, fix={"c": 0.0})) for curve in curves]
    stacks.clear()
    got = [_outcome(lambda value=value: _given(value)) for value in _table_fits(curves)]
    assert got == want and all(o[0] == "ok" for o in got)
    # The stack failed on its middle system; each system was then solved on its own.
    assert stacks[:4] == [[False, True, False], [False], [True], [False]]


def test_stretched_model_rows_of_a_stack_equal_their_own_calls():
    # numpy takes x ** 2, x ** 0.5 and x ** -1 as x * x, sqrt(x) and 1 / x for a scalar power only.
    thetas = np.array([[1.0, 2e-6, p, 0.1] for p in (0.5, 1.0, 2.0, 1.37, -1.0)])
    ts = np.geomspace(1e-7, 1e-4, 30) * np.linspace(1.0, 2.0, len(thetas))[:, None]
    for model in (FitModel.stretched_exp(), FitModel.t1_stretched()):
        values, jacobian = model.evaluate(ts, thetas.T[:, :, None])
        for t, theta, value, jac in zip(ts, thetas, values, jacobian()):
            want, want_jacobian = model.evaluate(t, theta)
            assert value.tobytes() == want.tobytes()
            assert jac.tobytes() == want_jacobian().tobytes()


@pytest.mark.parametrize(
    "build",
    [FitModel.fid_beats, lambda mult: HyperfineTriplet(50e6, 2e6, mult)],
    ids=["fit_model", "hyperfine_triplet"],
)
def test_fid_model_rejects_bad_multiplicities(build):
    with pytest.raises(ValueError):
        build(((-1.0, 0.6), (1.0, 0.6)))


@pytest.mark.parametrize(
    "mult", [TRIPLET_MULTIPLICITIES, DOUBLET_MULTIPLICITIES], ids=["triplet", "doublet"]
)
def test_fid_simulation_equals_fit_model_bit_for_bit(mult):
    # One multiplet definition: the simulator and the fit model share it.
    t = np.linspace(1e-9, 2e-6, 2001)
    delta, a_hf, t2_star = 50e6, 2.16e6, 3.6e-6
    simulated = simulate_fid_beats(HyperfineTriplet(delta, a_hf, mult), t2_star, t)
    predicted = FitModel.fid_beats(mult).predict(t, np.array([1.0, t2_star, delta, a_hf, 0.0]))
    assert np.array_equal(simulated.signal, predicted)
