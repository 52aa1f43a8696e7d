"""Every fit gives the same bits as the reference solver and model formulas.

``lm_reference`` holds the LM solver and ``FitModel``'s formulas before the
solver's per-iteration trim.  Each test runs one seeded corpus of fits
twice: through the reference, then through the current code.  It compares
every LM result (x, SSE, Jacobian, iteration count, stop reason) and every
fit outcome (the result's repr, or the exception's type and message).  The
reference runs with warnings ignored; the current code runs under the
suite's ``error::RuntimeWarning`` filter, so the corpus also shows that no
fit warns.
"""

import warnings

import numpy as np
import pytest

import lm_reference
from nvforge import fitkit, fixtures, levmar, scan
from nvforge.constants import DOUBLET_MULTIPLICITIES, TRIPLET_MULTIPLICITIES
from nvforge.dataio import DecayCurve
from nvforge.engines import HyperfineTriplet, simulate_fid_beats
from nvforge.fitkit import FitModel


def _run(module, solver, calls, evaluate=None):
    """Outcomes of ``calls`` with ``module.lm_least_squares`` set to ``solver``,
    and ``FitModel.evaluate`` to ``evaluate`` if given.

    Returns (LM results, fit outcomes) as comparable tuples.
    """
    lm_log = []

    def recorded(*args, **kwargs):
        res = solver(*args, **kwargs)
        lm_log.append((res.x.tobytes(), res.sse.hex(), res.jacobian.tobytes(),
                       res.n_iter, res.converged, res.message))
        return res

    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "lm_least_squares", recorded)
        if evaluate is not None:
            mp.setattr(FitModel, "evaluate", evaluate)
        for call in calls:
            try:
                outcomes.append(("ok", repr(call())))
            except Exception as exc:  # the exception is part of the outcome
                best = getattr(exc, "best_result", None)
                outcomes.append((type(exc).__name__, str(exc), repr(best)))
    return lm_log, outcomes


def _reference(evaluate, x0, lower=None, upper=None):
    """The reference solver on the current solver's ``evaluate`` protocol."""
    return lm_reference.lm_least_squares(lambda x: evaluate(x)[0], x0, lambda x: evaluate(x)[1](), lower, upper)


def _assert_same_bits(module, calls):
    """Fit outcomes, and the RuntimeWarnings the reference raised on them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = _run(module, _reference, calls, lm_reference.evaluate)
    got = _run(module, levmar.lm_least_squares, calls)
    assert got[1] == expected[1]
    assert got[0] == expected[0]
    return got[1], [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _decay_calls(n_curves=504):
    """Noisy decays, each fitted by one of three models with a free and a pinned offset."""
    rng = np.random.default_rng(34)
    models = (FitModel.stretched_exp(), FitModel.exp_t2star(), FitModel.t1_stretched())
    calls = []
    for i in range(n_curves):
        tau = 10 ** rng.uniform(-7, -2)
        p = rng.uniform(0.5, 2.5)
        a, c = rng.uniform(0.2, 1.0), rng.uniform(-0.1, 0.2)
        n = int(rng.integers(12, 61))
        t = np.geomspace(tau * 10 ** rng.uniform(-2, -0.5), tau * 10 ** rng.uniform(0.2, 1.0), n)
        y = a * np.exp(-((t / tau) ** p)) + c + 10 ** rng.uniform(-4, -1) * rng.standard_normal(n)
        curve = DecayCurve(t, np.clip(y, -1.04, 1.04))
        model = models[i % 3]
        calls += [lambda curve=curve, model=model: fitkit.fit(curve, model),
                  lambda curve=curve, model=model: fitkit.fit(curve, model, fix={"c": 0.0})]
    return calls


def test_decay_fits_match_the_reference_bit_for_bit():
    outcomes, warned = _assert_same_bits(fitkit, _decay_calls())
    kinds = {o[0] for o in outcomes}
    # The corpus reaches the converged, iteration-cap and numerical-failure
    # exits, and steps that made the reference warn.
    assert {"ok", "FitConvergenceError", "NumericalFailure"} <= kinds
    assert sum(o[0] == "ok" for o in outcomes) > len(outcomes) // 2
    assert warned


def test_warning_reproducer_matches_the_reference():
    # A pinned-offset stretched fit whose rejected trial steps overflow (t/T2)^p.
    t = np.geomspace(1e-7, 7e-4, 12)
    curve = DecayCurve(t, 0.32 * np.exp(-((t / 4.9e-4) ** 3)) + 0.05)
    (outcome,), warned = _assert_same_bits(
        fitkit, [lambda: fitkit.fit(curve, FitModel.stretched_exp(), fix={"c": 0.0})]
    )
    assert outcome[0] == "ok"
    assert "overflow encountered in power" in str(warned[0].message)


def test_fid_fits_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(35)
    calls = []
    for i in range(20):
        mult = DOUBLET_MULTIPLICITIES if i % 2 else TRIPLET_MULTIPLICITIES
        triplet = HyperfineTriplet(rng.uniform(30e6, 70e6), rng.uniform(1.5e6, 3e6), mult)
        t = np.arange(1, int(rng.integers(2000, 4001))) * 2e-9
        curve = simulate_fid_beats(triplet, rng.uniform(1e-6, 5e-6), t)
        noisy = DecayCurve(t, curve.signal + 10 ** rng.uniform(-4, -1.5) * rng.standard_normal(t.size))
        calls.append(lambda curve=noisy, mult=mult: fitkit.fit_envelope(curve, mult))
    outcomes, _ = _assert_same_bits(fitkit, calls)
    assert sum(o[0] == "ok" for o in outcomes) >= 15


def test_scan_fits_match_the_reference_bit_for_bit():
    # Each scan fit runs on levmar.forward_differences' Jacobian;
    # film_thickness's logistic overflows far from its steps.
    calls = [lambda seed=seed: scan.detect_spots(fixtures.spot_grid_fig5(seed)) for seed in range(3)]
    calls.append(lambda: scan.detect_spots(fixtures.halo_grid_s1(0)))
    calls += [lambda seed=seed: scan.film_thickness(fixtures.depth_profile_fig6(seed)) for seed in range(3)]
    calls += [lambda s=s: scan.identify_peaks(fixtures.spectrum_s123(s)) for s in ("s1", "s2", "s3")]
    calls.append(lambda: scan.identify_peaks(fixtures.raman_spectrum()))
    outcomes, _ = _assert_same_bits(scan, calls)
    assert all(o[0] == "ok" for o in outcomes)
