"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them inline).  Criterion 3
is split into its three sub-properties; the Hahn stretching-exponent window
is expected to fail for a single-OU bath and is kept as an honest red (see
the README's limitations section).
"""

import json
import math
import time

import numpy as np
import pytest

from nvforge import dataio, fitkit, fixtures, implant, magnetometry
from nvforge.cli import main
from nvforge.dataio import DecayCurve
from nvforge.engines import (
    HyperfineTriplet,
    decay_time_grid,
    simulate_analytic,
    simulate_fid_beats,
    simulate_mc,
    t2_vs_n,
)
from nvforge.noise import NoiseModel
from nvforge.presets import paper_like_noise, slow_bath_noise
from nvforge.scan import (
    charge_ratio,
    detect_spots,
    film_thickness,
    identify_peaks,
)
from nvforge.sequences import build_sequence
from nvforge.spincore import (
    CANONICAL_AXES,
    MagneticFieldVector,
    SpinParams,
    odmr_spectrum,
    project_field,
    transition_frequencies,
)
from nvforge.vdp import van_der_pauw

from hamiltonian_oracle import full_hamiltonian_frequencies


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_engine_cross_validation():
    started = time.monotonic()
    worst = 0.0
    for b_tau in (0.1, 1.0, 10.0):
        noise = NoiseModel(b_tau / 1e-6, 1e-6)
        for kind, n in (
            ("ramsey", None),
            ("hahn", None),
            ("cpmg", 8),
            ("xy4", None),
            ("xy8", None),
        ):
            seq = build_sequence(kind, 1e-6, n=n)
            times = decay_time_grid(seq, noise, n_points=16)
            analytic = simulate_analytic(seq, noise, times)
            mc = simulate_mc(seq, noise, times, 100000, seed=2024)
            rms = float(np.sqrt(np.mean((mc.signal - analytic.signal) ** 2)))
            worst = max(worst, rms)
    elapsed = time.monotonic() - started
    _report(
        1,
        worst <= 0.02 and elapsed <= 60.0,
        f"engine RMS worst {worst:.4f} (<= 0.02) over 5 sequences x 3 regimes, "
        f"n_traj=1e5, {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_2_fit_roundtrips_and_coverage():
    started = time.monotonic()
    failures = []

    t = np.geomspace(0.3e-6, 26e-6, 60)
    cases = [
        (fitkit.FitModel.exp_t2star(), DecayCurve(t, 0.9 * np.exp(-t / 3.6e-6) + 0.05),
         {"a": 0.9, "t2_star_s": 3.6e-6, "c": 0.05}),
        (fitkit.FitModel.stretched_exp(), DecayCurve(t, np.exp(-((t / 6.4e-6) ** 0.96))),
         {"a": 1.0, "t2_s": 6.4e-6, "p": 0.96, "c": 0.0}),
    ]
    t1_grid = np.geomspace(0.2e-3, 12e-3, 60)
    cases.append(
        (fitkit.FitModel.t1_stretched(),
         DecayCurve(t1_grid, np.exp(-((t1_grid / 3.14e-3) ** 1.32))),
         {"a": 1.0, "t1_s": 3.14e-3, "q": 1.32, "c": 0.0})
    )
    fid_t = np.arange(1, 6000) * 2e-9
    cases.append(
        (fitkit.FitModel.fid_beats(),
         simulate_fid_beats(HyperfineTriplet(50e6, 2.16e6), 3.6e-6, fid_t),
         {"a": 1.0, "t2_star_s": 3.6e-6, "delta_hz": 50e6, "a_hf_hz": 2.16e6, "c": 0.0}),
    )
    for model, curve, truth in cases:
        result = fitkit.fit(curve, model)
        for name, value in truth.items():
            got = result.params[name]
            tol = 1e-6 * max(abs(value), 1e-30)
            if abs(got - value) > max(tol, 1e-6 * abs(got) + 1e-12 * (value == 0.0)):
                if abs(value) > 0:
                    if abs(got - value) / abs(value) > 1e-6:
                        failures.append(f"{model.kind}.{name}: {got} != {value}")
                elif abs(got) > 1e-9:
                    failures.append(f"{model.kind}.{name}: {got} != 0")

    # Noisy coverage: sigma = 0.02, 100 points, 500 seeds, +-2 stderr >= 90%.
    true_t2, true_p = 6.4e-6, 0.96
    tc = np.geomspace(0.05 * true_t2, 4 * true_t2, 100)
    clean = np.exp(-((tc / true_t2) ** true_p))
    hits_t2 = hits_p = 0
    n_seeds = 500
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        noisy = np.clip(clean + 0.02 * rng.standard_normal(tc.size), -1.049, 1.049)
        result = fitkit.fit(DecayCurve(tc, noisy), fitkit.FitModel.stretched_exp())
        hits_t2 += abs(result.params["t2_s"] - true_t2) <= 2 * result.stderr["t2_s"]
        hits_p += abs(result.params["p"] - true_p) <= 2 * result.stderr["p"]
    coverage_t2 = hits_t2 / n_seeds
    coverage_p = hits_p / n_seeds
    if coverage_t2 < 0.9:
        failures.append(f"T2 coverage {coverage_t2:.3f} < 0.9")
    if coverage_p < 0.9:
        failures.append(f"p coverage {coverage_p:.3f} < 0.9")
    elapsed = time.monotonic() - started
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s > 120s")
    _report(
        2,
        not failures,
        failures or f"4 model round-trips at 1e-6; coverage T2 {coverage_t2:.3f}, "
        f"p {coverage_p:.3f} (>= 0.90); {elapsed:.1f}s (<= 120s)",
    )


def test_criterion_3_hahn_stretching_exponent_window():
    # Expected red: an OU bath with tau_c = 10 us above the 6.4 us echo time
    # decays with effective exponent near 3 at the Hahn point, and no single
    # OU parameter choice can hold p near 1 while also extending T2 by 10x
    # under CPMG (see README limitations).  The criterion is asserted as
    # stated rather than weakened.
    noise = paper_like_noise()
    seq = build_sequence("hahn", 1e-6)
    times = decay_time_grid(seq, noise, n_points=40)
    curve = simulate_analytic(seq, noise, times)
    result = fitkit.fit(curve, fitkit.FitModel.stretched_exp(), fix={"c": 0.0})
    p = result.params["p"]
    t2 = result.params["t2_s"]
    _report(
        "3a",
        0.8 <= p <= 1.2 and abs(t2 - 6.4e-6) / 6.4e-6 < 0.05,
        f"paper-like Hahn fit: T2 {t2 * 1e6:.2f} us, p {p:.2f} (window [0.8, 1.2])",
    )


def test_criterion_3_cpmg_extension():
    table = dict(t2_vs_n(paper_like_noise(), [1, 4, 8, 16, 32, 64]))
    ordered = [table[n] for n in (4, 8, 16, 32, 64)]
    monotone = all(a <= b for a, b in zip(ordered, ordered[1:]))
    ratio = table[64] / table[1]
    _report(
        "3b",
        monotone and ratio >= 10.0,
        f"CPMG T2(n) monotone={monotone}, T2(64)/T2(1) = {ratio:.1f} (>= 10)",
    )


def test_criterion_3_scaling_exponent():
    table = t2_vs_n(slow_bath_noise(), [4, 8, 16, 32, 64])
    ns = np.array([n for n, _ in table], dtype=float)
    t2s = np.array([t2 for _, t2 in table])
    slope = float(np.polyfit(np.log(ns), np.log(t2s), 1)[0])
    _report(
        "3c",
        abs(slope - 2 / 3) <= 0.15,
        f"slow-bath log-log T2(n) slope {slope:.3f} (2/3 +- 0.15)",
    )


def test_criterion_4_fid_beats():
    dt = 2e-9
    t = np.arange(1, 7200) * dt
    curve = simulate_fid_beats(HyperfineTriplet(50e6, 0.0), 3.6e-6, t)
    spectrum = np.abs(np.fft.rfft(curve.signal, n=65536))
    freqs = np.fft.rfftfreq(65536, d=dt)
    peak = float(freqs[int(np.argmax(spectrum))])
    fit_result = fitkit.fit_envelope(curve)
    t2_star = fit_result.params["t2_star_s"]
    ok_peak = abs(peak - 50e6) <= 1e6
    ok_t2 = abs(t2_star - 3.6e-6) / 3.6e-6 <= 0.02
    _report(
        4,
        ok_peak and ok_t2,
        f"FFT peak {peak / 1e6:.2f} MHz (50 +- 1), fitted T2* {t2_star * 1e6:.3f} us "
        f"({abs(t2_star - 3.6e-6) / 3.6e-6 * 100:.2f}% err, <= 2%)",
    )


def test_criterion_5_sensitivity():
    spot, t2_star = magnetometry.paper_ideal_spot()
    dc = magnetometry.eta_dc(spot, t2_star)
    ac, factor = magnetometry.eta_ac(dc, t2_star, 173e-6)
    ok_dc = abs(dc - 100e-9) / 100e-9 < 1e-9
    ok_ac = abs(ac - 14.4e-9) <= 0.1e-9
    ok_order = ac / 10e-9 <= 1.5
    _report(
        5,
        ok_dc and ok_ac and ok_order,
        f"eta_dc {dc * 1e9:.3f} nT/rtHz (pinned 100), eta_ac {ac * 1e9:.2f} nT/rtHz "
        f"(14.4 +- 0.1, within 1.5x of 10)",
    )


def test_criterion_6_odmr():
    params = SpinParams()
    grid = np.linspace(2.77e9, 2.97e9, 8001)

    zero = odmr_spectrum(params, MagneticFieldVector(0, 0, 0), grid)
    ok_zero = (
        len(zero.resolved_lines) == 1
        and abs(zero.resolved_lines[0][0] - 2.87e9) < 1.0
    )

    field = MagneticFieldVector(0, 0, 1.6e-3)
    two = odmr_spectrum(params, field, grid)
    split = two.resolved_lines[-1][0] - two.resolved_lines[0][0]
    ok_two = len(two.resolved_lines) == 2 and abs(split - 51.8e6) <= 0.1e6

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        z = axis = CANONICAL_AXES[rng.integers(4)]
        ref = np.array([0.0, 0.0, 1.0]) if abs(z[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
        x = np.cross(ref, z)
        x /= np.linalg.norm(x)
        y = np.cross(z, x)
        magnitude = rng.uniform(0.0, 2e-3)
        angle = rng.uniform(0.0, math.pi / 6)
        azimuth = rng.uniform(0.0, 2 * math.pi)
        bvec = magnitude * (
            math.cos(angle) * z
            + math.sin(angle) * (math.cos(azimuth) * x + math.sin(azimuth) * y)
        )
        fv = MagneticFieldVector(*bvec)
        exact = full_hamiltonian_frequencies(params, fv, axis)
        secular = transition_frequencies(params, project_field(fv, axis))
        worst = max(worst, abs(secular[0] - exact[0]), abs(secular[1] - exact[1]))
    ok_secular = worst < 1e6
    _report(
        6,
        ok_zero and ok_two and ok_secular,
        f"zero-field single line, 16 G split {split / 1e6:.2f} MHz (51.8 +- 0.1), "
        f"worst secular error {worst / 1e6:.3f} MHz (< 1)",
    )


def test_criterion_7_implantation():
    beam = implant.BeamConfig(energy_ev=5000.0, current_a=500e-12, spot_diameter_m=25e-6)
    duration, _ = implant.dose_to_time(beam, 1e12)
    ok_time = abs(duration - 1.57e-3) / 1.57e-3 <= 0.01
    depth, _ = implant.range_straggle(5000.0)
    ok_range = 7.0 <= depth <= 10.0 and depth == 8.5
    ok_yield = implant.yield_model(5e3) == 0.025 and implant.yield_model(2e6) == 0.5
    _report(
        7,
        ok_time and ok_range and ok_yield,
        f"dose_to_time {duration * 1e3:.3f} ms (1.57 +- 1%), range(5 keV) {depth} nm "
        f"(pinned 8.5 in [7, 10]), yields 2.5% / 50% exact",
    )


def test_criterion_8_purity_budget():
    budget = implant.GrowthBudget(total_flow_sccm=400.0, leak_rate_sccm=2.4e-4)
    report = implant.nitrogen_budget(budget)
    ok = report.incorporated_ppb < 1.0 and report.incorporated_ppb == pytest.approx(
        0.0468, rel=1e-3
    )
    _report(
        8,
        ok,
        f"incorporated nitrogen {report.incorporated_ppb:.4f} ppb "
        f"(computed 0.0468, < 1 ppb)",
    )


def test_criterion_9_scan_spectra_fixtures():
    failures = []

    thickness = film_thickness(fixtures.depth_profile_fig6(seed=0)).thickness_um
    if abs(thickness - 265.0) > 2.0:
        failures.append(f"fig6 thickness {thickness:.2f} um")

    spot = detect_spots(fixtures.spot_grid_fig5(seed=0))[0]
    if abs(spot.fwhm_x_um - 15.0) / 15.0 > 0.05 or abs(spot.fwhm_y_um - 27.0) / 27.0 > 0.05:
        failures.append(f"spot FWHM ({spot.fwhm_x_um:.2f}, {spot.fwhm_y_um:.2f}) um")

    for sample, target in (("s1", 0.71), ("s2", 2.8), ("s3", 1.5)):
        ratio = charge_ratio(fixtures.spectrum_s123(sample)).ratio_c0_cminus
        if abs(ratio - target) / target > 1e-3 or round(ratio, 2) != target:
            failures.append(f"{sample} ratio {ratio:.5f} != {target}")

    raman = identify_peaks(fixtures.raman_spectrum())[0]
    if abs(raman.fwhm - 1.61) / 1.61 > 0.05:
        failures.append(f"raman FWHM {raman.fwhm:.4f} cm-1")

    rs, _ = van_der_pauw(100.0, 100.0)
    expected = math.pi * 100.0 / math.log(2.0)
    if abs(rs - expected) / expected > 1e-10:
        failures.append(f"vdp symmetric {rs} vs {expected}")

    _report(
        9,
        not failures,
        failures
        or f"fig6 {thickness:.1f} um, spot ({spot.fwhm_x_um:.2f}, {spot.fwhm_y_um:.2f}) um, "
        f"ratios 0.71/2.8/1.5, raman {raman.fwhm:.3f} cm-1, vdp pi*R/ln2 at 1e-10",
    )


def test_criterion_10_determinism(tmp_path):
    failures = []

    # Seeded CLI commands: byte-identical data outputs across runs (the
    # manifest carries wall time and is excluded by contract).
    commands = [
        ["decay", "--sequence", "xy8", "--engine", "mc", "--n-traj", "4000",
         "--n-times", "6", "--seed", "31"],
        ["fixtures", "--target", "fig5", "--seed", "31"],
        ["odmr"],
    ]
    for i, command in enumerate(commands):
        d1, d2 = tmp_path / f"r{i}a", tmp_path / f"r{i}b"
        assert main(command + ["--output-dir", str(d1)]) == 0
        assert main(command + ["--output-dir", str(d2)]) == 0
        files1 = {p.name: p.read_bytes() for p in sorted(d1.iterdir()) if p.name != "manifest.json"}
        files2 = {p.name: p.read_bytes() for p in sorted(d2.iterdir()) if p.name != "manifest.json"}
        if files1 != files2:
            failures.append(f"{command[0]} outputs differ across runs")

    # Schedule independence: Monte-Carlo block evaluation order must not
    # change a single bit.
    seq = build_sequence("cpmg", 1e-6, n=4)
    noise = NoiseModel(1e6, 1e-6)
    times = np.geomspace(1e-7, 2e-5, 8)
    reference = simulate_mc(seq, noise, times, 60000, seed=5)
    shuffled = simulate_mc(seq, noise, times, 60000, seed=5, _block_order=[3, 1, 2, 0])
    if not np.array_equal(reference.signal, shuffled.signal):
        failures.append("MC result depends on block evaluation order")

    _report(
        10,
        not failures,
        failures or "3 seeded commands byte-identical across runs; "
        "MC invariant under block evaluation order",
    )
