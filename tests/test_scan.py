import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from nvforge import dataio, fixtures, vdp
from nvforge.dataio import DepthProfile, ScanGrid, Spectrum
from nvforge.levmar import NumericalFailure
from nvforge.scan import (
    DepthProfileError,
    MissingZplError,
    charge_ratio,
    detect_spots,
    film_thickness,
    identify_peaks,
    label_regions,
    purity_report,
    robust_background,
)
from nvforge.vdp import van_der_pauw


def _flat_grid(level=5000.0, n=32):
    x = np.arange(n, dtype=float)
    y = np.arange(n, dtype=float)
    return ScanGrid(x_um=x, y_um=y, counts=np.full((n, n), level))


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(x_um=[0.0, 2.0, 3.0], y_um=[0.0, 1.0], counts=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ScanGrid(x_um=[0.0, 1.0], y_um=[0.0, 1.0], counts=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ScanGrid(x_um=[0.0, 1.0], y_um=[0.0, 1.0], counts=-np.ones((2, 2)))


def test_label_regions_hand_cases():
    diagonal = np.array([[1, 0], [0, 1]], dtype=bool)
    labels, n = label_regions(diagonal)
    assert n == 2
    assert labels.tolist() == [[1, 0], [0, 2]]
    u_shape = np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], dtype=bool)
    labels, n = label_regions(u_shape)
    assert n == 1
    assert np.array_equal(labels, u_shape.astype(int))
    labels, n = label_regions(np.zeros((4, 5), dtype=bool))
    assert n == 0
    assert not labels.any()


def test_label_regions_matches_ndimage():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(7)
    for _ in range(100):
        mask = rng.random(tuple(rng.integers(1, 40, size=2))) < rng.uniform(0.05, 0.8)
        labels, n = label_regions(mask)
        expected, n_expected = ndimage.label(mask)
        assert n == n_expected
        assert np.array_equal(labels, expected)


def test_detect_spots_flat_grid_empty():
    assert detect_spots(_flat_grid()) == []


def test_detect_spots_requires_minimum_grid():
    with pytest.raises(ValueError):
        detect_spots(_flat_grid(n=6))


def test_detect_spots_recovers_fig5_spot_shape():
    grid = fixtures.spot_grid_fig5(seed=0)
    spots = detect_spots(grid)
    assert len(spots) == 1
    spot = spots[0]
    assert spot.fwhm_x_um == pytest.approx(15.0, rel=0.05)
    assert spot.fwhm_y_um == pytest.approx(27.0, rel=0.05)
    assert spot.centroid_x_um == pytest.approx(0.0, abs=1.0)
    assert spot.centroid_y_um == pytest.approx(0.0, abs=1.0)


def test_detect_spots_shape_invariances():
    grid = fixtures.spot_grid_fig5(seed=3)
    base = detect_spots(grid)[0]
    # Scaling all counts (and so the background) leaves the FWHM estimate alone.
    scaled = ScanGrid(x_um=grid.x_um, y_um=grid.y_um, counts=grid.counts * 3.0)
    spot = detect_spots(scaled, threshold_sigma=5 * math.sqrt(3.0))[0]
    assert spot.fwhm_x_um == pytest.approx(base.fwhm_x_um, rel=0.01)
    assert spot.fwhm_y_um == pytest.approx(base.fwhm_y_um, rel=0.01)
    shifted = ScanGrid(x_um=grid.x_um, y_um=grid.y_um, counts=grid.counts + 2000.0)
    spot = detect_spots(shifted)[0]
    assert spot.fwhm_x_um == pytest.approx(base.fwhm_x_um, rel=0.01)


@pytest.mark.parametrize("seed", [0, 5, 12345])
def test_detect_spots_same_in_process_and_after_csv_round_trip(tmp_path, seed):
    grid = fixtures.spot_grid_fig5(seed)
    path = tmp_path / "grid.csv"
    dataio.write_scan_grid_csv(grid, path)
    assert detect_spots(dataio.read_scan_grid_csv(path)) == detect_spots(grid)


def test_detect_spots_halo_fixture_primary_width():
    grid = fixtures.halo_grid_s1(seed=0)
    spots = detect_spots(grid)
    assert spots
    primary = spots[0]
    assert primary.fwhm_x_um == pytest.approx(200.0, rel=0.1)
    assert abs(primary.fwhm_x_um - 200.0) < abs(primary.fwhm_x_um - 400.0)


def test_film_thickness_fig6_fixture():
    # Every seed: noise can split one step's gradient region by a sample.
    for seed in range(200):
        result = film_thickness(fixtures.depth_profile_fig6(seed=seed))
        assert result.thickness_um == pytest.approx(265.0, abs=2.0), seed
        assert result.surface_z_um == pytest.approx(0.0, abs=2.0), seed


def test_film_thickness_translation_equivariant():
    profile = fixtures.depth_profile_fig6(seed=1)
    shifted = DepthProfile(z_um=profile.z_um + 37.0, counts=profile.counts)
    a = film_thickness(profile)
    b = film_thickness(shifted)
    assert b.thickness_um == pytest.approx(a.thickness_um, abs=0.5)
    assert b.surface_z_um == pytest.approx(a.surface_z_um + 37.0, abs=0.5)


def test_film_thickness_single_step_rejected():
    z = np.arange(-50.0, 200.0, 0.5)
    counts = 100.0 + 5000.0 / (1.0 + np.exp(-z / 1.5))
    with pytest.raises(DepthProfileError):
        film_thickness(DepthProfile(z_um=z, counts=counts))


def _two_ramp_profile(flat: int) -> DepthProfile:
    """Noiseless 800-sample profile (smoothing width 8): air at 0, a surface
    step that rises 0 -> 100 -> 200 in two 10-sample ramps with ``flat``
    samples between them, and an interface step 200 -> 600."""
    def ramp(lo, hi):
        return np.linspace(lo, hi, 12)[1:-1]

    head = [np.zeros(200), ramp(0, 100), np.full(flat, 100.0), ramp(100, 200)]
    film = np.full(300 - sum(s.size for s in head[1:]), 200.0)
    counts = np.concatenate([*head, film, ramp(200, 600), np.full(290, 600.0)])
    return DepthProfile(z_um=0.1 * np.arange(800), counts=counts)


def test_film_thickness_merges_dip_shorter_than_smoothing_width():
    # The 6-sample flat leaves a 6-sample dip in the step mask: one step.
    result = film_thickness(_two_ramp_profile(flat=6))
    assert result.surface_z_um == pytest.approx(21.2, abs=0.5)
    assert result.thickness_um == pytest.approx(29.2, abs=0.5)


@pytest.mark.parametrize("flat", [8, 40])
def test_film_thickness_keeps_dip_of_smoothing_width_apart(flat):
    # A dip as long as the smoothing width splits the surface step in two.
    with pytest.raises(DepthProfileError, match="found 3 rising step"):
        film_thickness(_two_ramp_profile(flat=flat))


def test_film_thickness_second_step_at_the_profile_end_rejected():
    # 400 samples (smoothing width 4): 0 -> 100 at z = 50 um, then -> 400 in
    # the last 2 samples, which leaves no samples to measure the substrate on.
    z = 0.5 * np.arange(400)
    counts = np.where(z < 50.0, 0.0, 100.0)
    counts[-2:] = 400.0
    with pytest.raises(DepthProfileError, match="within 4 samples of the profile's end"):
        film_thickness(DepthProfile(z_um=z, counts=counts))


def test_film_thickness_sharp_step_is_quiet():
    # Noiseless steps at z = 50 um and 6 samples before the end: exp overflows
    # in the logistic model far below each step, which the suite's
    # error::RuntimeWarning filter turns into a failure unless it is silenced.
    z = 0.5 * np.arange(400)
    counts = np.where(z < 50.0, 0.0, 100.0)
    counts[-6:] = 400.0
    result = film_thickness(DepthProfile(z_um=z, counts=counts))
    assert result.surface_z_um == pytest.approx(49.75, abs=0.01)
    assert result.interface_z_um == pytest.approx(196.75, abs=0.01)


def test_film_thickness_reversed_profile_gets_orientation_hint():
    profile = fixtures.depth_profile_fig6(seed=0)
    reversed_counts = profile.counts[::-1].copy()
    with pytest.raises(DepthProfileError, match="downward"):
        film_thickness(DepthProfile(z_um=profile.z_um, counts=reversed_counts))


def test_spectrum_fixture_refuses_an_unknown_sample():
    with pytest.raises(ValueError, match="unknown sample 's9'; expected one of s1, s2, s3"):
        fixtures.spectrum_s123("s9")


def test_identify_peaks_labels_both_zpls():
    spec = fixtures.spectrum_s123("s1")
    peaks = identify_peaks(spec)
    labels = {p.label: p for p in peaks}
    assert "NV0_ZPL" in labels
    assert "NVminus_ZPL" in labels
    assert abs(labels["NV0_ZPL"].center - 575.0) < 0.5
    assert abs(labels["NVminus_ZPL"].center - 637.0) < 0.5
    assert "implantation_defect" in labels
    assert "raman_2nd_order_band" in labels


def test_identify_peaks_flat_spectrum_empty():
    wl = np.linspace(500.0, 800.0, 600)
    spec = Spectrum(values=wl, counts=np.full_like(wl, 100.0))
    assert identify_peaks(spec) == []


def test_identify_peaks_requires_enough_samples():
    wl = np.linspace(500.0, 800.0, 30)
    with pytest.raises(ValueError):
        identify_peaks(Spectrum(values=wl, counts=np.full_like(wl, 100.0)))


def test_identify_peaks_drops_a_cramped_candidate_and_labels_an_unknown_line():
    # Two spikes 1 nm apart leave each a fit window of 3 samples, so pass 1 drops both;
    # the line at 700 nm matches no catalog line.
    wl = np.arange(650.0, 750.0, 0.5)
    counts = 100.0 + dataio.lorentzian((10000.0, 700.0, 3.0, 0.0), wl)
    counts[[20, 22]] += 5000.0  # 660 and 661 nm
    peaks = identify_peaks(Spectrum(values=wl, counts=counts))
    assert [p.label for p in peaks] == ["unknown"]
    assert peaks[0].center == pytest.approx(700.0, abs=1e-6)


def test_identify_peaks_centers_invariant_under_rescaling():
    spec = fixtures.spectrum_s123("s2")
    peaks = identify_peaks(spec)
    scaled = Spectrum(values=spec.values, counts=spec.counts * 7.5, unit=spec.unit)
    peaks_scaled = identify_peaks(scaled)
    assert len(peaks) == len(peaks_scaled)
    for a, b in zip(peaks, peaks_scaled):
        assert b.center == pytest.approx(a.center, abs=1e-6)
        assert b.area == pytest.approx(7.5 * a.area, rel=1e-6)


def test_raman_fixture_metrology():
    spec = fixtures.raman_spectrum()
    peaks = identify_peaks(spec)
    assert len(peaks) == 1
    peak = peaks[0]
    assert peak.label == "diamond_raman"
    assert abs(peak.center - 1332.54) < 0.05
    assert peak.fwhm == pytest.approx(1.61, rel=0.05)


def test_sparse_synthetic_spectrum_roundtrip():
    wl = np.arange(500.0, 700.0, 0.25)
    counts = np.full_like(wl, 50.0)
    for center, fwhm, area in ((575.0, 3.0, 900.0), (637.0, 4.0, 1200.0)):
        amp = 2 * area / (math.pi * fwhm)
        counts = counts + amp / (1 + ((wl - center) / (fwhm / 2)) ** 2)
    peaks = identify_peaks(Spectrum(values=wl, counts=counts))
    assert [p.label for p in peaks] == ["NV0_ZPL", "NVminus_ZPL"]
    assert peaks[0].center == pytest.approx(575.0, abs=0.5)
    assert peaks[1].center == pytest.approx(637.0, abs=0.5)


def test_charge_ratio_equal_areas_is_one():
    wl = np.arange(500.0, 700.0, 0.25)
    counts = np.full_like(wl, 50.0)
    for center in (575.0, 637.0):
        amp = 2 * 1000.0 / (math.pi * 3.0)
        counts = counts + amp / (1 + ((wl - center) / 1.5) ** 2)
    ratio = charge_ratio(Spectrum(values=wl, counts=counts))
    assert ratio.ratio_c0_cminus == pytest.approx(1.0, rel=1e-3)


def test_charge_ratio_fixture_targets():
    for sample, target in (("s1", 0.71), ("s2", 2.8), ("s3", 1.5)):
        ratio = charge_ratio(fixtures.spectrum_s123(sample))
        assert ratio.ratio_c0_cminus == pytest.approx(target, rel=1e-3)


def test_charge_ratio_kappa_linearity():
    spec = fixtures.spectrum_s123("s3")
    base = charge_ratio(spec, kappa=1.0)
    doubled = charge_ratio(spec, kappa=2.0)
    assert doubled.ratio_c0_cminus == pytest.approx(2 * base.ratio_c0_cminus, rel=1e-12)


def test_charge_ratio_missing_line_errors():
    wl = np.arange(500.0, 700.0, 0.25)
    counts = np.full_like(wl, 50.0)
    amp = 2 * 1000.0 / (math.pi * 3.0)
    counts = counts + amp / (1 + ((wl - 575.0) / 1.5) ** 2)
    with pytest.raises(MissingZplError, match="637"):
        charge_ratio(Spectrum(values=wl, counts=counts))


def test_van_der_pauw_symmetric_closed_form():
    rs, g = van_der_pauw(100.0, 100.0)
    expected = math.pi * 100.0 / math.log(2.0)
    assert rs == pytest.approx(expected, rel=1e-10)
    assert g == pytest.approx(1.0 / expected, rel=1e-10)


def test_van_der_pauw_against_brute_force_bisection():
    r_a, r_b = 1.0, 10.0

    def residual(rs):
        return math.exp(-math.pi * r_a / rs) + math.exp(-math.pi * r_b / rs) - 1.0

    lo, hi = 1.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) < 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    rs, _ = van_der_pauw(r_a, r_b)
    assert rs == pytest.approx(oracle, rel=1e-10)
    assert abs(residual(rs)) < 1e-10


def test_van_der_pauw_symmetry_and_monotonicity():
    rs_ab, _ = van_der_pauw(3.0, 8.0)
    rs_ba, _ = van_der_pauw(8.0, 3.0)
    assert rs_ab == pytest.approx(rs_ba, rel=1e-12)
    rs_low, g_low = van_der_pauw(3.0, 8.0)
    rs_high, g_high = van_der_pauw(3.0, 9.0)
    assert rs_high > rs_low
    assert g_high < g_low


def test_van_der_pauw_input_validation():
    with pytest.raises(ValueError):
        van_der_pauw(0.0, 1.0)
    with pytest.raises((ValueError, NumericalFailure)):
        van_der_pauw(float("inf"), 1.0)


#: pi to 50 digits, for references that must not inherit math.pi's rounding.
PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")


def _decimal_expm1_neg(x):
    """exp(-x) - 1 for Decimal x >= 0, by its series where the difference cancels."""
    if x > Decimal("0.1"):
        return (-x).exp() - 1
    term = total = -x
    k = 1
    while abs(term) > abs(total) * Decimal("1e-45"):
        k += 1
        term = -term * x / k
        total += term
    return total


def _vdp_reference(r_a, r_b):
    """R_s from a 50-digit bisection on g(v) = exp(-v) + expm1(-r v), v = pi R_max / R_s."""
    r_min, r_max = sorted((r_a, r_b))
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(r_min) / Decimal(r_max)
        lo, hi = Decimal(0), Decimal(2000)
        while hi - lo > hi * Decimal("1e-25"):
            mid = (lo + hi) / 2
            if (-mid).exp() + _decimal_expm1_neg(r * mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(PI_50 * Decimal(r_max) / ((lo + hi) / 2))


def test_van_der_pauw_matches_a_high_precision_root():
    # R_max / R_min from 1 to 1e300 around scales 1e-100, 1 and 1e100, plus
    # (1e300, 100): summing exp(-x) + exp(-y) - 1 cancels from a ratio of ~1e4;
    # ratios on either side of VDP_LOG_SWITCH; and subnormal ratios, down to
    # one that underflows to 0, (5e-324, 1e300).
    pairs = [(1e300, 100.0), (1.0, 1.0 / vdp.VDP_LOG_SWITCH), (1.0, 0.99 / vdp.VDP_LOG_SWITCH),
             (1e-320, 1.0), (5e-324, 1.0), (5e-324, 1e10), (5e-324, 1e300), (5e-324, 1.7e308),
             (1e-310, 1e-5), (2.5e-320, 3e-3)]
    for k in range(0, 301, 10):
        for mantissa in (1.0, 3.7):
            ratio = mantissa * 10.0**k
            pairs += [(scale / math.sqrt(ratio), scale * math.sqrt(ratio))
                      for scale in (1e-100, 1.0, 1e100)]
    worst = max(abs(van_der_pauw(a, b)[0] / _vdp_reference(a, b) - 1.0) for a, b in pairs)
    assert worst <= 5e-16
    assert van_der_pauw(1e300, 100.0)[0] == 4.6223766434881736e297


def test_van_der_pauw_symmetric_pairs_are_pi_r_over_ln2_exactly():
    rng = np.random.default_rng(19)
    for r in 10.0 ** rng.uniform(-300.0, 300.0, 20000):
        rs, g = van_der_pauw(float(r), float(r))
        assert rs == math.pi * float(r) / math.log(2.0)
        assert g == 1.0 / rs


# Pairs whose R_s overflows are run through the CLI in a subprocess
# (tests/test_cli.py): a bracket search from pi (R_A + R_B) = inf never ends.
@pytest.mark.parametrize(
    "r_a, r_b, message",
    [
        (1e-320, 1e-320, "leaves the float range"),  # 1 / R_s overflows
    ],
)
def test_van_der_pauw_outside_the_float_range_raises(r_a, r_b, message):
    with pytest.raises(NumericalFailure, match=message):
        van_der_pauw(r_a, r_b)


def test_van_der_pauw_subnormal_ratio_rises_to_its_root():
    # exp(-v) is subnormal at these roots and the second ratio underflows to
    # 0; the log form keeps every digit of the 50-digit roots.
    assert van_der_pauw(1e-320, 1.0)[0] == pytest.approx(4.302173258065405e-3, rel=5e-16)
    assert van_der_pauw(5e-324, 1e300)[0] == pytest.approx(2.2000694181365975e297, rel=5e-16)


def test_van_der_pauw_step_cap(monkeypatch):
    # A ratio of 1e-200, above VDP_LOG_SWITCH, needs ~460 Newton steps of
    # about 1 from v = 0.
    monkeypatch.setattr(vdp, "VDP_MAX_STEPS", 100)
    with pytest.raises(NumericalFailure, match="did not converge"):
        van_der_pauw(1e-200, 1.0)


def test_purity_report_uniform_grid_is_clean():
    report = purity_report(_flat_grid(5000.0))
    assert report.background_rate == 5000.0
    assert report.clean_fraction == 1.0


def test_purity_report_hot_spot_lowers_fraction():
    grid = _flat_grid(5000.0)
    counts = grid.counts.copy()
    counts[10:14, 10:14] = 60000.0
    hot = ScanGrid(x_um=grid.x_um, y_um=grid.y_um, counts=counts)
    report = purity_report(hot)
    assert report.clean_fraction < 1.0


def test_purity_report_s4_fixture_matches_construction():
    grid, expected = fixtures.purity_grid_s4()
    report = purity_report(grid)
    assert report.clean_fraction == pytest.approx(expected, abs=0.01)


def test_robust_background_ignores_bright_tail():
    counts = np.full((20, 20), 5000.0)
    counts[:5, :5] = 90000.0
    assert robust_background(counts) == 5000.0
