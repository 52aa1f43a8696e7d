import math

import pytest

from nvforge.constants import CARBON_NUMBER_DENSITY_M3
from nvforge.magnetometry import (
    EnsembleSpot,
    eta_ac,
    eta_dc,
    paper_ideal_spot,
    sensitivity_report,
)


def _spot(**overrides):
    defaults = dict(
        concentration_aleph_ppm=22.0,
        detection_volume_m3=1e-18,
        photon_rate_per_center_cps=1e4,
        contrast=0.05,
    )
    defaults.update(overrides)
    return EnsembleSpot(**defaults)


def test_n_centers_from_concentration():
    spot = _spot()
    expected = 22e-6 * CARBON_NUMBER_DENSITY_M3 * 1e-18
    assert spot.n_centers == pytest.approx(expected, rel=1e-12)


def test_spot_validation():
    with pytest.raises(ValueError):
        _spot(contrast=0.0)
    with pytest.raises(ValueError, match=r"contrast must lie in \(0, 1\]"):
        _spot(contrast=1.5)
    assert _spot(contrast=1.0).contrast == 1.0
    with pytest.raises(ValueError):
        _spot(detection_volume_m3=-1.0)
    with pytest.raises(ValueError):
        _spot(detection_volume_m3=1e-30)  # fewer than one center


def test_eta_dc_scales_as_inverse_sqrt_n():
    t2_star = 3.6e-6
    base = eta_dc(_spot(), t2_star)
    doubled = eta_dc(_spot(detection_volume_m3=2e-18), t2_star)
    assert base / doubled == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_eta_dc_halves_when_contrast_doubles():
    t2_star = 3.6e-6
    base = eta_dc(_spot(), t2_star)
    better = eta_dc(_spot(contrast=0.1), t2_star)
    assert base / better == pytest.approx(2.0, rel=1e-12)


def test_eta_dc_power_law_invariants():
    t2_star = 3.6e-6
    spot = _spot()
    base = eta_dc(spot, t2_star)
    # eta * sqrt(T2*) invariant under T2* changes.
    assert eta_dc(spot, 4 * t2_star) * math.sqrt(4 * t2_star) == pytest.approx(
        base * math.sqrt(t2_star), rel=1e-12
    )


def test_paper_ideal_preset_roundtrips():
    spot, t2_star = paper_ideal_spot()
    assert spot.concentration_aleph_ppm == 22.0
    assert t2_star == 3.6e-6
    assert eta_dc(spot, t2_star) == pytest.approx(100e-9, rel=1e-12)


def test_eta_ac_enhancement():
    value, factor = eta_ac(100e-9, 3.6e-6, 173e-6)
    assert factor == pytest.approx(math.sqrt(173 / 3.6), rel=1e-12)
    assert value == pytest.approx(14.43e-9, rel=1e-2)
    assert value * factor == pytest.approx(100e-9, rel=1e-12)


def test_eta_ac_xy8_factor():
    _, factor = eta_ac(100e-9, 3.6e-6, 47.8e-6)
    assert factor == pytest.approx(3.64, rel=2e-3)


def test_eta_ac_identity_and_precondition():
    value, factor = eta_ac(100e-9, 3.6e-6, 3.6e-6)
    assert factor == 1.0
    assert value == 100e-9
    with pytest.raises(ValueError):
        eta_ac(100e-9, 3.6e-6, 1e-6)


def test_report_echoes_inputs_exactly():
    spot, t2_star = paper_ideal_spot()
    report = sensitivity_report(spot, t2_star, 173e-6)
    assumptions = report.assumptions
    assert assumptions["concentration_aleph_ppm"] == spot.concentration_aleph_ppm
    assert assumptions["detection_volume_m3"] == spot.detection_volume_m3
    assert assumptions["photon_rate_per_center_cps"] == spot.photon_rate_per_center_cps
    assert assumptions["contrast"] == spot.contrast
    assert assumptions["t2_star_s"] == t2_star
    assert assumptions["t2_dd_s"] == 173e-6
    assert report.eta_ac_t_per_sqrt_hz * report.enhancement_factor == pytest.approx(
        report.eta_dc_t_per_sqrt_hz, rel=1e-12
    )


def test_report_without_dd_time():
    spot, t2_star = paper_ideal_spot()
    report = sensitivity_report(spot, t2_star)
    assert report.eta_ac_t_per_sqrt_hz is None
    assert report.enhancement_factor is None
