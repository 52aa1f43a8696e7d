"""Every parameter that must be positive, or non-negative, is refused with its own ``ValueError``, NaN included.

The positive rule has one owner, :func:`nvforge.constants.check_positive`;
each site below names its parameter in the message.  Where two values are
bad the first keyword is named, and each site keeps its place among the
other checks of its record or function.
"""

import math

import pytest

from nvforge.constants import check_positive
from nvforge.engines import HyperfineTriplet, simulate_fid_beats
from nvforge.implant import BeamConfig, GrowthBudget, build_plan, nv_density, yield_model
from nvforge.magnetometry import EnsembleSpot, eta_dc, paper_ideal_spot
from nvforge.noise import NoiseModel
from nvforge.sequences import build_sequence
from nvforge.spincore import SpinParams

BEAM = dict(energy_ev=5000.0, current_a=5e-10, spot_diameter_m=25e-6)
SPOT = dict(concentration_aleph_ppm=22.0, detection_volume_m3=1e-18, photon_rate_per_center_cps=1e5, contrast=0.05)

# (site, the name it refuses) -> a call of the site with that parameter set to the value.
POSITIVE = {
    ("SpinParams", "zfs_d_hz"): lambda v: SpinParams(zfs_d_hz=v),
    ("SpinParams", "gyromag_hz_per_t"): lambda v: SpinParams(gyromag_hz_per_t=v),
    ("SpinParams", "linewidth_fwhm_hz"): lambda v: SpinParams(linewidth_fwhm_hz=v),
    ("NoiseModel", "tau_c_s"): lambda v: NoiseModel(1e5, v),
    ("NoiseModel", "t1_s"): lambda v: NoiseModel(1e5, 1e-6, t1_s=v),
    ("NoiseModel", "t1_exponent_q"): lambda v: NoiseModel(1e5, 1e-6, t1_exponent_q=v),
    ("BeamConfig", "current_a"): lambda v: BeamConfig(**{**BEAM, "current_a": v}),
    ("BeamConfig", "spot_diameter_m"): lambda v: BeamConfig(**{**BEAM, "spot_diameter_m": v}),
    ("yield_model", "energy_ev"): yield_model,
    ("GrowthBudget", "total_flow_sccm"): lambda v: GrowthBudget(v, 0.0),
    ("EnsembleSpot", "concentration_aleph_ppm"): lambda v: EnsembleSpot(**{**SPOT, "concentration_aleph_ppm": v}),
    ("EnsembleSpot", "detection_volume_m3"): lambda v: EnsembleSpot(**{**SPOT, "detection_volume_m3": v}),
    ("EnsembleSpot", "photon_rate_per_center_cps"): lambda v: EnsembleSpot(**{**SPOT, "photon_rate_per_center_cps": v}),
    ("eta_dc", "t2_star_s"): lambda v: eta_dc(paper_ideal_spot()[0], v),
    ("simulate_fid_beats", "t2_star_s"): lambda v: simulate_fid_beats(HyperfineTriplet(1e6, 2.16e6), v, [0.0, 1e-6]),
    ("build_sequence", "tau_s"): lambda v: build_sequence("hahn", v),
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("site", POSITIVE, ids="-".join)
def test_each_positive_parameter_refuses_zero_negative_and_nan(site, bad):
    with pytest.raises(ValueError, match=f"^{site[1]} must be positive$"):
        POSITIVE[site](bad)


def test_each_positive_site_accepts_a_positive_value():
    """So each refusal above comes from the value under test."""
    for call in POSITIVE.values():
        call(1.0)


@pytest.mark.parametrize("call, name", [
    (lambda: SpinParams(zfs_d_hz=0, gyromag_hz_per_t=0), "zfs_d_hz"),
    (lambda: NoiseModel(1e5, math.nan, t1_s=-1.0), "tau_c_s"),
    (lambda: EnsembleSpot(**{**SPOT, "detection_volume_m3": 0.0, "photon_rate_per_center_cps": 0.0}),
     "detection_volume_m3"),
    (lambda: check_positive(a=1.0, b=math.nan, c=0.0), "b"),
], ids=["SpinParams", "NoiseModel", "EnsembleSpot", "check_positive"])
def test_the_first_bad_keyword_is_named(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive$"):
        call()


def test_each_site_keeps_its_place_among_the_other_checks():
    with pytest.raises(ValueError, match="^energy_ev must lie in the gun range"):
        BeamConfig(energy_ev=300.0, current_a=0.0, spot_diameter_m=0.0)
    with pytest.raises(ValueError, match="^b_rad_s must be >= 0$"):
        NoiseModel(-1.0, 0.0)
    with pytest.raises(ValueError, match="^linewidth_fwhm_hz must be positive$"):
        SpinParams(linewidth_fwhm_hz=0.0, odmr_contrast=2.0)
    with pytest.raises(ValueError, match="^photon_rate_per_center_cps must be positive$"):
        EnsembleSpot(**{**SPOT, "photon_rate_per_center_cps": 0.0, "contrast": 2.0})


@pytest.mark.parametrize("call, message", [
    (lambda: NoiseModel(math.nan, 1e-6), "b_rad_s must be >= 0"),
    (lambda: build_plan(BeamConfig(**BEAM), math.nan), "target_dose_cm2 must be non-negative"),
    (lambda: nv_density(math.nan, 5000.0), "dose_cm2 must be non-negative"),
    (lambda: GrowthBudget(400.0, math.nan), "leak_rate_sccm must be >= 0"),
], ids=["b_rad_s", "target_dose_cm2", "dose_cm2", "leak_rate_sccm"])
def test_each_non_negative_parameter_refuses_nan(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
