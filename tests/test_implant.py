import math
import warnings

import pytest

from nvforge.implant import (
    BeamConfig,
    GrowthBudget,
    InfeasiblePlanError,
    TABLE2_SAMPLES,
    build_plan,
    dose_to_time,
    nitrogen_budget,
    nv_density,
    range_straggle,
    yield_model,
)


def _beam(**overrides):
    defaults = dict(energy_ev=5000.0, current_a=500e-12, spot_diameter_m=25e-6)
    defaults.update(overrides)
    return BeamConfig(**defaults)


def test_beam_validation():
    with pytest.raises(ValueError):
        _beam(energy_ev=300.0)
    with pytest.raises(ValueError):
        _beam(energy_ev=6000.0)
    with pytest.raises(ValueError):
        _beam(current_a=0.0)
    with pytest.raises(ValueError):
        _beam(chopper_pulse_s=1e-6)  # below the 15 us chopper minimum
    with pytest.raises(ValueError):
        _beam(species="cluster")


def test_dose_to_time_reference_case():
    # 500 pA through a 25 um spot: A = 4.909e-6 cm^2, flux = 6.358e14 /cm^2/s.
    beam = _beam()
    assert beam.spot_area_cm2 == pytest.approx(4.909e-6, rel=1e-3)
    assert beam.atom_flux_cm2_s == pytest.approx(6.358e14, rel=1e-3)
    duration, n_pulses = dose_to_time(beam, 1e12)
    assert duration == pytest.approx(1.57e-3, rel=0.01)
    assert n_pulses is None


def test_dose_to_time_high_dose_scales_linearly():
    duration, _ = dose_to_time(_beam(), 1e17)
    assert duration == pytest.approx(157.0, rel=0.01)


def test_zero_dose_zero_duration():
    duration, n_pulses = dose_to_time(_beam(), 0.0)
    assert duration == 0.0
    assert n_pulses is None


def test_molecular_species_delivers_two_atoms_per_charge():
    atomic, _ = dose_to_time(_beam(), 1e12)
    molecular, _ = dose_to_time(_beam(species="molecular"), 1e12)
    assert atomic / molecular == pytest.approx(2.0, rel=1e-12)


def test_dose_time_roundtrip():
    beam = _beam()
    duration, _ = dose_to_time(beam, 3.7e13)
    assert duration * beam.atom_flux_cm2_s == pytest.approx(3.7e13, rel=1e-12)


def test_chopper_pulse_count_and_infeasibility():
    beam = _beam(chopper_pulse_s=1e-3)
    duration, n_pulses = dose_to_time(beam, 1e12)
    assert n_pulses == max(1, round(duration / 1e-3))
    tiny_beam = _beam(chopper_pulse_s=1.5e-3)
    with pytest.raises(InfeasiblePlanError):
        dose_to_time(tiny_beam, 1e8)  # needs far less than one pulse


def test_range_anchors_exact():
    depth_hi, straggle_hi = range_straggle(5000.0)
    assert depth_hi == pytest.approx(8.5, rel=1e-12)
    assert 7.0 <= depth_hi <= 10.0
    assert straggle_hi == pytest.approx(0.35 * 8.5, rel=1e-12)
    depth_lo, _ = range_straggle(400.0)
    assert depth_lo == pytest.approx(0.9, rel=1e-12)


def test_range_interpolation_at_2kev():
    depth, straggle = range_straggle(2000.0)
    assert depth == pytest.approx(3.76, rel=5e-3)
    assert straggle / depth == pytest.approx(0.35, rel=1e-12)


def test_range_monotone_in_energy():
    energies = [400.0, 700.0, 1000.0, 2000.0, 3500.0, 5000.0]
    depths = [range_straggle(e)[0] for e in energies]
    assert all(a < b for a, b in zip(depths, depths[1:]))


def test_range_extrapolation_guard():
    with pytest.raises(ValueError):
        range_straggle(100.0)


def test_yield_anchors_and_interpolation():
    assert yield_model(5e3) == 0.025
    assert yield_model(2e6) == 0.5
    assert yield_model(1e5) == pytest.approx(0.1118, rel=1e-3)
    # Clamped outside the anchors, continuous at them.
    assert yield_model(1e3) == 0.025
    assert yield_model(1e7) == 0.5
    assert yield_model(5e3 * (1 + 1e-12)) == pytest.approx(0.025, rel=1e-9)


def test_yield_monotone():
    energies = [1e3, 5e3, 2e4, 1e5, 5e5, 2e6, 1e7]
    yields = [yield_model(e) for e in energies]
    assert all(a <= b for a, b in zip(yields, yields[1:]))


def test_nv_density_products():
    areal, ppm, warned = nv_density(1e12, 5000.0)
    assert areal == pytest.approx(2.5e10, rel=1e-12)
    assert ppm == pytest.approx(0.477, rel=2e-3)
    assert not warned
    zero_areal, zero_ppm, _ = nv_density(0.0, 5000.0)
    assert zero_areal == 0.0
    assert zero_ppm == 0.0


def test_yield_and_density_refuse_an_energy_or_dose_out_of_range():
    with pytest.raises(ValueError, match="energy_ev must be positive"):
        yield_model(0.0)
    with pytest.raises(ValueError, match="dose_cm2 must be non-negative"):
        nv_density(-1.0, 5e3)


def test_nv_density_saturation_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ppm, saturated = nv_density(1e17, 5000.0)
    assert saturated is True
    assert ppm > 1e4


def test_build_plan_consistency():
    beam = _beam()
    plan = build_plan(beam, 1e12)
    # dose = flux * duration must hold to 1e-9 relative.
    recovered = plan.duration_s * beam.atom_flux_cm2_s
    assert recovered == pytest.approx(plan.dose_phi_cm2, rel=1e-9)
    assert plan.depth_mean_nm == pytest.approx(8.5)
    assert plan.yield_fraction == 0.025
    assert not plan.saturation_warning


def test_nitrogen_budget_paper_inputs():
    budget = GrowthBudget(total_flow_sccm=400.0, leak_rate_sccm=2.4e-4)
    report = nitrogen_budget(budget)
    assert report.gas_n2_fraction == pytest.approx(4.68e-7, rel=1e-9)
    assert report.incorporated_ppb == pytest.approx(0.0468, rel=1e-9)
    assert report.incorporated_ppb < 1.0
    # Always below the SIMS upper bound of 0.1 ppm = 100 ppb.
    assert report.incorporated_ppb <= 100.0


def test_nitrogen_budget_zero_leak_perfect_purity():
    budget = GrowthBudget(total_flow_sccm=400.0, leak_rate_sccm=0.0)
    assert nitrogen_budget(budget).incorporated_ppb == 0.0


@pytest.mark.parametrize("rate", [-0.1, 1.0 + 2**-52, 1.7e308])
def test_budget_rejects_an_incorporation_rate_outside_0_1(rate):
    with pytest.raises(ValueError, match=r"incorporation_rate must lie in \[0, 1\]"):
        GrowthBudget(total_flow_sccm=400.0, leak_rate_sccm=2.4e-4, incorporation_rate=rate)
    for ends in (0.0, 1.0):
        GrowthBudget(total_flow_sccm=400.0, leak_rate_sccm=2.4e-4, incorporation_rate=ends)


def test_nitrogen_budget_linear_in_leak_and_impurity():
    base = GrowthBudget(total_flow_sccm=400.0, leak_rate_sccm=2.4e-4)
    double_leak = GrowthBudget(total_flow_sccm=400.0, leak_rate_sccm=4.8e-4)
    assert nitrogen_budget(double_leak).incorporated_ppb == pytest.approx(
        2 * nitrogen_budget(base).incorporated_ppb, rel=1e-12
    )
    impure = GrowthBudget(
        total_flow_sccm=400.0, leak_rate_sccm=0.0, h2_purity=1 - 1e-7
    )
    impure2 = GrowthBudget(
        total_flow_sccm=400.0, leak_rate_sccm=0.0, h2_purity=1 - 2e-7
    )
    r1 = nitrogen_budget(impure).incorporated_ppb
    r2 = nitrogen_budget(impure2).incorporated_ppb
    assert r2 == pytest.approx(2 * r1, rel=1e-6)


def test_budget_with_stated_gas_purities_stays_below_one_ppb():
    budget = GrowthBudget(
        total_flow_sccm=400.0,
        leak_rate_sccm=2.4e-4,
        h2_purity=0.9999999,       # 7.0 grade
        ch4_purity=0.999999999,    # 9.0 grade
    )
    report = nitrogen_budget(budget)
    assert report.incorporated_ppb < 1.0


def test_table2_fixture_contents():
    ids = [s["id"] for s in TABLE2_SAMPLES]
    assert ids == ["S1", "S2", "S3", "S4", "S5"]
    by_id = {s["id"]: s for s in TABLE2_SAMPLES}
    assert by_id["S1"]["termination"] == "hydrogen"
    assert by_id["S1"]["dose_cm2"] == 1e12
    assert by_id["S4"]["dose_cm2"] == 1e17
    assert by_id["S5"]["aperture"] is True
    assert by_id["S5"]["dose_discrepancy"] is True
    assert by_id["S5"]["dot_doses_cm2"].count(1e15) == 4
    assert by_id["S5"]["dot_doses_cm2"].count(1e12) == 2
