"""Nitrogen-implantation dosimetry and the CVD nitrogen-purity budget.

Dose/current/time/aperture arithmetic for a low-energy ion gun, an
energy-to-depth power law calibrated to two pinned anchors, a log-log
interpolated NV creation yield, resulting NV densities, and the
gas-phase nitrogen budget of a CVD growth run.

Pinned calibration constants (documented toolkit conventions):

- Mean implantation range: 0.9 nm at 400 eV and 8.5 nm at 5 keV, joined by
  a power law R(E) = 8.5 nm * (E / 5 keV)^b.
- Longitudinal straggle: a constant 0.35 of the mean range, typical of
  low-energy nitrogen transport in diamond.
- NV yield: 2.5% at 5 keV rising to 50% at 2 MeV, interpolated linearly in
  log-log space and clamped outside the anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CARBON_NUMBER_DENSITY_M3, ELEMENTARY_CHARGE_C
from .levmar import NumericalFailure

GUN_ENERGY_RANGE_EV = (400.0, 5000.0)
CHOPPER_PULSE_RANGE_S = (15e-6, 1.5e-3)

RANGE_ANCHOR_LOW = (400.0, 0.9)  # (eV, nm)
RANGE_ANCHOR_HIGH = (5000.0, 8.5)  # (eV, nm)
STRAGGLE_RATIO = 0.35

YIELD_ANCHOR_LOW = (5e3, 0.025)  # (eV, fraction)
YIELD_ANCHOR_HIGH = (2e6, 0.5)

# CVD process gas: H2 and CH4 shares of the total flow; N2 share of air
# entering through the leak.
H2_FRACTION = 0.96
CH4_FRACTION = 0.04
AIR_N2_FRACTION = 0.78
SATURATION_PPM = 1e4

# Ion species -> nitrogen atoms per elementary charge: N+ or N2+.
ATOMS_PER_CHARGE = {"atomic": 1, "molecular": 2}


class InfeasiblePlanError(ValueError):
    """The requested plan cannot be realized with the given beam."""


@dataclass(frozen=True)
class BeamConfig:
    """Ion-gun configuration for nitrogen implantation."""

    energy_ev: float
    current_a: float
    spot_diameter_m: float
    chopper_pulse_s: float | None = None
    species: str = "atomic"  # a key of ATOMS_PER_CHARGE

    def __post_init__(self) -> None:
        lo, hi = GUN_ENERGY_RANGE_EV
        if not lo <= self.energy_ev <= hi:
            raise ValueError(f"energy_ev must lie in the gun range [{lo}, {hi}] eV")
        if not self.current_a > 0:
            raise ValueError("current_a must be positive")
        if not self.spot_diameter_m > 0:
            raise ValueError("spot_diameter_m must be positive")
        if self.chopper_pulse_s is not None:
            plo, phi = CHOPPER_PULSE_RANGE_S
            if not plo <= self.chopper_pulse_s <= phi:
                raise ValueError(
                    f"chopper_pulse_s must lie in [{plo}, {phi}] s when present"
                )
        if self.species not in ATOMS_PER_CHARGE:
            raise ValueError(f"species must be one of {', '.join(ATOMS_PER_CHARGE)}")

    @property
    def atoms_per_charge(self) -> int:
        return ATOMS_PER_CHARGE[self.species]

    @property
    def spot_area_cm2(self) -> float:
        radius_cm = self.spot_diameter_m * 100.0 / 2.0
        try:
            return math.pi * radius_cm**2
        except OverflowError as exc:
            raise NumericalFailure("spot area overflows") from exc

    @property
    def atom_flux_cm2_s(self) -> float:
        """Implanted atoms per cm^2 per second at full beam."""
        ions_per_s = self.current_a / ELEMENTARY_CHARGE_C
        return ions_per_s * self.atoms_per_charge / self.spot_area_cm2


@dataclass
class ImplantPlan:
    """A fully resolved implantation plan."""

    dose_phi_cm2: float
    duration_s: float
    n_pulses: int | None
    depth_mean_nm: float
    straggle_nm: float
    yield_fraction: float
    nv_areal_cm2: float
    nv_ppm_in_slab: float
    saturation_warning: bool


def dose_to_time(beam: BeamConfig, target_dose_cm2: float) -> tuple[float, int | None]:
    """Implantation duration (and pulse count if chopped) for a target dose.

    Raises
    ------
    InfeasiblePlanError
        If the duration is shorter than one chopper pulse.
    NumericalFailure
        If the spot area or the atom flux is 0 in floating point.
    """
    if target_dose_cm2 < 0:
        raise ValueError("target_dose_cm2 must be non-negative")
    try:
        duration = target_dose_cm2 / beam.atom_flux_cm2_s
    except ZeroDivisionError as exc:
        raise NumericalFailure("spot area or atom flux is zero in floating point") from exc
    n_pulses = None
    if beam.chopper_pulse_s is not None and target_dose_cm2 > 0:
        if duration < beam.chopper_pulse_s:
            raise InfeasiblePlanError(
                f"dose needs {duration:.3e} s of beam, below one "
                f"{beam.chopper_pulse_s:.3e} s chopper pulse"
            )
        n_pulses = max(1, round(duration / beam.chopper_pulse_s))
    return duration, n_pulses


def range_straggle(energy_ev: float) -> tuple[float, float]:
    """Mean implantation depth and straggle (nm) from the calibrated power law.

    Raises ``ValueError`` outside the calibrated gun range.
    """
    lo, hi = GUN_ENERGY_RANGE_EV
    if not lo <= energy_ev <= hi:
        raise ValueError(f"energy {energy_ev} eV outside calibrated range [{lo}, {hi}]")
    (e_lo, r_lo), (e_hi, r_hi) = RANGE_ANCHOR_LOW, RANGE_ANCHOR_HIGH
    exponent = math.log(r_hi / r_lo) / math.log(e_hi / e_lo)
    depth = r_hi * (energy_ev / e_hi) ** exponent
    return depth, STRAGGLE_RATIO * depth


def yield_model(energy_ev: float) -> float:
    """NV creation yield versus implantation energy.

    Log-log linear between the two anchors, clamped outside them; monotone
    non-decreasing and continuous everywhere.
    """
    if not energy_ev > 0:
        raise ValueError("energy_ev must be positive")
    (e_lo, y_lo), (e_hi, y_hi) = YIELD_ANCHOR_LOW, YIELD_ANCHOR_HIGH
    if energy_ev <= e_lo:
        return y_lo
    if energy_ev >= e_hi:
        return y_hi
    exponent = math.log(y_hi / y_lo) / math.log(e_hi / e_lo)
    return y_lo * (energy_ev / e_lo) ** exponent


def nv_density(dose_cm2: float, energy_ev: float):
    """Areal NV density and concentration in the straggle slab.

    Returns ``(areal_cm2, ppm, saturated)``; ``saturated`` is true when the
    slab concentration exceeds ``SATURATION_PPM``, where dose-dependent
    yield loss (not modeled) sets in.
    """
    if dose_cm2 < 0:
        raise ValueError("dose_cm2 must be non-negative")
    areal = dose_cm2 * yield_model(energy_ev)
    _, straggle_nm = range_straggle(energy_ev)
    straggle_cm = straggle_nm * 1e-7
    carbon_cm3 = CARBON_NUMBER_DENSITY_M3 * 1e-6
    ppm = areal / (straggle_cm * carbon_cm3) * 1e6
    return areal, ppm, ppm > SATURATION_PPM


def build_plan(beam: BeamConfig, dose_cm2: float) -> ImplantPlan:
    """Resolve a complete plan: timing, depth, yield, and NV density."""
    duration, n_pulses = dose_to_time(beam, dose_cm2)
    depth, straggle = range_straggle(beam.energy_ev)
    areal, ppm, saturated = nv_density(dose_cm2, beam.energy_ev)
    return ImplantPlan(
        dose_phi_cm2=dose_cm2,
        duration_s=duration,
        n_pulses=n_pulses,
        depth_mean_nm=depth,
        straggle_nm=straggle,
        yield_fraction=yield_model(beam.energy_ev),
        nv_areal_cm2=areal,
        nv_ppm_in_slab=ppm,
        saturation_warning=saturated,
    )


@dataclass(frozen=True)
class GrowthBudget:
    """Gas flows, purities, and leak rate of a CVD growth run."""

    total_flow_sccm: float
    leak_rate_sccm: float
    h2_purity: float = 1.0
    ch4_purity: float = 1.0
    incorporation_rate: float = 1e-4

    def __post_init__(self) -> None:
        if not self.total_flow_sccm > 0:
            raise ValueError("total_flow_sccm must be positive")
        if self.leak_rate_sccm < 0:
            raise ValueError("leak_rate_sccm must be >= 0")
        for name in ("h2_purity", "ch4_purity"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not 0 <= self.incorporation_rate <= 1:
            raise ValueError("incorporation_rate must lie in [0, 1]")


@dataclass
class BudgetReport:
    gas_n2_fraction: float
    incorporated_fraction: float
    incorporated_ppb: float


def nitrogen_budget(budget: GrowthBudget) -> BudgetReport:
    """Nitrogen incorporated into the growing film, in ppb.

    Gas-phase N2 enters through the chamber leak (air) and through the
    impurity content of the process gases; incorporation into the solid is
    a single multiplicative rate.  Linear in the leak rate and in each
    (1 - purity).
    """
    leak_n2 = budget.leak_rate_sccm * AIR_N2_FRACTION
    gas_n2 = 0.0
    for fraction, purity in ((H2_FRACTION, budget.h2_purity), (CH4_FRACTION, budget.ch4_purity)):
        flow = budget.total_flow_sccm * fraction
        gas_n2 += flow * (1.0 - purity)
    gas_fraction = (leak_n2 + gas_n2) / budget.total_flow_sccm
    incorporated = gas_fraction * budget.incorporation_rate
    return BudgetReport(
        gas_n2_fraction=gas_fraction,
        incorporated_fraction=incorporated,
        incorporated_ppb=incorporated * 1e9,
    )


#: Implantation-run metadata for the five reference samples.  Doses are
#: fluences in cm^-2.  S5's logbook table and run notes disagree on the
#: dose; both values are carried with an explicit flag.
TABLE2_SAMPLES = (
    {
        "id": "S1",
        "precleaning": "isopropanol, acetone",
        "termination": "hydrogen",
        "aperture": False,
        "dose_cm2": 1e12,
        "implant_temperature_c": 20.0,
    },
    {
        "id": "S2",
        "precleaning": "isopropanol, acetone, heated at 800 C",
        "termination": "bare",
        "aperture": False,
        "dose_cm2": 1e12,
        "implant_temperature_c": 20.0,
    },
    {
        "id": "S3",
        "precleaning": "isopropanol, acetone, heated at 800 C",
        "termination": "bare",
        "aperture": False,
        "dose_cm2": 1e12,
        "implant_temperature_c": 700.0,
    },
    {
        "id": "S4",
        "precleaning": "isopropanol, acetone, heated at 800 C",
        "termination": "bare",
        "aperture": False,
        "dose_cm2": 1e17,
        "implant_temperature_c": 700.0,
    },
    {
        "id": "S5",
        "precleaning": "isopropanol, acetone, heated at 800 C",
        "termination": "bare",
        "aperture": True,
        "dose_cm2": 4e15,
        "implant_temperature_c": 700.0,
        "dose_discrepancy": True,
        "dose_notes": (
            "table lists 4e15 cm^-2; run notes describe four dots at "
            "1e15 cm^-2 plus two dots at 1e12 cm^-2"
        ),
        "dot_doses_cm2": [1e15, 1e15, 1e15, 1e15, 1e12, 1e12],
    },
)

#: Shared post-implantation anneal for all samples.
POST_ANNEAL = {"temperature_c": 800.0, "duration_hours": 2.0}
