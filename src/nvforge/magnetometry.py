"""Shot-noise-limited DC/AC magnetic-field sensitivity estimates.

The sensitivity formula is the pinned convention

    eta = 1 / (gamma * C * sqrt(R * N * T_coh))      [reported in T/sqrt(Hz)]

with gamma the gyromagnetic ratio, C the readout contrast, R an effective
per-center photon rate contributing to readout, and N the number of centers
in the detection volume.  R absorbs every unmodeled collection and
duty-cycle factor, which is why the pinned preset's value is not a
physical count rate; the preset exists to reproduce a target sensitivity
exactly, not to derive it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from .constants import CARBON_NUMBER_DENSITY_M3, GYROMAGNETIC_RATIO_HZ_PER_T, PAPER_IDEAL_T2_STAR_S
from .constants import NumericalFailure, check_positive

# Pinned "paper-ideal" preset: 22 ppm ensemble, T2* = 3.6 us (in constants,
# where the CLI reads it), 1 um^3 detection volume, 5% contrast, R solved so
# eta_dc is exactly 100 nT/rtHz.
PAPER_IDEAL_ALEPH_PPM = 22.0
PAPER_IDEAL_VOLUME_M3 = 1e-18
PAPER_IDEAL_CONTRAST = 0.05
PAPER_IDEAL_ETA_DC = 100e-9


@dataclass(frozen=True)
class EnsembleSpot:
    """An NV ensemble inside one detection volume."""

    concentration_aleph_ppm: float
    detection_volume_m3: float
    photon_rate_per_center_cps: float
    contrast: float

    def __post_init__(self) -> None:
        check_positive(concentration_aleph_ppm=self.concentration_aleph_ppm,
                       detection_volume_m3=self.detection_volume_m3,
                       photon_rate_per_center_cps=self.photon_rate_per_center_cps)
        if not 0.0 < self.contrast <= 1.0:
            raise ValueError("contrast must lie in (0, 1]")
        if self.n_centers < 1:
            raise ValueError("detection volume holds fewer than one center")

    @property
    def n_centers(self) -> float:
        return (
            self.concentration_aleph_ppm
            * 1e-6
            * CARBON_NUMBER_DENSITY_M3
            * self.detection_volume_m3
        )


@dataclass
class SensitivityReport:
    eta_dc_t_per_sqrt_hz: float
    eta_ac_t_per_sqrt_hz: float | None
    enhancement_factor: float | None
    assumptions: dict


def eta_dc(spot: EnsembleSpot, t2_star_s: float) -> float:
    """DC sensitivity 1/(gamma C sqrt(R N T2*)), scaling as 1/sqrt(N); NumericalFailure if 0 or inf."""
    check_positive(t2_star_s=t2_star_s)
    shots = spot.photon_rate_per_center_cps * spot.n_centers * t2_star_s
    scale = GYROMAGNETIC_RATIO_HZ_PER_T * spot.contrast * math.sqrt(shots)
    if not 1e-308 < scale < math.inf:  # then 1 / scale is finite and > 0
        raise NumericalFailure("DC sensitivity leaves the float range")
    return 1.0 / scale


def eta_ac(eta_dc_value: float, t2_star_s: float, t2_dd_s: float) -> tuple[float, float]:
    """AC sensitivity and enhancement factor sqrt(T2_DD / T2*).

    Raises
    ------
    ValueError
        If the decoupled coherence time is below T2*.
    NumericalFailure
        If the AC sensitivity is 0: the factor or the quotient leaves the float range.
    """
    if t2_dd_s < t2_star_s:
        raise ValueError("t2_dd_s must be >= t2_star_s")
    factor = math.sqrt(t2_dd_s / t2_star_s)
    ac = eta_dc_value / factor
    if not ac > 0:  # T2_DD / T2* overflows to inf, or the quotient underflows
        raise NumericalFailure("AC sensitivity leaves the float range")
    return ac, factor


def sensitivity_report(
    spot: EnsembleSpot, t2_star_s: float, t2_dd_s: float | None = None
) -> SensitivityReport:
    """Bundle DC (and optionally AC) sensitivity with an echo of all inputs."""
    dc = eta_dc(spot, t2_star_s)
    ac = factor = None
    if t2_dd_s is not None:
        ac, factor = eta_ac(dc, t2_star_s, t2_dd_s)
    assumptions = {
        **asdict(spot),
        "n_centers": spot.n_centers,
        "t2_star_s": t2_star_s,
        "t2_dd_s": t2_dd_s,
        "gamma_hz_per_t": GYROMAGNETIC_RATIO_HZ_PER_T,
    }
    return SensitivityReport(dc, ac, factor, assumptions)


def paper_ideal_spot() -> tuple[EnsembleSpot, float]:
    """The pinned preset reproducing eta_dc = 100 nT/sqrt(Hz) exactly.

    Concentration, volume, contrast, and T2* are fixed at face-plausible
    values; the effective per-center rate R is solved in closed form from
    the target sensitivity.
    """
    spot = EnsembleSpot(
        concentration_aleph_ppm=PAPER_IDEAL_ALEPH_PPM,
        detection_volume_m3=PAPER_IDEAL_VOLUME_M3,
        photon_rate_per_center_cps=1.0,  # placeholder, solved below
        contrast=PAPER_IDEAL_CONTRAST,
    )
    shots_target = (
        1.0
        / (GYROMAGNETIC_RATIO_HZ_PER_T * PAPER_IDEAL_CONTRAST * PAPER_IDEAL_ETA_DC)
    ) ** 2
    rate = shots_target / (spot.n_centers * PAPER_IDEAL_T2_STAR_S)
    return replace(spot, photon_rate_per_center_cps=rate), PAPER_IDEAL_T2_STAR_S
