"""Deterministic synthetic fixtures for tests, docs, and the CLI.

No raw maps or spectra are published for the reference experiments, so
every fixture here is a synthetic reconstruction targeted at the published
summary numbers (film thickness, spot widths, charge ratios, Raman width,
decay families).  All generators are pure functions of their seed.  The
decay and metadata builders import the engines and the implantation tables
when called, so the scan and spectrum targets load neither.
"""

from __future__ import annotations

import math

import numpy as np

from .dataio import FWHM_PER_SIGMA, DecayCurve, DepthProfile, ScanGrid, Spectrum, gaussian2d, lorentzian
from .noise import seeded_rng

#: Target NV0:NV- area ratios for the three spectra fixtures.
S123_CHARGE_RATIOS = {"s1": 0.71, "s2": 2.8, "s3": 1.5}

FIG6_SURFACE_Z_UM = 0.0
FIG6_INTERFACE_Z_UM = 265.0
FIG6_NOISE_RMS = 60.0

#: Flat background count rate of the area-scan fixtures (fig5, S1 halo, S4).
SCAN_BACKGROUND_RATE = 5000.0

#: Pulse counts of the fig7 CPMG family; points per fig7 and fig9 curve.
FIG7_PULSE_COUNTS = (4, 8, 16, 32, 64)
DECAY_FIXTURE_POINTS = 32

FIG5_SPOT_FWHM_UM = (15.0, 27.0)

RAMAN_PEAK_CM1 = 1332.54
RAMAN_FWHM_CM1 = 1.61


def depth_profile_fig6(seed: int = 0) -> DepthProfile:
    """Two-step PL depth profile: air -> 265 um film -> substrate."""
    z = np.arange(-60.0, 420.0, 0.5)
    base, film, substrate = 150.0, 5000.0, 21000.0
    counts = (
        base
        + (film - base) / (1.0 + np.exp(-(z - FIG6_SURFACE_Z_UM) / 1.5))
        + (substrate - film) / (1.0 + np.exp(-(z - FIG6_INTERFACE_Z_UM) / 2.5))
    )
    counts += FIG6_NOISE_RMS * seeded_rng(seed, 6).standard_normal(z.size)
    return DepthProfile(z_um=z, counts=np.clip(counts, 0.0, None))


def spot_grid_fig5(seed: int = 0) -> ScanGrid:
    """Area scan with one implanted spot of FWHM (15, 27) um."""
    background = SCAN_BACKGROUND_RATE
    x = np.arange(-60.0, 60.0, 1.0)
    y = np.arange(-60.0, 60.0, 1.0)
    xg, yg = np.meshgrid(x, y)
    fx, fy = FIG5_SPOT_FWHM_UM
    sx = fx / FWHM_PER_SIGMA
    sy = fy / FWHM_PER_SIGMA
    counts = gaussian2d((30000.0, 0.0, 0.0, sx, sy, background), xg, yg)
    counts += math.sqrt(background) * seeded_rng(seed, 5).standard_normal(counts.shape)
    return ScanGrid(x_um=x, y_um=y, counts=np.clip(counts, 0.0, None))


def halo_grid_s1(seed: int = 0) -> ScanGrid:
    """Implanted spot with a wide weak halo (two concentric Gaussians).

    Core FWHM 200 um with a 400 um FWHM halo at a few percent of the core
    amplitude, mimicking an aperture-free implantation.
    """
    background = SCAN_BACKGROUND_RATE
    x = np.arange(-1000.0, 1000.0, 12.5)
    y = np.arange(-1000.0, 1000.0, 12.5)
    xg, yg = np.meshgrid(x, y)
    s_core = 200.0 / FWHM_PER_SIGMA
    s_halo = 400.0 / FWHM_PER_SIGMA
    r2 = xg**2 + yg**2
    counts = (
        background
        + 30000.0 * np.exp(-r2 / (2 * s_core**2))
        + 1200.0 * np.exp(-r2 / (2 * s_halo**2))
    )
    counts += math.sqrt(background) * seeded_rng(seed, 1).standard_normal(counts.shape)
    return ScanGrid(x_um=x, y_um=y, counts=np.clip(counts, 0.0, None))


def purity_grid_s4():
    """Noiseless, mostly-clean area map with one implanted oval.

    Returns ``(grid, expected_clean_fraction)`` where the expectation
    counts pixels whose level stays within 2*sqrt(background).
    """
    background = SCAN_BACKGROUND_RATE
    x = np.arange(0.0, 512.0, 4.0)
    y = np.arange(0.0, 512.0, 4.0)
    xg, yg = np.meshgrid(x, y)
    bump = gaussian2d((40000.0, 280.0, 220.0, 40.0, 25.0, 0.0), xg, yg)
    sigma = math.sqrt(background)
    expected_clean = float(np.mean(bump <= 2.0 * sigma))
    counts = background + bump
    counts[bump <= 2.0 * sigma] = background  # keep the clean region exactly flat
    grid = ScanGrid(x_um=x, y_um=y, counts=counts)
    return grid, expected_clean


def _lorentzian_profile(x: np.ndarray, center: float, fwhm: float, area: float):
    """:func:`nvforge.dataio.lorentzian` with its peak height set by its area."""
    return lorentzian((2.0 * area / (math.pi * fwhm), center, fwhm, 0.0), x)


def spectrum_s123(sample: str) -> Spectrum:
    """Noiseless PL spectrum fixture with a pinned NV0:NV- area ratio.

    Contains both ZPLs, the 589 nm implantation-defect line, the broad
    second-order Raman band, and a flat baseline.  Areas are constructed by
    inverting the target ratio with kappa = 1.
    """
    key = sample.lower()
    if key not in S123_CHARGE_RATIOS:
        raise ValueError(f"unknown sample {sample!r}; expected one of s1, s2, s3")
    ratio = S123_CHARGE_RATIOS[key]
    wl = np.arange(520.0, 820.0, 0.2)
    area_nvm = 3000.0
    area_nv0 = ratio * area_nvm
    counts = np.full_like(wl, 200.0)
    counts += _lorentzian_profile(wl, 575.0, 2.6, area_nv0)
    counts += _lorentzian_profile(wl, 637.0, 3.2, area_nvm)
    counts += _lorentzian_profile(wl, 589.0, 2.0, 0.12 * area_nvm)
    counts += _lorentzian_profile(wl, 610.0, 14.0, 0.5 * area_nvm)
    return Spectrum(values=wl, counts=counts, unit="nm")


def raman_spectrum() -> Spectrum:
    """Noiseless diamond Raman line at 1332.54 cm^-1, FWHM 1.61 cm^-1."""
    wn = np.arange(1250.0, 1420.0, 0.05)
    counts = 50.0 + _lorentzian_profile(wn, RAMAN_PEAK_CM1, RAMAN_FWHM_CM1, 5000.0)
    return Spectrum(values=wn, counts=counts, unit="cm-1")


def decay_family_fig7() -> list[tuple[int, DecayCurve]]:
    """CPMG decay-curve family for the paper-like bath (analytic engine)."""
    from . import presets
    from .engines import _analytic_curves
    from .sequences import build_sequence
    seqs = [build_sequence("cpmg", tau_s=1e-6, n=n) for n in FIG7_PULSE_COUNTS]
    curves = _analytic_curves(seqs, presets.paper_like_noise(), DECAY_FIXTURE_POINTS)
    return list(zip(FIG7_PULSE_COUNTS, curves))


def xy_curves_fig9() -> dict[str, DecayCurve]:
    """XY4 and XY8 decay curves for the paper-like bath (analytic engine)."""
    from . import presets
    from .engines import _analytic_curves
    from .sequences import build_sequence
    seqs = [build_sequence(kind, tau_s=1e-6) for kind in ("xy4", "xy8")]
    curves = _analytic_curves(seqs, presets.paper_like_noise(), DECAY_FIXTURE_POINTS)
    return {seq.name: curve for seq, curve in zip(seqs, curves)}


def table2_metadata() -> dict:
    """Reference-sample implantation metadata, including the S5 dose flag."""
    from .implant import POST_ANNEAL, TABLE2_SAMPLES
    return {
        "samples": [dict(sample) for sample in TABLE2_SAMPLES],
        "post_anneal": dict(POST_ANNEAL),
    }
