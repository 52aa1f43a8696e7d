"""Reduction of confocal scan grids and PL spectra.

Implanted-spot detection with 2-D Gaussian shape fits, depth-profile film
thickness from a two-step logistic fit, spectral peak identification and
Lorentzian metrology (wavelength or wavenumber mode), NV charge-state
ratios from ZPL areas, and a background-purity report for area maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import NumericalFailure
from .dataio import FWHM_PER_SIGMA, DepthProfile, ScanGrid, Spectrum, gaussian2d, lorentzian, median
from .levmar import forward_differences, lm_least_squares

#: Known zero-phonon lines and bands for wavelength-mode spectra (nm).
KNOWN_LINES_NM = {
    575.0: "NV0_ZPL",
    589.0: "implantation_defect",
    637.0: "NVminus_ZPL",
    738.0: "SiV_ZPL",
}
RAMAN_2ND_ORDER_BAND_NM = (600.0, 620.0)

#: Known lines for wavenumber-mode (Raman) spectra (cm^-1).
KNOWN_LINES_CM1 = {1332.54: "diamond_raman"}

#: A peak within this distance of a known line, in the spectrum's own unit
#: (nm or cm^-1), takes its label.
LINE_MATCH_TOLERANCE = 2.0

# A depth-profile step must change the level by this fraction of the full
# count range to count as detected.
STEP_MIN_FRACTION = 0.15

# A bright region needs this many pixels to be fitted as a spot.
MIN_SPOT_PIXELS = 5

# Peak candidates must exceed the median by PEAK_NOISE_SIGMA robust noise
# sigmas; each peak is fitted DEFLATION_PASSES times in all.
PEAK_NOISE_SIGMA = 5.0
DEFLATION_PASSES = 3

class DepthProfileError(NumericalFailure):
    """The depth profile does not show the expected two rising steps."""


class MissingZplError(NumericalFailure):
    """A required zero-phonon line is absent from the spectrum."""


@dataclass
class SpotFit:
    centroid_x_um: float
    centroid_y_um: float
    fwhm_x_um: float
    fwhm_y_um: float
    peak_rate: float


@dataclass
class PeakFit:
    center: float
    fwhm: float
    area: float
    amplitude: float
    label: str


@dataclass
class ChargeRatio:
    ratio_c0_cminus: float
    kappa: float

    def __post_init__(self) -> None:
        if not self.ratio_c0_cminus > 0:
            raise ValueError("charge ratio must be positive")


@dataclass
class ThicknessResult:
    surface_z_um: float
    interface_z_um: float
    thickness_um: float


@dataclass
class PurityReport:
    background_rate: float
    clean_fraction: float


def robust_background(counts: np.ndarray) -> float:
    """Median of the lowest decile of counts."""
    flat = np.sort(np.asarray(counts, dtype=float).ravel())
    decile = flat[: max(1, flat.size // 10)]
    return float(median(decile))


def label_regions(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Label the 4-connected regions of a 2-D boolean mask.

    Returns (labels, count); labels are 1..count, numbered in raster order
    of each region's first pixel, 0 off the mask.  This is the numbering of
    ``scipy.ndimage.label`` with its default structure.
    """
    ny, nx = mask.shape
    labels = np.zeros((ny, nx), dtype=np.int32)
    todo = mask.tolist()  # cleared as pixels are labelled
    count = 0
    for y0, x0 in np.argwhere(mask).tolist():
        if not todo[y0][x0]:
            continue
        count += 1
        todo[y0][x0] = False
        stack = [(y0, x0)]
        while stack:
            y, x = stack.pop()
            labels[y, x] = count
            for yy, xx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if 0 <= yy < ny and 0 <= xx < nx and todo[yy][xx]:
                    todo[yy][xx] = False
                    stack.append((yy, xx))
    return labels, count


def detect_spots(grid: ScanGrid, threshold_sigma: float = 5.0) -> list[SpotFit]:
    """Locate and shape-fit bright spots on a scan grid.

    Pixels above ``bg + threshold_sigma * sqrt(bg)``, where ``bg`` is the
    :func:`robust_background` of the counts, are grouped into connected
    regions; each region of at least :data:`MIN_SPOT_PIXELS` pixels is
    fitted with a 2-D Gaussian plus flat offset.  Returns spots sorted by peak rate (an empty list when nothing
    exceeds the threshold).
    """
    if grid.x_um.size < 8 or grid.y_um.size < 8:
        raise ValueError("grid must be at least 8x8")
    bg = robust_background(grid.counts)
    threshold = bg + threshold_sigma * math.sqrt(max(bg, 1.0))
    mask = grid.counts > threshold
    labels, n_regions = label_regions(mask)

    spots: list[SpotFit] = []
    xg_full, yg_full = np.meshgrid(grid.x_um, grid.y_um)
    for region in range(1, n_regions + 1):
        sel = labels == region
        if np.count_nonzero(sel) < MIN_SPOT_PIXELS:
            continue
        iy, ix = np.nonzero(sel)
        # Expand the bounding box by half its size so tails constrain the fit.
        pad_y = max(3, (iy.max() - iy.min() + 1) // 2)
        pad_x = max(3, (ix.max() - ix.min() + 1) // 2)
        y0i, y1i = max(iy.min() - pad_y, 0), min(iy.max() + pad_y + 1, grid.y_um.size)
        x0i, x1i = max(ix.min() - pad_x, 0), min(ix.max() + pad_x + 1, grid.x_um.size)
        window = grid.counts[y0i:y1i, x0i:x1i]
        xg = xg_full[y0i:y1i, x0i:x1i]
        yg = yg_full[y0i:y1i, x0i:x1i]

        above = window - bg
        weights = np.clip(above, 0.0, None)
        total = weights.sum()
        cx = float((weights * xg).sum() / total)
        cy = float((weights * yg).sum() / total)
        sx = math.sqrt(max(float((weights * (xg - cx) ** 2).sum() / total), 1e-6))
        sy = math.sqrt(max(float((weights * (yg - cy) ** 2).sum() / total), 1e-6))
        amp0 = float(window.max() - bg)
        theta0 = np.array([amp0, cx, cy, sx, sy, bg])

        res = lm_least_squares(
            forward_differences(lambda theta: (gaussian2d(theta, xg, yg) - window).ravel()),
            theta0,
            lower=[0.0, xg.min(), yg.min(), 1e-6, 1e-6, -np.inf],
            upper=[np.inf, xg.max(), yg.max(), np.inf, np.inf, np.inf],
        )
        amp, x0, y0, sx_f, sy_f, off = res.x
        spots.append(
            SpotFit(
                centroid_x_um=float(x0),
                centroid_y_um=float(y0),
                fwhm_x_um=float(FWHM_PER_SIGMA * abs(sx_f)),
                fwhm_y_um=float(FWHM_PER_SIGMA * abs(sy_f)),
                peak_rate=float(amp + off),
            )
        )
    spots.sort(key=lambda s: s.peak_rate, reverse=True)
    return spots


def _logistic(z, center, width):
    # Far below a sharp step exp overflows to inf, which gives the step's limit, 0.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-(z - center) / width))


def film_thickness(profile: DepthProfile) -> ThicknessResult:
    """Film thickness from the two rising steps of a PL depth profile.

    The count rate steps up from ~zero (air) to the film level at the
    surface, then up again at the film/substrate interface (the substrate
    is the dirtier, brighter material).  Both steps are fitted jointly with
    a two-logistic model; thickness is the distance between step centers.

    Raises
    ------
    DepthProfileError
        If fewer than two rising steps are detectable, with an orientation
        hint when the profile instead steps downward.
    """
    z, counts = profile.z_um, profile.counts
    if z.size < 16:
        raise DepthProfileError("profile too short to locate two steps")
    span = float(np.ptp(counts))
    if span <= 0:
        raise DepthProfileError("profile is constant; no steps to detect")

    # Smooth, then segment contiguous rising regions; each region is one
    # candidate step, kept only if the level change across it is a sizable
    # fraction of the full span.
    width = max(3, z.size // 100)
    kernel = np.ones(width) / width
    smooth = np.convolve(counts, kernel, mode="same")
    grad = np.diff(smooth)
    padded = np.concatenate(([False], grad > 0.15 * np.max(grad), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    regions = []
    for a, b in zip(edges[::2], edges[1::2]):
        # A dip shorter than the smoothing width is noise splitting one
        # step, not the gap between two steps.
        if regions and a - regions[-1][1] < width:
            a = regions.pop()[0]
        regions.append((a, b))
    rising = []
    for a, b in regions:
        lo_window = smooth[max(a - 3 * width, 0) : max(a - width, 1)]
        hi_window = smooth[min(b + width, smooth.size - 1) : b + 3 * width + 1]
        if median(hi_window) - median(lo_window) >= STEP_MIN_FRACTION * span:
            rising.append(a + int(np.argmax(grad[a:b])))
    if len(rising) != 2:
        hint = ""
        if len(rising) < 2 and smooth[0] - smooth[-1] >= STEP_MIN_FRACTION * span:
            hint = (
                "; the profile steps downward - counts must rise from air to "
                "film to substrate (is the z axis reversed?)"
            )
        raise DepthProfileError(f"found {len(rising)} rising step(s), need 2{hint}")
    if rising[1] + width >= counts.size:
        raise DepthProfileError(
            f"second step lies within {width} samples of the profile's end; no substrate level"
        )

    z1_0, z2_0 = float(z[rising[0]]), float(z[rising[1]])
    base0 = float(median(counts[: max(rising[0] - width, 1)]))
    mid0 = float(median(counts[rising[0] + width : max(rising[1] - width, rising[0] + width + 1)]))
    top0 = float(median(counts[rising[1] + width :]))
    w0 = max(float(z[1] - z[0]) * width, 1e-3)
    theta0 = np.array([base0, mid0 - base0, z1_0, w0, top0 - mid0, z2_0, w0])

    def residual(theta):
        base, a1, c1, w1, a2, c2, w2 = theta
        model = base + a1 * _logistic(z, c1, abs(w1) + 1e-9) + a2 * _logistic(
            z, c2, abs(w2) + 1e-9
        )
        return model - counts

    res = lm_least_squares(forward_differences(residual), theta0)
    _, _, c1, _, _, c2, _ = res.x
    surface, interface = (float(c1), float(c2)) if c1 <= c2 else (float(c2), float(c1))
    return ThicknessResult(
        surface_z_um=surface,
        interface_z_um=interface,
        thickness_um=interface - surface,
    )


def _label_for(center: float, unit: str) -> str:
    lines = KNOWN_LINES_NM if unit == "nm" else KNOWN_LINES_CM1
    for line, label in lines.items():
        if abs(center - line) < LINE_MATCH_TOLERANCE:
            return label
    lo, hi = RAMAN_2ND_ORDER_BAND_NM
    if unit == "nm" and lo <= center <= hi:
        return "raman_2nd_order_band"
    return "unknown"


def _fit_one_peak(x, y, idx, baseline, neighbor_centers):
    """Lorentzian fit around one local maximum; returns (amp, center, fwhm)."""
    height = y[idx] - baseline
    half_level = baseline + height / 2.0
    i_left = idx
    while i_left > 0 and y[i_left] > half_level:
        i_left -= 1
    i_right = idx
    while i_right < y.size - 1 and y[i_right] > half_level:
        i_right += 1
    fwhm_est = max(float(x[i_right] - x[i_left]), 2 * float(x[1] - x[0]))

    half_window = 5.0 * fwhm_est
    others = np.abs(np.asarray(neighbor_centers) - x[idx])
    others = others[others > 0]
    if others.size:
        half_window = min(half_window, float(others.min()) / 2.0)
    sel = (x >= x[idx] - half_window) & (x <= x[idx] + half_window)
    if np.count_nonzero(sel) < 5:
        return None
    xs, ys = x[sel], y[sel]

    theta0 = np.array([height, float(x[idx]), fwhm_est, baseline])
    res = lm_least_squares(
        forward_differences(lambda theta: lorentzian(theta, xs) - ys),
        theta0,
        lower=[0.0, xs.min(), 1e-12, -np.inf],
        upper=[np.inf, xs.max(), np.inf, np.inf],
    )
    amp, center, fwhm, _ = res.x
    return float(amp), float(center), float(abs(fwhm))


def identify_peaks(spec: Spectrum) -> list[PeakFit]:
    """Find, fit, and label spectral peaks.

    Local maxima above the robust noise floor seed per-peak Lorentzian fits
    on windows of +-5 estimated FWHM (truncated halfway to the nearest
    neighboring candidate).  The fits run in DEFLATION_PASSES passes, each
    on the data with the other peaks' profiles from the previous pass
    subtracted (none in pass 1), which removes the area bias from
    overlapping tails.  A candidate that pass 1 cannot fit is dropped.
    Labels come from the line catalog for the spectrum's unit; unmatched
    peaks are labeled ``unknown``.
    """
    x, y = spec.values, spec.counts
    if x.size < 50:
        raise ValueError("spectrum must have at least 50 samples")
    baseline = float(median(y))
    mad = float(median(np.abs(y - baseline)))
    noise = 1.4826 * mad
    floor = baseline + PEAK_NOISE_SIGMA * noise

    interior = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]) & (y[1:-1] > floor)
    candidates = (np.nonzero(interior)[0] + 1).tolist()
    if not candidates:
        return []

    centers = x[np.array(candidates)]
    fits = [(idx, None) for idx in candidates]
    for _ in range(DEFLATION_PASSES):
        refined = []
        for i, (idx, previous) in enumerate(fits):
            cleaned = y.copy()
            for j, (_, other) in enumerate(fits):
                if j != i and other is not None:
                    cleaned -= lorentzian((*other, 0.0), x)
            fitted = _fit_one_peak(x, cleaned, idx, baseline, centers) or previous
            if fitted is not None:
                refined.append((idx, fitted))
        fits = refined

    peaks = [
        PeakFit(
            center=center,
            fwhm=fwhm,
            area=float(math.pi * amp * fwhm / 2.0),
            amplitude=amp,
            label=_label_for(center, spec.unit),
        )
        for _, (amp, center, fwhm) in fits
    ]
    peaks.sort(key=lambda p: p.center)
    return peaks


def charge_ratio(spec: Spectrum, kappa: float = 1.0) -> ChargeRatio:
    """NV0 : NV- concentration ratio from the two ZPL areas.

    ratio = kappa * area(575 nm) / area(637 nm).  The calibration factor
    kappa (relative radiative efficiencies and spectrometer response)
    defaults to 1.

    Raises
    ------
    MissingZplError
        Naming the absent line if either ZPL is not found.
    """
    peaks = identify_peaks(spec)
    by_label = {p.label: p for p in peaks}
    if "NV0_ZPL" not in by_label:
        raise MissingZplError("NV0 ZPL at 575 nm not found in spectrum")
    if "NVminus_ZPL" not in by_label:
        raise MissingZplError("NV- ZPL at 637 nm not found in spectrum")
    ratio = kappa * by_label["NV0_ZPL"].area / by_label["NVminus_ZPL"].area
    return ChargeRatio(ratio_c0_cminus=float(ratio), kappa=kappa)


def purity_report(grid: ScanGrid) -> PurityReport:
    """Fraction of pixels consistent with the shot-noise background level."""
    bg = robust_background(grid.counts)
    sigma = math.sqrt(max(bg, 1.0))
    clean = np.abs(grid.counts - bg) <= 2.0 * sigma
    return PurityReport(
        background_rate=bg, clean_fraction=float(np.mean(clean))
    )
