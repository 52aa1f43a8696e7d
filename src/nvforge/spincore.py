"""Static spin physics of the NV ground state.

Covers projection of a lab-frame magnetic field onto the four NV symmetry
axes, the secular transition frequencies f+- = D +- gamma*|B_par| and
synthetic CW-ODMR spectra built from Lorentzian dips.  The tests check the
secular approximation against an exact 3x3 ground-state Hamiltonian
eigensolver of their own.

Only the electronic lines are modeled here: hyperfine structure enters the
free-induction simulation (:mod:`nvforge.engines`), not the ODMR spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import GYROMAGNETIC_RATIO_HZ_PER_T, ODMR_CONTRAST, ODMR_LINEWIDTH_FWHM_HZ
from .constants import ZERO_FIELD_SPLITTING_HZ, check_positive
from .dataio import OdmrSpectrum, lorentzian

# Dips whose centers lie within this fraction of the linewidth merge into a
# single resolved line.
LINE_MERGE_FRACTION = 0.1


@dataclass(frozen=True)
class SpinParams:
    """Ground-state spin parameters of an NV ensemble.

    Attributes
    ----------
    zfs_d_hz:
        Zero-field splitting D between m_S = 0 and m_S = +/-1.
    gyromag_hz_per_t:
        Gyromagnetic ratio gamma (Hz/T), exposed so tests can pin it.
    linewidth_fwhm_hz:
        Full width at half maximum of a single ODMR dip.
    odmr_contrast:
        Total fractional PL contrast when all eight lines coincide.
    """

    zfs_d_hz: float = ZERO_FIELD_SPLITTING_HZ
    gyromag_hz_per_t: float = GYROMAGNETIC_RATIO_HZ_PER_T
    linewidth_fwhm_hz: float = ODMR_LINEWIDTH_FWHM_HZ
    odmr_contrast: float = ODMR_CONTRAST

    def __post_init__(self) -> None:
        check_positive(zfs_d_hz=self.zfs_d_hz, gyromag_hz_per_t=self.gyromag_hz_per_t,
                       linewidth_fwhm_hz=self.linewidth_fwhm_hz)
        if not self.linewidth_fwhm_hz / 2.0 > 0:
            raise ValueError("linewidth_fwhm_hz is too small: its half width rounds to 0")
        if not 0.0 < self.odmr_contrast <= 1.0:
            raise ValueError("odmr_contrast must lie in (0, 1]")


@dataclass(frozen=True)
class MagneticFieldVector:
    """Static lab-frame magnetic field in tesla."""

    bx_t: float
    by_t: float
    bz_t: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(c) for c in (self.bx_t, self.by_t, self.bz_t)):
            raise ValueError("field components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.bx_t, self.by_t, self.bz_t])

    @property
    def magnitude_t(self) -> float:
        return float(np.linalg.norm(self.as_array()))


#: The four <111> NV symmetry axes of the diamond lattice as unit rows, in a
#: fixed order used for axis indices; pairwise dot products are -1/3.
CANONICAL_AXES = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / np.sqrt(3.0)
CANONICAL_AXES.setflags(write=False)


def project_field(fieldvec: MagneticFieldVector, axis: np.ndarray) -> float:
    """Signed projection (tesla) of the lab field onto an NV axis, a row of ``CANONICAL_AXES``."""
    return float(fieldvec.as_array() @ axis)


def transition_frequencies(params: SpinParams, b_parallel_t: float) -> tuple[float, float]:
    """Secular transition frequencies ``(f_minus, f_plus)`` in Hz.

    f+- = D +- gamma * |B_par|; the sum f+ + f- equals 2 D by construction.
    """
    zeeman = params.gyromag_hz_per_t * abs(b_parallel_t)
    return params.zfs_d_hz - zeeman, params.zfs_d_hz + zeeman


def _all_line_centers(
    params: SpinParams, fieldvec: MagneticFieldVector
) -> list[tuple[int, int, float]]:
    centers = []
    for i, axis in enumerate(CANONICAL_AXES):
        f_minus, f_plus = transition_frequencies(params, project_field(fieldvec, axis))
        centers.append((i, -1, f_minus))
        centers.append((i, +1, f_plus))
    return sorted(centers, key=lambda c: c[2])


def _merge_centers(
    centers: list[tuple[int, int, float]], linewidth_hz: float, depth_each: float
) -> list[tuple[float, float]]:
    # Greedy left-to-right clustering; centers are pre-sorted.
    tol = LINE_MERGE_FRACTION * linewidth_hz

    def line(group: list[float]) -> tuple[float, float]:
        # The mean of up to eight centres is taken at 1/8 scale, so their sum
        # cannot overflow; both factors are powers of two, so a normal centre
        # keeps its bytes.
        return float(np.mean(np.multiply(group, 0.125))) * 8.0, depth_each * len(group)

    resolved: list[tuple[float, float]] = []
    group: list[float] = []
    for _, _, f in centers:
        if group and f - group[0] > tol:
            resolved.append(line(group))
            group = []
        group.append(f)
    if group:
        resolved.append(line(group))
    return resolved


def odmr_spectrum(
    params: SpinParams, fieldvec: MagneticFieldVector, freq_grid_hz
) -> OdmrSpectrum:
    """Synthesize the eight-line ODMR spectrum on a frequency grid.

    Each of the four axes contributes one Lorentzian dip pair with total
    axis weight 1/4 (unpolarized ensemble), so all eight lines coinciding
    at zero field produce a single dip of depth ``odmr_contrast``.

    Raises
    ------
    ValueError
        If the grid is empty or not strictly increasing.
    """
    freqs = np.asarray(freq_grid_hz, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency grid must be non-empty")
    if freqs.size > 1 and not np.all(np.diff(freqs) > 0):
        raise ValueError("frequency grid must be strictly increasing")

    centers = _all_line_centers(params, fieldvec)
    depth_each = params.odmr_contrast / 8.0
    signal = np.ones_like(freqs)
    with np.errstate(over="ignore"):  # far from a narrow line the Lorentzian is 1/(1 + inf) = 0
        for _, _, f0 in centers:
            signal -= lorentzian((depth_each, f0, params.linewidth_fwhm_hz, 0.0), freqs)

    resolved = _merge_centers(centers, params.linewidth_fwhm_hz, depth_each)
    return OdmrSpectrum(
        frequencies_hz=freqs,
        signal=signal,
        line_centers=centers,
        resolved_lines=resolved,
    )
