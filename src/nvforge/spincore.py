"""Static spin physics of the NV ground state.

Covers projection of a lab-frame magnetic field onto the four NV symmetry
axes, the secular transition frequencies f+- = D +- gamma*|B_par|, synthetic
CW-ODMR spectra built from Lorentzian dips, and a full 3x3 ground-state
Hamiltonian eigensolver that serves as the exact oracle for the secular
approximation.

Only the electronic lines are modeled here: hyperfine structure enters the
free-induction simulation (:mod:`nvforge.engines`), not the ODMR spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    GYROMAGNETIC_RATIO_HZ_PER_T,
    NV_AXIS_DIRECTIONS,
    ZERO_FIELD_SPLITTING_HZ,
)

# Dips whose centers lie within this fraction of the linewidth merge into a
# single resolved line.
LINE_MERGE_FRACTION = 0.1

# Spin-1 operators in the |+1>, |0>, |-1> basis.
_SZ = np.diag([1.0, 0.0, -1.0])
_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2.0)
_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2.0)


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
    linewidth_fwhm_hz: float = 6.0e6
    odmr_contrast: float = 0.15

    def __post_init__(self) -> None:
        if not self.zfs_d_hz > 0:
            raise ValueError("zfs_d_hz must be positive")
        if not self.gyromag_hz_per_t > 0:
            raise ValueError("gyromag_hz_per_t must be positive")
        if not self.linewidth_fwhm_hz > 0:
            raise ValueError("linewidth_fwhm_hz must be positive")
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


@dataclass(frozen=True)
class NVAxis:
    """One of the four canonical <111> NV symmetry axes."""

    direction: tuple[float, float, float]

    def __post_init__(self) -> None:
        d = np.asarray(self.direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ValueError("axis direction must be a unit vector")
        if min(np.linalg.norm(NV_AXIS_DIRECTIONS - d, axis=1)) > 1e-9:
            raise ValueError("axis must be one of the four canonical <111> directions")
        object.__setattr__(self, "direction", tuple(float(c) for c in d))

    def as_array(self) -> np.ndarray:
        return np.array(self.direction)


#: The four canonical axes, in a fixed order used for axis indices.
CANONICAL_AXES = tuple(NVAxis(tuple(row)) for row in NV_AXIS_DIRECTIONS)


@dataclass
class OdmrSpectrum:
    """Synthetic CW-ODMR spectrum.

    ``signal`` is normalized PL (1 = off resonance).  ``line_centers`` lists
    all eight underlying dip centers as ``(axis_index, branch, frequency_hz)``
    sorted by frequency; ``resolved_lines`` groups centers closer than
    ``LINE_MERGE_FRACTION * linewidth`` into single deeper dips, reported as
    ``(center_hz, depth)``.
    """

    frequencies_hz: np.ndarray
    signal: np.ndarray
    line_centers: list[tuple[int, int, float]]
    resolved_lines: list[tuple[float, float]] = field(default_factory=list)


def project_field(fieldvec: MagneticFieldVector, axis: NVAxis) -> float:
    """Signed projection (tesla) of the lab field onto an NV axis."""
    return float(fieldvec.as_array() @ axis.as_array())


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
    resolved: list[tuple[float, float]] = []
    group: list[float] = []
    for _, _, f in centers:
        if group and f - group[0] > tol:
            resolved.append((float(np.mean(group)), depth_each * len(group)))
            group = []
        group.append(f)
    if group:
        resolved.append((float(np.mean(group)), depth_each * len(group)))
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
    half = params.linewidth_fwhm_hz / 2.0
    with np.errstate(over="ignore"):  # far from a narrow line the Lorentzian is 1/(1 + inf) = 0
        for _, _, f0 in centers:
            signal -= depth_each / (1.0 + ((freqs - f0) / half) ** 2)

    resolved = _merge_centers(centers, params.linewidth_fwhm_hz, depth_each)
    return OdmrSpectrum(
        frequencies_hz=freqs,
        signal=signal,
        line_centers=centers,
        resolved_lines=resolved,
    )


def _axis_frame(axis: NVAxis) -> np.ndarray:
    """Right-handed orthonormal frame with the NV axis as its z column."""
    z = axis.as_array()
    x = np.cross([0.0, 0.0, 1.0], z)  # no <111> axis is parallel to e_z
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    return np.column_stack([x, y, z])


def full_hamiltonian_frequencies(
    params: SpinParams, fieldvec: MagneticFieldVector, axis: NVAxis
) -> tuple[float, float]:
    """Exact transition frequencies from the 3x3 ground-state Hamiltonian.

    Diagonalizes H = D*Sz^2 + gamma*(B . S) in the axis frame and returns
    the two eigenvalue differences from the lowest (m_S = 0 like) state.
    This is the oracle against which the secular approximation is checked.
    """
    frame = _axis_frame(axis)
    b_axis = frame.T @ fieldvec.as_array()
    g = params.gyromag_hz_per_t
    h = params.zfs_d_hz * (_SZ @ _SZ) + g * (
        b_axis[0] * _SX + b_axis[1] * _SY + b_axis[2] * _SZ
    )
    evals = np.linalg.eigvalsh(h)
    return float(evals[1] - evals[0]), float(evals[2] - evals[0])
