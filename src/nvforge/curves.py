"""The toolkit's data records, and the median their reductions share.

The records live apart from the code that makes or reduces them, so the
readers and writers of :mod:`nvforge.dataio` load neither
:mod:`nvforge.scan` nor :mod:`nvforge.spincore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Small allowance above |1| so noisy measured curves remain representable.
SIGNAL_BOUND = 1.05


def median(values) -> np.float64:
    """``np.median`` of the flattened values, bit for bit, without its import of ``numpy.ma``.

    It takes the same partition and the same mean as numpy: an even count
    gives the mean of the middle pair, and any NaN gives NaN.
    """
    a = np.asarray(values, dtype=float).ravel()
    half = a.size // 2
    part = np.partition(a, [half, -1] if a.size % 2 else [half - 1, half, -1])
    if a.size and np.isnan(part[-1]):  # NaNs sort last
        return part[-1]
    return np.mean(part[half - 1 + a.size % 2 : half + 1])


@dataclass
class DecayCurve:
    """Signal versus total evolution time.

    ``meta`` carries provenance (sequence name, engine, seed, noise
    parameters, per-point Monte-Carlo standard errors, ...) and is written
    to the JSON sidecar when the curve is serialized.
    """

    times_s: np.ndarray
    signal: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times_s = np.asarray(self.times_s, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        if self.times_s.ndim != 1 or self.times_s.shape != self.signal.shape:
            raise ValueError("times and signal must be 1-D arrays of equal length")
        if not self.times_s.size:
            raise ValueError("a decay curve needs at least one time point")
        if self.times_s.size > 1 and not np.all(np.diff(self.times_s) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(np.abs(self.signal) > SIGNAL_BOUND):
            raise ValueError(f"signal values must lie within +/-{SIGNAL_BOUND}")

    def __len__(self) -> int:
        return int(self.times_s.size)


@dataclass
class ScanGrid:
    """Spatial count-rate raster with uniform axes in micrometers."""

    x_um: np.ndarray
    y_um: np.ndarray
    counts: np.ndarray  # shape (len(y_um), len(x_um))

    def __post_init__(self) -> None:
        self.x_um = np.asarray(self.x_um, dtype=float)
        self.y_um = np.asarray(self.y_um, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        for axis in (self.x_um, self.y_um):
            if axis.size > 1 and not np.all(np.diff(axis) > 0):
                raise ValueError("grid axes must be strictly increasing")
            steps = np.diff(axis)
            if steps.size and not np.allclose(steps, steps[0], rtol=1e-6):
                raise ValueError("grid axes must be uniformly spaced")
        if self.counts.shape != (self.y_um.size, self.x_um.size):
            raise ValueError("counts shape must be (len(y), len(x))")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")


@dataclass
class DepthProfile:
    """Count rate versus focal depth."""

    z_um: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.z_um = np.asarray(self.z_um, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.z_um.shape != self.counts.shape or self.z_um.ndim != 1:
            raise ValueError("z and counts must be 1-D arrays of equal length")
        if not np.all(np.diff(self.z_um) > 0):
            raise ValueError("z must be strictly increasing")


@dataclass
class Spectrum:
    """PL or Raman spectrum; ``unit`` is 'nm' or 'cm-1'."""

    values: np.ndarray
    counts: np.ndarray
    unit: str = "nm"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        self.counts = np.asarray(self.counts, dtype=float)
        if self.values.shape != self.counts.shape or self.values.ndim != 1:
            raise ValueError("values and counts must be 1-D arrays of equal length")
        if not np.all(np.diff(self.values) > 0):
            raise ValueError("spectral axis must be strictly increasing")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        if self.unit not in ("nm", "cm-1"):
            raise ValueError("unit must be 'nm' or 'cm-1'")


@dataclass
class OdmrSpectrum:
    """Synthetic CW-ODMR spectrum.

    ``signal`` is normalized PL (1 = off resonance).  ``line_centers`` lists
    all eight underlying dip centers as ``(axis_index, branch, frequency_hz)``
    sorted by frequency; ``resolved_lines`` groups centers closer than
    ``spincore.LINE_MERGE_FRACTION * linewidth`` into single deeper dips,
    reported as ``(center_hz, depth)``.
    """

    frequencies_hz: np.ndarray
    signal: np.ndarray
    line_centers: list[tuple[int, int, float]]
    resolved_lines: list[tuple[float, float]] = field(default_factory=list)
