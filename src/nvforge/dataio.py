"""The toolkit's data records and their deterministic CSV/JSON formats.

Each record checks its fields when it is made.  All writers produce
byte-identical output for identical inputs: floats are rendered with
shortest round-trip ``repr``, JSON keys are sorted, a dataclass record is
written as its fields, and files are written atomically (temp file +
rename).  A writer refuses a non-finite value with
:class:`~nvforge.constants.NumericalFailure` before it writes the file.
The line shapes the fixtures and the reductions share live here too, as
do ``median`` and ``sorted_unique``, which give numpy's bits without its
import of ``numpy.ma``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .constants import _not_finite, atomic_write_text, write_json

# Small allowance above |1| so noisy measured curves remain representable.
SIGNAL_BOUND = 1.05

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: Spectrum unit -> the name of its axis column in a spectrum CSV.
SPECTRUM_COLUMNS = {"nm": "wavelength_nm", "cm-1": "wavenumber_cm1"}


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


def sorted_unique(column: np.ndarray) -> np.ndarray:
    """``np.unique`` of finite values, bit for bit, without its import of ``numpy.ma``.

    It is numpy's own sort-and-mask: the same sort, then the first value of
    each run of equal values, so +0.0 and -0.0 become whichever the sort puts first.
    """
    aux = np.sort(column)
    keep = np.empty(aux.size, dtype=bool)
    keep[:1] = True
    keep[1:] = aux[1:] != aux[:-1]
    return aux[keep]


def gaussian2d(params, xg, yg):
    """Elliptical Gaussian spot: params (amp, x0, y0, sigma_x, sigma_y, offset)."""
    amp, x0, y0, sx, sy, off = params
    return amp * np.exp(
        -((xg - x0) ** 2) / (2 * sx**2) - ((yg - y0) ** 2) / (2 * sy**2)
    ) + off


def lorentzian(params, x):
    """Lorentzian line: params (peak height, center, FWHM, offset)."""
    amp, center, fwhm, off = params
    half = fwhm / 2.0
    return amp / (1.0 + ((x - center) / half) ** 2) + off


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
        if self.unit not in SPECTRUM_COLUMNS:
            raise ValueError(f"unit must be {' or '.join(map(repr, SPECTRUM_COLUMNS))}")


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


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    columns = [np.asarray(col, dtype=float) for col in columns]
    if not all(np.isfinite(col).all() for col in columns):
        raise _not_finite(path)
    rows = zip(*(map(repr, col.tolist()) for col in columns))
    atomic_write_text(Path(path), "\n".join([",".join(header), *map(",".join, rows)]) + "\n")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and the 2-D float array of the data rows."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: CSV needs a header row and at least one data row")
    header = [h.strip() for h in lines[0].split(",")]
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: every data row needs one value per header column")
    data = np.array(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: every data value must be finite")
    return header, data


def write(path: Path, payload) -> list[Path]:
    """Write ``payload`` in its type's format; returns every path written.

    A decay curve is a CSV and its JSON sidecar, the other data types a CSV,
    any other payload (a dataclass record or a dict) JSON.  The writers are
    looked up on each call, never held, so wrappers swapped into this module
    (perfbench/tracing.py) see it.
    """
    path = Path(path)
    writer = {
        DecayCurve: write_decay_csv,
        OdmrSpectrum: write_odmr_csv,
        ScanGrid: write_scan_grid_csv,
        DepthProfile: write_depth_profile_csv,
        Spectrum: write_spectrum_csv,
    }.get(type(payload))
    if writer is None:
        write_json(path, payload)
        return [path]
    writer(payload, path)
    if isinstance(payload, DecayCurve):
        return [path, path.with_suffix(".json")]
    return [path]


def write_decay_csv(curve: DecayCurve, path: Path) -> None:
    """Write (time_s, signal) columns plus a JSON metadata sidecar."""
    path = Path(path)
    _write_csv(path, ["time_s", "signal"], [curve.times_s, curve.signal])
    write_json(path.with_suffix(".json"), curve.meta)


def read_decay_csv(path: Path) -> DecayCurve:
    path = Path(path)
    header, data = _read_csv(path)
    if header[:2] != ["time_s", "signal"]:
        raise ValueError(f"expected columns time_s, signal; got {header}")
    meta = {}
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        meta = read_json(sidecar)
    return DecayCurve(times_s=data[:, 0], signal=data[:, 1], meta=meta)


def write_odmr_csv(spectrum: OdmrSpectrum, path: Path) -> None:
    _write_csv(
        Path(path),
        ["frequency_hz", "signal"],
        [spectrum.frequencies_hz, spectrum.signal],
    )


def odmr_line_table(spectrum: OdmrSpectrum) -> dict:
    return {
        "line_centers": [
            {"axis_index": i, "branch": b, "frequency_hz": f}
            for i, b, f in spectrum.line_centers
        ],
        "resolved_lines": [
            {"center_hz": c, "depth": d} for c, d in spectrum.resolved_lines
        ],
    }


def write_spectrum_csv(spec: Spectrum, path: Path) -> None:
    _write_csv(Path(path), [SPECTRUM_COLUMNS[spec.unit], "counts"], [spec.values, spec.counts])


def read_spectrum_csv(path: Path) -> Spectrum:
    header, data = _read_csv(path)
    units = {column: unit for unit, column in SPECTRUM_COLUMNS.items()}
    if header[0] not in units:
        raise ValueError(
            f"first column must be {' or '.join(SPECTRUM_COLUMNS.values())}, got {header[0]!r}"
        )
    return Spectrum(values=data[:, 0], counts=data[:, 1], unit=units[header[0]])


def write_depth_profile_csv(profile: DepthProfile, path: Path) -> None:
    _write_csv(Path(path), ["z_um", "counts"], [profile.z_um, profile.counts])


def read_depth_profile_csv(path: Path) -> DepthProfile:
    header, data = _read_csv(path)
    if header[:2] != ["z_um", "counts"]:
        raise ValueError(f"expected columns z_um, counts; got {header}")
    return DepthProfile(z_um=data[:, 0], counts=data[:, 1])


def write_t2_table_csv(rows, path: Path) -> None:
    """Flat (n, T2, p, stderr) table for plotting, one row per pulse count."""
    header = ["n", "t2_s", "p", "stderr_t2_s", "stderr_p"]
    _write_csv(Path(path), header, [[getattr(row, name) for row in rows] for name in header])


def write_scan_grid_csv(grid: ScanGrid, path: Path) -> None:
    """Long-format writer: one (x_um, y_um, counts) row per pixel."""
    xg, yg = np.meshgrid(grid.x_um, grid.y_um)
    _write_csv(
        Path(path),
        ["x_um", "y_um", "counts"],
        [xg.ravel(), yg.ravel(), grid.counts.ravel()],
    )


def read_scan_grid_csv(path: Path) -> ScanGrid:
    """Read a grid in long format or dense-matrix format.

    Dense format: header ``y_um\\x_um, <x0>, <x1>, ...`` and one row per y
    value; long format: header ``x_um, y_um, counts``.
    """
    header, data = _read_csv(path)
    if header[0].startswith("y_um"):
        x = np.array([float(v) for v in header[1:]])
        return ScanGrid(x_um=x, y_um=data[:, 0], counts=data[:, 1:])
    if header[:3] != ["x_um", "y_um", "counts"]:
        raise ValueError(f"unrecognized scan-grid header: {header}")
    x = sorted_unique(data[:, 0])
    y = sorted_unique(data[:, 1])
    counts = np.full((y.size, x.size), np.nan)
    ix = np.searchsorted(x, data[:, 0])
    iy = np.searchsorted(y, data[:, 1])
    counts[iy, ix] = data[:, 2]
    if np.any(np.isnan(counts)):
        raise ValueError("scan-grid CSV does not cover a full rectangular grid")
    if len(data) != counts.size:
        raise ValueError(f"scan-grid CSV repeats a pixel: {len(data)} rows for {x.size} x {y.size} pixels")
    return ScanGrid(x_um=x, y_um=y, counts=counts)
