"""Deterministic CSV/JSON readers and writers for the toolkit's data types.

All writers produce byte-identical output for identical inputs: floats are
rendered with shortest round-trip ``repr``, JSON keys are sorted, a
dataclass record is written as its fields, and files are written atomically
(temp file + rename).  A writer refuses a non-finite value with
:class:`~nvforge.levmar.NumericalFailure` before it writes the file.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .curves import DecayCurve
from .levmar import NumericalFailure
from .scan import DepthProfile, ScanGrid, Spectrum
from .spincore import OdmrSpectrum


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _record_fields(obj) -> dict:
    """JSON hook: a dataclass record is written as its fields."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _not_finite(path: Path) -> NumericalFailure:
    return NumericalFailure(f"{path}: a value to write is not finite")


def write_json(path: Path, payload) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_record_fields, allow_nan=False)
    except ValueError as exc:  # nan or inf; the payloads hold no circular reference
        raise _not_finite(path) from exc
    atomic_write_text(Path(path), text + "\n")


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
    column = "wavelength_nm" if spec.unit == "nm" else "wavenumber_cm1"
    _write_csv(Path(path), [column, "counts"], [spec.values, spec.counts])


def read_spectrum_csv(path: Path) -> Spectrum:
    header, data = _read_csv(path)
    if header[0] == "wavelength_nm":
        unit = "nm"
    elif header[0] == "wavenumber_cm1":
        unit = "cm-1"
    else:
        raise ValueError(
            "first column must be wavelength_nm or wavenumber_cm1, "
            f"got {header[0]!r}"
        )
    return Spectrum(values=data[:, 0], counts=data[:, 1], unit=unit)


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
    x = np.unique(data[:, 0])
    y = np.unique(data[:, 1])
    counts = np.full((y.size, x.size), np.nan)
    ix = np.searchsorted(x, data[:, 0])
    iy = np.searchsorted(y, data[:, 1])
    counts[iy, ix] = data[:, 2]
    if np.any(np.isnan(counts)):
        raise ValueError("scan-grid CSV does not cover a full rectangular grid")
    return ScanGrid(x_um=x, y_um=y, counts=counts)
