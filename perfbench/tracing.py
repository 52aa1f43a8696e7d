"""Spans around calls into nvforge's public functions, recorded from outside.

:func:`install` swaps each public function named in :data:`LAYERS` for a
wrapper in every loaded ``nvforge`` module that holds a reference to it,
so calls made inside nvforge (``t2_vs_n`` calling ``fitkit.fit``, the CLI
calling ``detect_spots``) are seen too.  :func:`uninstall` puts the
originals back.  Spans stay in memory; callers write them out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time

# span name -> [(module, function), ...]; every function listed under one
# name counts toward that layer.
LAYERS = {
    "engines.decay_time_grid": [("nvforge.engines", "decay_time_grid")],
    "engines.simulate_analytic": [("nvforge.engines", "simulate_analytic")],
    "engines.simulate_mc": [("nvforge.engines", "simulate_mc")],
    "fitkit.fit": [("nvforge.fitkit", "fit")],
    "fitkit.fit_envelope": [("nvforge.fitkit", "fit_envelope")],
    "scan.detect_spots": [("nvforge.scan", "detect_spots")],
    "scan.purity_report": [("nvforge.scan", "purity_report")],
    "scan.film_thickness": [("nvforge.scan", "film_thickness")],
    "scan.identify_peaks": [("nvforge.scan", "identify_peaks")],
    "scan.charge_ratio": [("nvforge.scan", "charge_ratio")],
    "dataio.write": [
        ("nvforge.dataio", name)
        for name in (
            "write_json", "write_decay_csv", "write_odmr_csv", "write_spectrum_csv",
            "write_depth_profile_csv", "write_t2_table_csv", "write_scan_grid_csv",
        )
    ],
    "dataio.read": [
        ("nvforge.dataio", name)
        for name in (
            "read_json", "read_decay_csv", "read_spectrum_csv",
            "read_depth_profile_csv", "read_scan_grid_csv",
        )
    ],
    "fixtures": [
        ("nvforge.fixtures", name)
        for name in (
            "spot_grid_fig5", "depth_profile_fig6", "spectrum_s123", "raman_spectrum",
            "decay_family_fig7", "xy_curves_fig9", "table2_metadata",
            "halo_grid_s1", "purity_grid_s4",
        )
    ],
    "presets.noise_preset": [("nvforge.presets", "noise_preset")],
    "spincore.odmr_spectrum": [("nvforge.spincore", "odmr_spectrum")],
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _counts(layer: str, args: dict, result, error) -> dict:
    """Work counters of one call, read from its arguments and result."""
    if layer == "engines.simulate_analytic":
        points = len(args["times_s"])
        return {"points": points, "cells": points * (args["seq"].n_pi + 1)}
    if layer == "engines.simulate_mc":
        return {"traj_points": int(args["n_traj"]) * len(args["times_s"])}
    if layer == "fitkit.fit":
        fit = result if error is None else getattr(error, "best_result", None)
        if fit is None:
            return {"lm_iters": 0, "converged": 0}
        return {"lm_iters": int(fit.n_iter), "converged": int(bool(fit.converged))}
    if layer in ("dataio.write", "dataio.read"):
        return {"bytes": _file_size(args.get("path"))}
    return {}


class Recorder:
    """In-memory span list: [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, counts: dict | None = None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        if counts:
            span[5] = counts

    def extend(self, spans: list[list], op) -> None:
        """Append spans recorded in another process, re-rooted under ``op``."""
        offset = len(self.spans)
        for name, start, end, parent, _, counts in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, op, counts]
            )


def _wrap(recorder: Recorder, layer: str, func):
    signature = inspect.signature(func)
    is_read = layer == "dataio.read"

    def wrapper(*args, **kwargs):
        bound = signature.bind_partial(*args, **kwargs).arguments
        # A reader's bytes are its input; measure before the call can fail.
        counts = _counts(layer, bound, None, None) if is_read else None
        index = recorder.begin(layer)
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            recorder.end(index, counts or _counts(layer, bound, None, exc))
            raise
        recorder.end(index, counts or _counts(layer, bound, result, None))
        return result

    wrapper.__wrapped__ = func
    return wrapper


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every listed function wherever nvforge holds it; returns an undo list."""
    originals = {}
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            func = getattr(importlib.import_module(module_name), attr)
            originals[id(func)] = (func, _wrap(recorder, layer, func))
    undo = []
    for name, module in list(sys.modules.items()):
        if not (name == "nvforge" or name.startswith("nvforge.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            hit = originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
                undo.append((module, key, value))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for module, key, value in undo:
        setattr(module, key, value)


def layer_totals(spans: list[list], scale: dict | None = None) -> dict[str, dict]:
    """Per span name: call count, self time and summed counters.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, as every process records one call stack.
    ``scale`` maps an op id to the factor its span times are multiplied by.
    """
    scale = scale or {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, _, op, counts) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += ((end - start) - child_time[i]) * scale.get(op, 1.0)
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals
