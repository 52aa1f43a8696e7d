"""The benchmark's definition: workloads and metrics, as written to BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 25

WORKLOADS = [
    {"name": "decay-sweep",
     "why": "in-process T2 pipeline (grid, analytic curve, stretched-exp fit, CSV write) over Ramsey to CPMG(256); "
            "chi kernel, bisection and LM dominate, no MC"},
    {"name": "engine-crosscheck",
     "why": "in-process `nvforge decay --engine both`, 2e4 MC trajectories per op; the RNG-bound MC engine is "
            "~85-90% of each op"},
    {"name": "cli-session",
     "why": "seeded script of `python -m nvforge.cli` subprocesses (fixtures, scan, odmr, sense, implant, decay, "
            "fit); import and scan/writer layers dominate"},
]

# (name, unit, better, bound): the bound is the share of the parent's median
# a change may lose before it counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_latency_p50_s", "s", "lower", 0.2),
    ("op_latency_p90_s", "s", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.body_s", "s", "lower"),
    ("engines.decay_time_grid.s", "s", "lower"),
    ("engines.decay_time_grid.calls", "count", "lower"),
    ("engines.simulate_analytic.s", "s", "lower"),
    ("engines.simulate_analytic.points", "count", "higher"),
    ("engines.simulate_analytic.us_per_cell", "us", "lower"),
    ("engines.simulate_mc.s", "s", "lower"),
    ("engines.simulate_mc.traj_points_per_s", "1/s", "higher"),
    ("engines.simulate_mc.rms_max", "1", "lower"),
    ("engines.simulate_mc.z_max", "1", "lower"),
    ("fitkit.fit.s", "s", "lower"),
    ("fitkit.fit.calls", "count", "lower"),
    ("fitkit.fit.lm_iters", "count", "lower"),
    ("fitkit.fit.converged_ratio", "ratio", "higher"),
    ("fitkit.fit_envelope.s", "s", "lower"),
    ("scan.detect_spots.s", "s", "lower"),
    ("scan.purity_report.s", "s", "lower"),
    ("scan.film_thickness.s", "s", "lower"),
    ("scan.identify_peaks.s", "s", "lower"),
    ("scan.charge_ratio.s", "s", "lower"),
    ("dataio.write.s", "s", "lower"),
    ("dataio.write.bytes", "B", "lower"),
    ("dataio.read.s", "s", "lower"),
    ("dataio.read.bytes", "B", "lower"),
    ("fixtures.s", "s", "lower"),
    ("presets.noise_preset.s", "s", "lower"),
    ("spincore.odmr_spectrum.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("failed_ratio", "ratio", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write(path: Path) -> None:
    Path(path).write_text(json.dumps(benchmark_json(), indent=2) + "\n")
