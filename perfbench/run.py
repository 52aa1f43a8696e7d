#!/usr/bin/env python3
"""Run one nvforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decay-sweep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones; with ``--trace 1`` the same ops run once untraced and
once with spans around nvforge's public functions, and the metrics are
the per-layer ones.  Every op's output is checked against
:mod:`perfbench.oracles`; ``failed`` counts ops that raised, exited
non-zero or failed a check.  ``--write-benchmark-json`` regenerates
BENCHMARK.json from :mod:`perfbench.spec`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import spec, speed, tracing, workloads  # noqa: E402

SETUP_REPEATS = 5  # set-up is timed in this many fresh processes; median reported
IMPORT_REPEATS = 3  # pairs of bare / `import nvforge.cli` interpreter starts
CHILD_TIMEOUT_S = 120.0


def _env_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": commit,
    }


def _time_to_ready(argv: list[str]) -> float:
    """Seconds from spawning ``argv`` until it prints its first line."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=workloads.python_env(), cwd=ROOT, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.communicate()
    finally:
        killer.cancel()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv} exited {proc.returncode} before getting ready")
    return ready


def _scaled(gauge: speed.Gauge, measure) -> float:
    """``measure()`` seconds times the mean speed factor just before and after."""
    before = gauge.current()
    seconds = measure()
    return seconds * (before + gauge.current()) / 2


def measure_setup(workload: str, seed: int, gauge: speed.Gauge) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    return statistics.median(_scaled(gauge, lambda: _time_to_ready(argv)) for _ in range(SETUP_REPEATS))


def measure_cli_import(gauge: speed.Gauge) -> float:
    """Median of (interpreter start + `import nvforge.cli`) - (bare interpreter start)."""
    bare = [sys.executable, "-c", "print('ready')"]
    full = [sys.executable, "-c", "import nvforge.cli; print('ready')"]
    return statistics.median(
        _scaled(gauge, lambda: _time_to_ready(full) - _time_to_ready(bare)) for _ in range(IMPORT_REPEATS))


def run_pass(ctx, ops, work: Path, gauge: speed.Gauge, recorder: tracing.Recorder | None = None) -> list[dict]:
    """Run ``ops`` in order; one record per op with latency, problems and stats.

    ``latency`` is the op's wall time times the mean of the machine-speed
    factors taken just before and just after it; ``wall`` is the raw time.
    """
    records = []
    undo = tracing.install(recorder) if recorder is not None else []
    try:
        for op in ops:
            spans_file = work / f"spans-{op['id']}.json" if recorder is not None and op["kind"] == "cli" else None
            before = gauge.current()
            if recorder is not None:
                recorder.op = op["id"]
                root = recorder.begin("op")
            started = time.perf_counter()
            try:
                latency, out = workloads.run_op(ctx, op, work, shim_spans=spans_file)
                problems, stats = workloads.check_op(op, out)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                latency, out = time.perf_counter() - started, {}
                problems, stats = [f"{type(exc).__name__}: {exc}"], {}
            finally:
                if recorder is not None:
                    recorder.end(root)
            if spans_file is not None and spans_file.exists():
                recorder.extend(json.loads(spans_file.read_text()), op["id"])
            manifest = Path(out["dir"]) / "manifest.json" if "dir" in out else None
            records.append({
                "id": op["id"], "kind": op["kind"], "wall": latency, "factor": before,
                "problems": problems, "stats": stats,
                "manifest_wall": json.loads(manifest.read_text())["wall_time_s"] if manifest and manifest.exists() else None,
                "rss_kb": out.get("rss_kb", 0),
            })
    finally:
        tracing.uninstall(undo)
    after = [r["factor"] for r in records[1:]] + [gauge.current()]
    for record, factor_after in zip(records, after):
        record["factor"] = (record["factor"] + factor_after) / 2
        record["latency"] = record["wall"] * record["factor"]
        if record["manifest_wall"] is not None:
            record["manifest_wall"] *= record["factor"]
    return records


def end_to_end(records: list[dict], setup_s: float) -> dict:
    lat = [r["latency"] for r in records]
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_mb = max((r["rss_kb"] for r in records), default=0) / 1024.0
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_latency_p50_s": statistics.median(lat),
        "op_latency_p90_s": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
        "peak_rss_mb": own_mb + child_mb,
    }


def per_layer(plain: list[dict], traced: list[dict], spans: list[list], import_s: float) -> dict:
    totals = tracing.layer_totals(spans, {r["id"]: r["factor"] for r in traced})

    def total(layer, key="self_s"):
        return totals.get(layer, {}).get(key, 0)

    cli_ops = [r for r in plain if r["manifest_wall"] is not None]
    fit_calls = total("fitkit.fit", "calls")
    mc_self = total("engines.simulate_mc")
    analytic_cells = total("engines.simulate_analytic", "cells")
    quality = [r["stats"] for r in traced + plain if r["stats"]]
    records = plain + traced
    metrics = {
        "cli.import_s": import_s,
        "cli.startup_s": sum(r["latency"] - r["manifest_wall"] for r in cli_ops),
        "cli.body_s": sum(r["manifest_wall"] for r in cli_ops),
        "engines.decay_time_grid.s": total("engines.decay_time_grid"),
        "engines.decay_time_grid.calls": total("engines.decay_time_grid", "calls"),
        "engines.simulate_analytic.s": total("engines.simulate_analytic"),
        "engines.simulate_analytic.points": total("engines.simulate_analytic", "points"),
        "engines.simulate_analytic.us_per_cell":
            1e6 * total("engines.simulate_analytic") / analytic_cells if analytic_cells else 0.0,
        "engines.simulate_mc.s": mc_self,
        "engines.simulate_mc.traj_points_per_s": total("engines.simulate_mc", "traj_points") / mc_self if mc_self else 0.0,
        "engines.simulate_mc.rms_max": max((q.get("rms", 0.0) for q in quality), default=0.0),
        "engines.simulate_mc.z_max": max((q.get("z_max", 0.0) for q in quality), default=0.0),
        "fitkit.fit.s": total("fitkit.fit"),
        "fitkit.fit.calls": fit_calls,
        "fitkit.fit.lm_iters": total("fitkit.fit", "lm_iters"),
        "fitkit.fit.converged_ratio": total("fitkit.fit", "converged") / fit_calls if fit_calls else 0.0,
        "fitkit.fit_envelope.s": total("fitkit.fit_envelope"),
        "dataio.write.s": total("dataio.write"),
        "dataio.write.bytes": total("dataio.write", "bytes"),
        "dataio.read.s": total("dataio.read"),
        "dataio.read.bytes": total("dataio.read", "bytes"),
        "fixtures.s": total("fixtures"),
        "presets.noise_preset.s": total("presets.noise_preset"),
        "spincore.odmr_spectrum.s": total("spincore.odmr_spectrum"),
        "trace.overhead_s": sum(r["latency"] for r in traced) - sum(r["latency"] for r in plain),
        "failed_ratio": sum(1 for r in records if r["problems"]) / len(records),
    }
    for layer in ("detect_spots", "purity_report", "film_thickness", "identify_peaks", "charge_ratio"):
        metrics[f"scan.{layer}.s"] = total(f"scan.{layer}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-benchmark-json", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        spec.write(ROOT / "BENCHMARK.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "nvforge" / "__init__.py").is_file():
        print(f"error: no nvforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ctx = workloads.Setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    # CLI ops and set-up are dominated by process start-up, in-process ops by compute.
    startup = speed.Gauge(lambda: speed.startup_factor(workloads.python_env()))
    gauge = startup if args.workload == "cli-session" else speed.Gauge(speed.compute_factor)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        blocks = workloads.n_blocks(args.workload, args.seconds)
        if args.trace:
            # Half the blocks, run once plain and once traced: about as long.
            ops = workloads.make_ops(args.workload, args.seed, max(1, blocks // 2))
            import_s = measure_cli_import(startup)
            plain = run_pass(ctx, ops, work, gauge)
            recorder = tracing.Recorder()
            traced = run_pass(ctx, ops, work, gauge, recorder)
            records, spans = plain + traced, recorder.spans
            metrics = per_layer(plain, traced, spans, import_s)
            units = {name: unit for name, unit, _ in spec.PER_LAYER}
        else:
            ops = workloads.make_ops(args.workload, args.seed, blocks)
            setup_s = measure_setup(args.workload, args.seed, startup)
            records, spans = run_pass(ctx, ops, work, gauge), []
            metrics = end_to_end(records, setup_s)
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["problems"]]
    for r in failed[:20]:
        print(f"op {r['id']} ({r['kind']}) failed: {'; '.join(r['problems'])}", file=sys.stderr)
    if not ctx.mc_repeat_ok:
        print("set-up check failed: one MC op run twice gave different bits", file=sys.stderr)
    env = _env_info()
    result = {
        "correct": not failed and ctx.mc_repeat_ok,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results_dir = ROOT / ".perfbench_results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "result": result, "records": records, "spans": spans}, default=str))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(ops)} "
          f"attempted={len(records)} failed={len(failed)}")
    print("# env " + json.dumps(env))
    for name, g in {"start-up": startup, "compute": gauge}.items():
        if g.samples and (name == "start-up" or g is not startup):
            print(f"# {name} speed factor: median {statistics.median(g.samples):.3f} over {len(g.samples)} probes")
    print("# times below are wall times x speed factor (see perfbench/speed.py)")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
