"""Seeded op lists for the three workloads, and how each op runs and is checked.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  A run is a whole number of *blocks* of
fixed composition, and every continuous parameter is stratified over the
run, so two seeds differ in parameters and order but hardly in how much
of each kind of work they do.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("decay-sweep", "engine-crosscheck", "cli-session")

#: Seconds one block took, checks and speed probes included, when this
#: benchmark was added (2-core x86 VM, Python 3.11).  A run of S seconds is
#: round(S / BLOCK_S) blocks, so the op count is fixed by --seconds and
#: does not shrink or grow with the code's speed.
BLOCK_S = {"decay-sweep": 2.5, "engine-crosscheck": 1.7, "cli-session": 13.5}

# decay-sweep block: (sequence, CPMG n range, ops per block).  Most ops are
# small; one op per block is the n = 128-256 tail.
DECAY_CLASSES = (
    ("ramsey", None, 1), ("hahn", None, 1), ("xy4", None, 1), ("xy8", None, 1),
    ("cpmg", (1, 16), 10), ("cpmg", (17, 64), 5), ("cpmg", (65, 127), 1), ("cpmg", (128, 256), 1),
)
CROSSCHECK_SEQUENCES = (("ramsey", None), ("hahn", None), ("xy4", None), ("xy8", None), ("cpmg", (1, 16)))
CROSSCHECK_REGIMES = (0.1, 1.0, 10.0)  # b * tau_c of acceptance criterion 1
MC_TRAJECTORIES = 20000
PAPER_LIKE_N = (1, 4, 8, 16, 32, 64)
SLOW_BATH_N = (4, 8, 16, 32, 64)


def n_blocks(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BLOCK_S[workload]))


class _Strata:
    """Stratified uniforms: draw k of the run's B values lands in stratum perm[k]."""

    def __init__(self, rng: np.random.Generator, count: int):
        self.values = (rng.permutation(count) + rng.random(count)) / count
        self.next = 0

    def take(self) -> float:
        self.next += 1
        return float(self.values[self.next - 1])


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _log_int(u: float, lo: int, hi: int) -> int:
    return min(hi, int(math.floor(_log_uniform(u, lo, hi + 1))))


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def make_ops(workload: str, seed: int, blocks: int) -> list[dict]:
    """The op list of one run: same (workload, seed, blocks), same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    maker = {"decay-sweep": _decay_sweep, "engine-crosscheck": _crosscheck, "cli-session": _cli_session}
    ops = maker[workload](rng, blocks)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def _decay_sweep(rng, blocks):
    # Every parameter is stratified within each class, so a class costs
    # about the same in every run.
    strata = [
        {name: _Strata(rng, blocks * count) for name in ("n", "btc", "tau", "t1", "q", "pts")}
        for _, _, count in DECAY_CLASSES
    ]
    t1_on = [iter(rng.permutation(np.arange(blocks * count) % 2 == 0)) for _, _, count in DECAY_CLASSES]
    fid = {name: _Strata(rng, blocks) for name in ("delta", "a", "t2", "len")}
    ops = []
    for b in range(blocks):
        block = []
        for key, (kind, n_range, count) in enumerate(DECAY_CLASSES):
            draw = strata[key]
            for _ in range(count):
                n = _log_int(draw["n"].take(), *n_range) if n_range else None
                btc = _log_uniform(draw["btc"].take(), 0.1, 10.0)
                tau_c = _log_uniform(draw["tau"].take(), 1e-6, 1e-3)
                # Rough T2 from the motional-narrowing / quasi-static limits.
                t2_est = tau_c / btc**2 if btc < 1.0 else tau_c / btc
                t1 = t2_est * _log_uniform(draw["t1"].take(), 3.0, 100.0)
                q = 1.0 + 0.5 * draw["q"].take()
                t1_flag = bool(next(t1_on[key]))
                block.append({
                    "kind": "decay", "seq": kind, "n": n, "b": btc / tau_c, "tau_c": tau_c,
                    "t1": t1 if t1_flag else None, "q": q if t1_flag else 1.0,
                    "n_points": 16 + int(25 * draw["pts"].take()),
                })
        doublet = bool(b % 2)
        block.append({
            "kind": "fid",
            "detuning_hz": _log_uniform(fid["delta"].take(), 30e6, 70e6),
            "a_hf_hz": 1.5e6 + 1.5e6 * fid["a"].take(),
            "multiplicities": [[-0.5, 0.5], [0.5, 0.5]] if doublet else [[-1.0, 1 / 3], [0.0, 1 / 3], [1.0, 1 / 3]],
            "t2_star_s": 2e-6 + 3e-6 * fid["t2"].take(),
            "n_samples": 5000 + int(2000 * fid["len"].take()),
            "dt_s": 2e-9,
        })
        block.append({"kind": "t2_vs_n", "preset": "paper-like", "n_list": list(PAPER_LIKE_N),
                      "n_points": int(rng.integers(24, 49))})
        block.append({"kind": "t2_vs_n", "preset": "slow-bath", "n_list": list(SLOW_BATH_N),
                      "n_points": int(rng.integers(24, 49))})
        for i in rng.permutation(len(block)):
            ops.append(block[i])
    return ops


def _crosscheck(rng, blocks):
    per_block = len(CROSSCHECK_SEQUENCES) * len(CROSSCHECK_REGIMES)
    n_strata = _Strata(rng, blocks * len(CROSSCHECK_REGIMES))
    jitter = _Strata(rng, blocks * per_block)
    tau = _Strata(rng, blocks * per_block)
    ops = []
    for _ in range(blocks):
        block = []
        for kind, n_range in CROSSCHECK_SEQUENCES:
            for regime in CROSSCHECK_REGIMES:
                tau_c = _log_uniform(tau.take(), 0.5e-6, 2e-6)
                btc = regime * _log_uniform(jitter.take(), 0.7, 1.4)
                block.append({
                    "kind": "crosscheck", "seq": kind,
                    "n": _log_int(n_strata.take(), *n_range) if n_range else None,
                    "b": btc / tau_c, "tau_c": tau_c, "seed": _seed(rng),
                    "n_traj": MC_TRAJECTORIES, "n_times": 16,
                })
        for i in rng.permutation(len(block)):
            ops.append(block[i])
    return ops


def _cli(argv, check, expect, params=None, after=None):
    """One CLI command; "@in" in argv or params is the output dir of op ``after``."""
    return {"kind": "cli", "argv": argv, "check": check, "expect": expect,
            "params": params or {}, "after": after}


def _cli_session(rng, blocks):
    """One block is the whole script; its groups run in a seeded order.

    Within a group, later commands read the first command's outputs.
    """
    ops = []
    for _ in range(blocks):
        groups = _cli_groups(rng)
        for g in rng.permutation(len(groups)):
            first = len(ops)
            for op in groups[g]:
                if op["after"] is not None:
                    op["after"] = first
                ops.append(op)
    return ops


def _cli_groups(rng):
    spectrum_sample, ratio_sample = (str(s) for s in rng.permutation(["s1", "s2", "s3"])[:2])
    kappa = _log_uniform(rng.random(), 0.5, 2.0)
    preset = str(rng.choice(["paper-like", "slow-bath"]))
    n_times = int(rng.integers(16, 41))
    pin = bool(rng.random() < 0.5)
    bx, by = (float(v) for v in rng.uniform(-0.5e-3, 0.5e-3, 2))
    bz = float(rng.uniform(0.5e-3, 2e-3))
    n_freq = int(rng.integers(1001, 4002))
    t2_dd = _log_uniform(rng.random(), 20e-6, 500e-6)
    dose, current = _log_uniform(rng.random(), 1e11, 1e13), _log_uniform(rng.random(), 100e-12, 1000e-12)
    diameter = _log_uniform(rng.random(), 10e-6, 50e-6)
    species = str(rng.choice(["atomic", "molecular"]))
    leak, flow = _log_uniform(rng.random(), 1e-5, 1e-3), _log_uniform(rng.random(), 200.0, 800.0)
    r_a = _log_uniform(rng.random(), 10.0, 1000.0)
    r_b = r_a if rng.random() < 0.5 else r_a * _log_uniform(rng.random(), 0.3, 3.0)
    grid_csv, spectra = "@in/fig5_spot_grid.csv", [f"spectrum_{s}.csv" for s in ("s1", "s2", "s3")]
    return [
        [_cli(["fixtures", "--target", "fig5", "--seed", str(_seed(rng))], "grid", ["fig5_spot_grid.csv"]),
         _cli(["scan", "--mode", "spots", "--threshold-sigma", repr(4.0 + 2.0 * rng.random()), "--input", grid_csv],
              "spots", ["scan_spots.json"], after=0),
         _cli(["scan", "--mode", "purity", "--input", grid_csv], "purity", ["scan_purity.json"],
              {"input": grid_csv}, after=0)],
        # fig6 stays at criterion 9's seed 0: `scan depth` fails on ~5% of
        # other fixture seeds (exit 4, "found 3 rising step(s)"), e.g. 90 and
        # 140, a program defect that is reported, not measured here.
        [_cli(["fixtures", "--target", "fig6", "--seed", "0"], "profile", ["fig6_depth_profile.csv"]),
         _cli(["scan", "--mode", "depth", "--input", "@in/fig6_depth_profile.csv"], "depth", ["scan_depth.json"],
              after=0)],
        [_cli(["fixtures", "--target", "s1s2s3"], "spectra", spectra),
         _cli(["scan", "--mode", "spectrum", "--input", f"@in/spectrum_{spectrum_sample}.csv"], "zpl",
              ["scan_spectrum.json"], {"sample": spectrum_sample}, after=0),
         _cli(["scan", "--mode", "ratio", "--kappa", repr(kappa), "--input", f"@in/spectrum_{ratio_sample}.csv"],
              "ratio", ["scan_ratio.json"], {"sample": ratio_sample, "kappa": kappa}, after=0)],
        [_cli(["fixtures", "--target", "raman"], "spectra", ["raman_spectrum.csv"]),
         _cli(["scan", "--mode", "spectrum", "--input", "@in/raman_spectrum.csv"], "raman", ["scan_spectrum.json"],
              after=0)],
        [_cli(["decay", "--sequence", "hahn", "--noise-preset", preset, "--n-times", str(n_times)], "hahn",
              ["decay_analytic.csv", "decay_analytic.json"], {"preset": preset, "n_times": n_times}),
         _cli(["fit", "--input", "@in/decay_analytic.csv", "--pin-offset", str(pin).lower()], "fit",
              ["fit_result.json"], {"input": "@in/decay_analytic.csv", "pin_offset": pin}, after=0)],
        # "--flag=value": argparse reads "-7.7e-05" after a space as an option.
        [_cli(["odmr", f"--bx-t={bx!r}", f"--by-t={by!r}", f"--bz-t={bz!r}", "--n-freq", str(n_freq),
               "--zfs-d-hz", "2870000000.0", "--gamma-hz-per-t", "28024000000.0"], "odmr",
              ["odmr.csv", "odmr_lines.json"],
              {"bx_t": bx, "by_t": by, "bz_t": bz, "n_freq": n_freq, "zfs_hz": 2.87e9, "gamma": 2.8024e10})],
        [_cli(["sense", "--t2-dd-s", repr(t2_dd)], "sense", ["sensitivity.json"], {"t2_dd_s": t2_dd})],
        [_cli(["implant", "plan", "--energy-ev", "5000", "--dose-cm2", repr(dose), "--current-a", repr(current),
               "--diameter-m", repr(diameter), "--species", species], "plan", ["implant_plan.json"],
              {"dose_cm2": dose, "current_a": current, "diameter_m": diameter, "species": species})],
        [_cli(["implant", "budget", "--leak-sccm", repr(leak), "--flow-sccm", repr(flow)], "budget",
              ["nitrogen_budget.json"], {"leak_sccm": leak, "flow_sccm": flow})],
        [_cli(["scan", "--mode", "vdp", "--r-a-ohm", repr(r_a), "--r-b-ohm", repr(r_b)], "vdp", ["scan_vdp.json"],
              {"r_a": r_a, "r_b": r_b})],
    ]


# --- running ops -----------------------------------------------------------


class Setup:
    """What a workload needs before its loop: imports, presets, a checked MC."""

    def __init__(self, workload: str, seed: int):
        from nvforge import cli, dataio, engines, fitkit, presets
        from nvforge.engines import HyperfineTriplet
        from nvforge.noise import NoiseModel
        from nvforge.sequences import build_sequence

        self.workload = workload
        self.cli, self.dataio, self.engines, self.fitkit, self.presets = cli, dataio, engines, fitkit, presets
        self.HyperfineTriplet, self.NoiseModel, self.build_sequence = HyperfineTriplet, NoiseModel, build_sequence
        self.baths = {name: presets.noise_preset(name) for name in ("paper-like", "slow-bath")}
        self.mc_repeat_ok = self._mc_repeat(seed)

    def _mc_repeat(self, seed: int) -> bool:
        """One MC op run twice must give bit-identical curves and errors."""
        seq = self.build_sequence("hahn", 1e-6)
        noise = self.NoiseModel(1e6, 1e-6)
        times = self.engines.decay_time_grid(seq, noise, n_points=16)
        first, second = (self.engines.simulate_mc(seq, noise, times, MC_TRAJECTORIES, seed) for _ in range(2))
        return bool(np.array_equal(first.signal, second.signal)
                    and first.meta["mc_stderr"] == second.meta["mc_stderr"])


def python_env() -> dict:
    env = dict(os.environ)
    env.pop("NVFORGE_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def run_subprocess(argv: list[str], out_dir: Path, timeout: float = 120.0) -> dict:
    """Run one child to completion; wall time and peak RSS come from wait4.

    A child still running after ``timeout`` seconds is killed, and the op
    then fails on its exit code.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ".stdout", "w+") as stdout, open(out_dir / ".stderr", "w+") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=python_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        stdout.seek(0)
        text = stdout.read()
    return {"exit": proc.returncode, "stdout": text, "wall": wall, "rss_kb": usage.ru_maxrss}


def _resolve(value, in_dir: Path):
    """Replace an "@in/" prefix with the directory of the op this one reads from."""
    if isinstance(value, str) and value.startswith("@in/"):
        return str(in_dir / value[len("@in/"):])
    if isinstance(value, list):
        return [_resolve(v, in_dir) for v in value]
    if isinstance(value, dict):
        return {k: _resolve(v, in_dir) for k, v in value.items()}
    return value


def run_op(ctx: Setup, op: dict, work: Path, shim_spans: Path | None = None) -> tuple[float, dict]:
    """Run one op; returns (latency in seconds, outputs for the check).

    The latency covers only the call into nvforge (or the child process);
    checking happens afterwards and is not timed.
    """
    kind = op["kind"]
    if kind == "cli":
        out_dir = work / f"op{op['id']}"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        in_dir = work / f"op{op['after']}"
        if shim_spans is None:
            argv = [sys.executable, "-m", "nvforge.cli"]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "cli_shim.py"), str(shim_spans)]
        result = run_subprocess(argv + _resolve(op["argv"], in_dir) + ["--output-dir", str(out_dir)], out_dir)
        result.update(dir=out_dir, params=_resolve(op["params"], in_dir))
        return result["wall"], result
    if kind == "crosscheck":
        out_dir = work / "crosscheck"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = ["decay", "--sequence", op["seq"], "--engine", "both", "--noise-preset", "none",
                "--b-rad-s", repr(op["b"]), "--tau-c-s", repr(op["tau_c"]), "--n-times", str(op["n_times"]),
                "--n-traj", str(op["n_traj"]), "--seed", str(op["seed"]), "--output-dir", str(out_dir)]
        if op["n"] is not None:
            argv[3:3] = ["--n-pulses", str(op["n"])]
        printed = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
            code = ctx.cli.main(argv)
        latency = time.perf_counter() - started
        return latency, {"exit": code, "dir": out_dir, "stdout": printed.getvalue()}
    started = time.perf_counter()
    if kind == "decay":
        seq = ctx.build_sequence(op["seq"], 1e-6, n=op["n"])
        noise = ctx.NoiseModel(op["b"], op["tau_c"], op["t1"] or math.inf, op["q"])
        times = ctx.engines.decay_time_grid(seq, noise, n_points=op["n_points"])
        curve = ctx.engines.simulate_analytic(seq, noise, times)
        fit = ctx.fitkit.fit(curve, ctx.fitkit.FitModel.stretched_exp(), fix={"c": 0.0})
        path = work / "decay.csv"
        ctx.dataio.write_decay_csv(curve, path)
        out = {"times": curve.times_s, "signal": curve.signal, "fit": fit.as_dict(), "path": path}
    elif kind == "fid":
        mult = tuple(tuple(m) for m in op["multiplicities"])
        triplet = ctx.HyperfineTriplet(op["detuning_hz"], op["a_hf_hz"], mult)
        times = np.arange(1, op["n_samples"]) * op["dt_s"]
        curve = ctx.engines.simulate_fid_beats(triplet, op["t2_star_s"], times)
        fit = ctx.fitkit.fit_envelope(curve, mult)
        out = {"times": curve.times_s, "signal": curve.signal, "fit": fit.as_dict()}
    elif kind == "t2_vs_n":
        noise = ctx.presets.noise_preset(op["preset"])
        table = ctx.engines.t2_vs_n(noise, op["n_list"], n_points=op["n_points"])
        out = {"table": table, "b": noise.b_rad_s, "tau_c": noise.tau_c_s}
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return time.perf_counter() - started, out


def check_op(op: dict, out: dict) -> tuple[list[str], dict]:
    """(problems, quality numbers) for one op's outputs."""
    kind = op["kind"]
    if kind == "crosscheck":
        return checks.crosscheck_op(op, out)
    if kind == "cli":
        return checks.cli_op(dict(op, params=out["params"]), out), {}
    fn = {"decay": checks.decay_op, "fid": checks.fid_op, "t2_vs_n": checks.t2_vs_n_op}[kind]
    return fn(op, out), {}
