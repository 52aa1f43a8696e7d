#!/usr/bin/env python3
"""Check that two revisions of nvforge give the same CLI results, byte for byte.

    python3 tools/same_bytes.py PARENT CANDIDATE     # any two git revisions

Each revision is exported with ``git archive`` into a temporary directory
and runs the steps of :func:`script`, one ``python -m nvforge.cli``
subprocess each; the step names are the list of cases.  Per step, the exit
code, stdout, stderr (with the export directory replaced by ``<ROOT>``) and
every output file except ``manifest.json`` are compared; a step still
running after ``TIMEOUT_S`` seconds is stopped and counts as a difference.
Prints each difference, and for each output file that differs the largest
relative difference between the numbers at the same place of the two
files, or "structure differs" when the text around the numbers is not the
same; exits 1 if there is any difference, 0 otherwise.

``tests/test_same_bytes.py`` runs the same steps in process against a
checked-in digest table.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (0, 5, 12345)
FIT_MODELS = ("exp_t2star", "stretched_exp", "t1_stretched", "fid_beats")
FIXTURES = ("fig5", "fig6", "fig7", "fig9", "raman", "s1s2s3", "table2")
#: Seconds one command may run before it is stopped and reported as a difference.
TIMEOUT_S = 120


def csv_text(header: str, rows) -> str:
    """A CSV input file: the header line, then each row's values as ``repr``."""
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def depth_steps(top: int, bad: float | None = None) -> list[tuple[float, float]]:
    """400-sample depth profile: 0 -> 100 counts at z = 50 um, -> 400 in the last
    ``top`` samples; sample 200 is ``bad`` if given."""
    rows = [(0.5 * i, 100.0 * (i >= 100) + 300.0 * (i >= 400 - top)) for i in range(400)]
    if bad is not None:
        rows[200] = (100.0, bad)
    return rows


def spot_grid(bad: float) -> list[tuple[float, float, float]]:
    """16x16 long-format scan grid: 5 counts, 500 on a 13-pixel spot and ``bad``
    at one pixel."""
    def counts(x, y):
        return bad if (x, y) == (2, 12) else 500.0 if abs(x - 8) + abs(y - 8) <= 2 else 5.0
    return [(float(x), float(y), counts(x, y)) for y in range(16) for x in range(16)]


def nv_spectrum_with_nan() -> list[tuple[float, float]]:
    """550-669.75 nm in 0.25 nm steps: the two NV ZPLs (575 and 637 nm) on 50
    counts, with sample 300 NaN."""
    def counts(wl):
        return 50.0 + sum(1000.0 / (1.0 + ((wl - c) / 1.5) ** 2) for c in (575.0, 637.0))
    return [(550.0 + 0.25 * i, math.nan if i == 300 else counts(550.0 + 0.25 * i)) for i in range(480)]


#: Input files written into each export before the script runs: name -> text.
INPUT_FILES = {
    "implant_budget.cfg": "action = budget\n",
    "depth_step_at_end.csv": csv_text("z_um,counts", depth_steps(2)),
    "depth_sharp_step.csv": csv_text("z_um,counts", depth_steps(6)),
    "depth_nan.csv": csv_text("z_um,counts", depth_steps(100, bad=math.nan)),
    "decay_nan.csv": csv_text("time_s,signal",
                              [(1e-6 * (i + 1), math.nan if i == 5 else math.exp(-i / 3)) for i in range(12)]),
    "spectrum_nan.csv": csv_text("wavelength_nm,counts", nv_spectrum_with_nan()),
    "grid_inf.csv": csv_text("x_um,y_um,counts", spot_grid(math.inf)),
    "grid_nan.csv": csv_text("x_um,y_um,counts", spot_grid(math.nan)),
}
#: A number as the CSV and JSON writers print it.
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan|Infinity|NaN)")


#: (step name, argv) of options that are nan or inf: each exits 2 before its command runs.
NON_FINITE_OPTIONS = [
    ("sense_t2_star_inf", ["sense", "--t2-star-s", "inf"]),
    ("sense_t2_dd_nan", ["sense", "--t2-dd-s", "nan"]),
    ("budget_leak_nan", ["implant", "budget", "--leak-sccm", "nan"]),
    ("plan_dose_inf", ["implant", "plan", "--dose-cm2", "inf"]),
    ("decay_t1_q_inf", ["decay", "--t1-s", "1e-3", "--t1-q", "inf"]),
]


def script() -> list[tuple[str, list[str]]]:
    """(step name, argv); step ``x`` writes to ``out/x``, later steps read it."""
    steps = [
        ("odmr", ["odmr", "--bz-t", "1.6e-3"]),
        ("hahn", ["decay", "--sequence", "hahn", "--engine", "both"]),
        ("hahn_cfg", ["decay", "--config", "configs/decay_hahn_paper_like.cfg"]),
        ("sense", ["sense", "--config", "configs/sense_paper_ideal.cfg"]),
        ("plan", ["implant", "plan", "--energy-ev", "5000", "--current-a", "500e-12",
                  "--diameter-m", "25e-6", "--dose-cm2", "1e12"]),
        ("budget", ["implant", "budget", "--leak-sccm", "2.4e-4", "--flow-sccm", "400"]),
        ("vdp", ["scan", "--mode", "vdp", "--r-a-ohm", "100", "--r-b-ohm", "100"]),
        ("odmr_cfg", ["odmr", "--config", "configs/odmr_16g_z.cfg"]),
        ("cpmg64", ["decay", "--sequence", "cpmg", "--n-pulses", "64"]),
        ("cpmg7", ["decay", "--sequence", "cpmg", "--n-pulses", "7"]),
        ("xy4", ["decay", "--sequence", "xy4"]),
        ("xy8_slow_both", ["decay", "--sequence", "xy8", "--noise-preset", "slow-bath",
                           "--engine", "both", "--n-traj", "4000"]),
        ("ramsey_t1", ["decay", "--sequence", "ramsey", "--noise-preset", "none", "--b-rad-s", "1e6",
                       "--tau-c-s", "1e-6", "--t1-s", "2e-6", "--t1-q", "1.5"]),
        ("hahn_linear_mc", ["decay", "--sequence", "hahn", "--t-min-s", "1e-7", "--t-max-s", "2e-5",
                            "--grid", "linear", "--engine", "mc", "--n-traj", "5000"]),
    ]
    for seed in SEEDS:
        steps += [(f"{t}_{seed}", ["fixtures", "--target", t, "--seed", str(seed)]) for t in FIXTURES]
        scans = [
            ("spots", f"fig5_{seed}/fig5_spot_grid.csv"),
            ("purity", f"fig5_{seed}/fig5_spot_grid.csv"),
            ("depth", f"fig6_{seed}/fig6_depth_profile.csv"),
            ("spectrum", f"raman_{seed}/raman_spectrum.csv"),
            ("ratio", f"raman_{seed}/raman_spectrum.csv"),
        ]
        for mode in ("spectrum", "ratio"):
            scans += [(mode, f"s1s2s3_{seed}/spectrum_{s}.csv") for s in ("s1", "s2", "s3")]
        steps += [
            (f"scan_{mode}_{Path(src).stem}_{seed}", ["scan", "--mode", mode, "--input", f"out/{src}"])
            for mode, src in scans
        ]
    steps += [
        ("plan_chopped", ["implant", "plan", "--chopper-pulse-s", "1e-4", "--species", "molecular"]),
        ("sense_preset_spot", ["sense", "--aleph-ppm", "5", "--contrast", "0.5"]),
        ("sense_dc_only", ["sense", "--preset", "none", "--aleph-ppm", "1", "--volume-m3", "1e-18",
                           "--rate-cps", "1e5", "--contrast", "0.03", "--t2-star-s", "1e-6"]),
        ("scan_spots_none", ["scan", "--mode", "spots", "--threshold-sigma", "1e6",
                             "--input", "out/fig5_0/fig5_spot_grid.csv"]),
        ("hahn_mc_upper", ["decay", "--engine", "MC", "--sequence", "HAHN"]),
        ("fixtures_fig99", ["fixtures", "--target", "fig99"]),
        ("implant_upper", ["implant", "PLAN"]),
        ("grid_linaer", ["decay", "--grid", "linaer", "--t-min-s", "1e-7", "--t-max-s", "1e-5"]),
        ("cpmg256", ["decay", "--sequence", "cpmg", "--n-pulses", "256"]),
        ("cpmg256_slow", ["decay", "--sequence", "cpmg", "--n-pulses", "256", "--noise-preset", "slow-bath"]),
        ("grid_no_decay", ["decay", "--noise-preset", "none", "--b-rad-s", "0", "--tau-c-s", "1e-6"]),
        ("grid_overflow", ["decay", "--sequence", "hahn", "--noise-preset", "none", "--b-rad-s", "1e200",
                           "--tau-c-s", "1e-6"]),
        ("grid_t1_overflow", ["decay", "--sequence", "hahn", "--noise-preset", "none", "--b-rad-s", "0",
                              "--tau-c-s", "1e-6", "--t1-s", "1e-6", "--t1-q", "2000"]),
        ("negative_time_analytic", ["decay", "--t-min-s=-1e-6", "--t-max-s", "1e-5", "--grid", "linear",
                                    "--engine", "analytic", "--n-times", "3"]),
        ("negative_time_log", ["decay", "--t-min-s=-1e-6", "--t-max-s", "1e-5"]),
        ("nan_time_linear", ["decay", "--t-min-s", "nan", "--t-max-s", "1e-5", "--grid", "linear",
                             "--n-times", "3", "--engine", "analytic"]),
        ("plan_diameter_tiny", ["implant", "plan", "--diameter-m", "1e-300"]),
        ("plan_diameter_huge", ["implant", "plan", "--diameter-m", "1e300"]),
        ("vdp_huge", ["scan", "--mode", "vdp", "--r-a-ohm", "1e300", "--r-b-ohm", "100"]),
        ("implant_action_cfg", ["implant", "--config", "implant_budget.cfg"]),
        ("odmr_bz_huge", ["odmr", "--bz-t", "1e300"]),
        ("odmr_bx_huge", ["odmr", "--bx-t", "1e200"]),
        ("odmr_linewidth_tiny", ["odmr", "--linewidth-hz", "1e-300"]),
        ("cpmg64_mc", ["decay", "--sequence", "cpmg", "--n-pulses", "64", "--engine", "mc",
                       "--n-traj", "20000"]),
        ("odmr_f_max_inf", ["odmr", "--f-max-hz", "inf"]),
        ("cpmg100_both", ["decay", "--sequence", "cpmg", "--n-pulses", "100", "--engine", "both",
                          "--n-traj", "4096"]),
    ]
    t1_overflow = ["decay", "--noise-preset", "none", "--b-rad-s", "1e5", "--tau-c-s", "1e-6",
                   "--t1-s", "1e-300", "--t1-q", "2", "--t-min-s", "1e-6", "--t-max-s", "1e-5",
                   "--grid", "linear", "--n-times", "3"]
    steps += [(f"t1_overflow_{engine}", [*t1_overflow, "--engine", engine])
              for engine in ("analytic", "mc")]
    steps.append(("preset_b_rad_s", ["decay", "--noise-preset", "paper-like", "--b-rad-s", "1e6"]))
    steps.append(("t1_q_without_t1_s", ["decay", "--t1-q", "2.5"]))
    steps += [(f"grid_ramsey_b{b}", ["decay", "--sequence", "ramsey", "--noise-preset", "none",
                                     "--b-rad-s", b, "--tau-c-s", "1e-6"]) for b in ("5e14", "1e16")]
    steps.append(("grid_underflow", ["decay", "--noise-preset", "none", "--b-rad-s", "0",
                                     "--tau-c-s", "5e-324", "--t1-s", "5e-324"]))
    steps.append(("scan_depth_step_at_end", ["scan", "--mode", "depth", "--input", "depth_step_at_end.csv"]))
    steps += [(f"vdp_{name}", ["scan", "--mode", "vdp", "--r-a-ohm", r_a, "--r-b-ohm", r_b])
              for name, r_a, r_b in (("overflow", "5e307", "5e307"), ("tiny", "1e-300", "1e-300"),
                                     ("subnormal_ratio", "1e-320", "1"), ("ratio_1e16", "1", "1e16"),
                                     ("ratio_underflow", "5e-324", "1e300"))]
    steps.append(("hahn_both_tail_chunk", ["decay", "--engine", "both", "--n-traj", "16836"]))
    steps += [(f"scan_{mode}_{Path(src).stem}", ["scan", "--mode", mode, "--input", src])
              for mode, src in (("depth", "depth_sharp_step.csv"), ("depth", "depth_nan.csv"),
                                ("spectrum", "spectrum_nan.csv"), ("ratio", "spectrum_nan.csv"),
                                ("spots", "grid_inf.csv"), ("spots", "grid_nan.csv"))]
    steps.append(("fit_decay_nan", ["fit", "--input", "decay_nan.csv"]))
    steps += NON_FINITE_OPTIONS
    steps.append(("hahn_n_pulses", ["decay", "--sequence", "hahn", "--n-pulses", "5"]))
    steps.append(("sense_contrast_2", ["sense", "--preset", "none", "--aleph-ppm", "1", "--volume-m3", "1e-18",
                                       "--rate-cps", "1e5", "--contrast", "2", "--t2-star-s", "1e-6"]))
    for seed in (90, 140):
        steps += [
            (f"fig6_{seed}", ["fixtures", "--target", "fig6", "--seed", str(seed)]),
            (f"scan_depth_fig6_{seed}", ["scan", "--mode", "depth",
                                         "--input", f"out/fig6_{seed}/fig6_depth_profile.csv"]),
        ]
    curves = ["hahn/decay_analytic.csv"] + [f"fig7_0/fig7_cpmg{n:02d}.csv" for n in (4, 8, 16, 32, 64)]
    for curve in curves:
        stem = curve.replace("/", "_").removesuffix(".csv")
        steps += [(f"fit_{model}_{stem}", ["fit", "--input", f"out/{curve}", "--model", model])
                  for model in FIT_MODELS]
    # Decay grids whose crossings are hardest to guess: a bracket that the 80
    # bisection steps do not close (b * tau_c = 1e8), a window set by T1, CPMG(2048).
    steps += [
        ("grid_ramsey_b1e14", ["decay", "--sequence", "ramsey", "--noise-preset", "none", "--b-rad-s", "1e14",
                               "--tau-c-s", "1e-6"]),
        ("grid_t1_dominated", ["decay", "--sequence", "xy8", "--noise-preset", "none", "--b-rad-s", "1e3",
                               "--tau-c-s", "1e-6", "--t1-s", "1e-5", "--t1-q", "1.5"]),
        ("cpmg2048", ["decay", "--sequence", "cpmg", "--n-pulses", "2048"]),
    ]
    sense = ["sense", "--preset", "none", "--contrast", "0.5"]
    steps += [
        ("sense_shots_underflow", [*sense, "--aleph-ppm", "1", "--volume-m3", "1e-18", "--rate-cps", "1e-300",
                                   "--t2-star-s", "1e-300"]),
        ("sense_centers_overflow", [*sense, "--aleph-ppm", "1e300", "--volume-m3", "1e300", "--rate-cps", "1",
                                    "--t2-star-s", "1e-6"]),
        ("sense_ac_overflow", ["sense", "--t2-star-s", "1e-300", "--t2-dd-s", "1e300"]),
    ]
    # Overflows: chi and b * b at b = 1e200, only the MC engine's b * b at
    # 2e154; a decay that starts below the smallest time the grid bisection reaches.
    overflow = ["decay", "--noise-preset", "none", "--b-rad-s", "1e200", "--tau-c-s", "1e-6",
                "--t-min-s", "1e-7", "--t-max-s", "1e-5"]
    steps += [
        ("decay_overflow_analytic", overflow),
        ("decay_overflow_mc", [*overflow, "--engine", "mc", "--n-traj", "10"]),
        ("decay_mc_b_squared_overflow", ["decay", "--engine", "both", "--n-traj", "100", "--noise-preset", "none",
                                         "--b-rad-s", "2e154", "--tau-c-s", "1e-6", "--t-min-s", "1e-160",
                                         "--t-max-s", "1e-150"]),
    ]
    steps += [(f"grid_ramsey_b{b}", ["decay", "--sequence", "ramsey", "--noise-preset", "none",
                                     "--b-rad-s", b, "--tau-c-s", "1e-6"]) for b in ("1e30", "1e32")]
    # No coupling where t / tau_c overflows: a signal of exactly 1 from either engine.
    no_coupling = ["decay", "--noise-preset", "none", "--b-rad-s", "0", "--tau-c-s", "1e-300",
                   "--t-min-s", "1e-6", "--t-max-s", "1e10", "--n-times", "3"]
    steps += [
        ("decay_no_coupling_overflow_analytic", [*no_coupling, "--engine", "analytic"]),
        ("decay_no_coupling_overflow_mc", [*no_coupling, "--engine", "mc", "--n-traj", "100"]),
    ]
    # Finite options whose result leaves the float range (exit 4 at the
    # writer) or whose value lies outside its physical range (exit 2).
    steps += [
        ("plan_current_subnormal", ["implant", "plan", "--current-a=5e-324"]),
        ("budget_leak_huge", ["implant", "budget", "--leak-sccm=1.7e308"]),
        ("budget_flow_subnormal", ["implant", "budget", "--flow-sccm=5e-324"]),
        ("budget_incorporation_huge", ["implant", "budget", "--incorporation-rate=1.7e308"]),
        ("odmr_linewidth_subnormal", ["odmr", "--linewidth-hz=5e-324"]),
    ]
    return steps


def export(rev: str, root: Path) -> None:
    """Extract the files of revision ``rev`` into the new directory ``root``."""
    root.mkdir()
    archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(root)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"git archive {rev} failed")


def run_revision(rev: str, root: Path) -> dict[str, tuple]:
    """Export ``rev`` into ``root``, run the script there, collect the results."""
    export(rev, root)
    for name, text in INPUT_FILES.items():
        (root / name).write_text(text)
    env = {k: v for k, v in os.environ.items() if k not in ("NVFORGE_SEED", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(root / "src")
    results = {}
    for name, argv in script():
        out = root / "out" / name
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nvforge.cli", *argv, "--output-dir", f"out/{name}"],
                cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            results[name] = ("timeout", "", f"stopped after {TIMEOUT_S} s", {})
            continue
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.name != "manifest.json"}
        results[name] = (
            proc.returncode,
            proc.stdout.replace(str(root), "<ROOT>"),
            proc.stderr.replace(str(root), "<ROOT>"),
            files,
        )
    return results


def number_difference(a: bytes, b: bytes) -> str:
    """Largest relative difference between the numbers at the same place of two files."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return "structure differs"
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            rel = abs(x - y) / max(abs(x), abs(y))
            worst = max(worst, math.inf if math.isnan(rel) else rel)
    return f"largest relative difference {worst:.3g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_bytes.py PARENT CANDIDATE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent, candidate = (run_revision(rev, Path(tmp) / f"rev{i}") for i, rev in enumerate(argv))
    n_diff = 0
    for name, a in parent.items():
        b = candidate[name]
        diffs = ["timeout"] if "timeout" in (a[0], b[0]) else []
        diffs += [what for what, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
        diffs += [f"file {f}" for f in sorted(a[3] | b[3]) if a[3].get(f) != b[3].get(f)]
        if diffs:
            n_diff += 1
            print(f"DIFF {name}: {', '.join(diffs)}")
            for side, (code, _, err, _) in (("parent", a), ("candidate", b)):
                print(f"  {side:<9} exit {code}: {err.strip()[-300:]}")
            for f in sorted(a[3].keys() & b[3].keys()):
                if a[3][f] != b[3][f]:
                    print(f"  file {f}: {number_difference(a[3][f], b[3][f])}")
    codes = Counter(code for code, *_ in candidate.values())
    print(f"{len(parent)} commands (candidate exit codes {dict(sorted(codes.items(), key=str))}), "
          f"{n_diff} with differences")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
