#!/usr/bin/env python3
"""Time one CLI command of each ``cli-session`` kind on two revisions, from interpreter start.

    python3 tools/cli_walls.py PARENT CANDIDATE [--rounds N]

Each revision is exported with ``same_bytes.export`` into its own temporary
directory, where the input files the scans and the fit read are made once
(:data:`INPUTS`).  Each round then runs every command of :data:`COMMANDS`,
one per op kind of perfbench's ``cli-session``, as ``python -m nvforge.cli``
on both sides, one pair at a time: the parent goes first in even pairs and
second in odd ones.  A command's wall time runs from just before its child
starts to ``os.wait4`` reaping it.

Prints, per command and over all of them, each side's median and quartiles
in ms and the candidate/parent ratio's median and quartiles over the pairs.
Exits 1 if any command does not exit 0 on either side.  With ``PARENT`` equal
to ``CANDIDATE`` the run is an A/A control of the spread.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pair import summary
from same_bytes import export

#: Input-file directory -> the command that writes it, run once per side.
INPUTS = {
    "fig5": ["fixtures", "--target", "fig5", "--seed", "1"],
    "fig6": ["fixtures", "--target", "fig6", "--seed", "0"],
    "s1s2s3": ["fixtures", "--target", "s1s2s3"],
    "raman": ["fixtures", "--target", "raman"],
    "hahn": ["decay", "--sequence", "hahn", "--noise-preset", "paper-like", "--n-times", "24"],
}
#: Label -> argv; "in/" names a file of :data:`INPUTS`.
COMMANDS = {
    "fixtures fig5": INPUTS["fig5"],
    "scan spots": ["scan", "--mode", "spots", "--threshold-sigma", "5.0", "--input", "in/fig5/fig5_spot_grid.csv"],
    "scan purity": ["scan", "--mode", "purity", "--input", "in/fig5/fig5_spot_grid.csv"],
    "fixtures fig6": INPUTS["fig6"],
    "scan depth": ["scan", "--mode", "depth", "--input", "in/fig6/fig6_depth_profile.csv"],
    "fixtures s1s2s3": INPUTS["s1s2s3"],
    "scan spectrum (ZPL)": ["scan", "--mode", "spectrum", "--input", "in/s1s2s3/spectrum_s1.csv"],
    "scan ratio": ["scan", "--mode", "ratio", "--kappa", "1.0", "--input", "in/s1s2s3/spectrum_s2.csv"],
    "fixtures raman": INPUTS["raman"],
    "scan spectrum (Raman)": ["scan", "--mode", "spectrum", "--input", "in/raman/raman_spectrum.csv"],
    "decay hahn": INPUTS["hahn"],
    "fit": ["fit", "--input", "in/hahn/decay_analytic.csv", "--pin-offset", "false"],
    "odmr": ["odmr", "--bx-t=1e-4", "--by-t=-2e-4", "--bz-t=1.2e-3", "--n-freq", "2001"],
    "sense": ["sense", "--t2-dd-s", "1e-4"],
    "implant plan": ["implant", "plan", "--energy-ev", "5000", "--dose-cm2", "1e12", "--current-a", "3e-10",
                     "--diameter-m", "2.5e-5", "--species", "atomic"],
    "implant budget": ["implant", "budget", "--leak-sccm", "1e-4", "--flow-sccm", "400"],
    "scan vdp": ["scan", "--mode", "vdp", "--r-a-ohm", "100", "--r-b-ohm", "150"],
}


class CommandFailed(Exception):
    """A command that exited other than 0."""


def run_command(root: Path, argv: list[str], out_dir: Path) -> float:
    """Run ``python -m nvforge.cli`` in ``root`` on a fresh ``out_dir``; its wall time in seconds."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    env = {k: v for k, v in os.environ.items() if k != "NVFORGE_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    with open(root / "stderr.txt", "w+") as stderr:
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-m", "nvforge.cli", *argv, "--output-dir", str(out_dir)],
                              cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=stderr) as proc:
            _, status, _ = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            stderr.seek(0)
            raise CommandFailed(f"{root.name}: exit {proc.returncode} from {' '.join(argv)}: "
                                f"{stderr.read().strip()[-300:]}")
    return wall


def summarise(walls: dict[str, dict[str, list[float]]]) -> dict[str, dict]:
    """Per command, and over ``"all"`` of them, each side's summary and the pairs' B/A ratio's.

    ``walls[side][command]`` holds one wall time per round, sides ``"A"``
    (parent) and ``"B"`` (candidate); the ``"all"`` row pools every pair.
    """
    rows = {}
    for command in walls["A"]:
        a, b = walls["A"][command], walls["B"][command]
        rows[command] = {"A": a, "B": b, "ratio": [y / x for x, y in zip(a, b, strict=True)]}
    rows["all"] = {key: [v for row in rows.values() for v in row[key]] for key in ("A", "B", "ratio")}
    return {command: {key: summary(values) for key, values in row.items()} for command, row in rows.items()}


def format_table(rows: dict[str, dict]) -> str:
    def ms(s):
        return f"{1e3 * s['median']:7.1f} ({1e3 * s['q1']:.1f}-{1e3 * s['q3']:.1f})"

    width = max(map(len, rows))
    lines = [f"{'command':<{width}}  {'A ms, median (quartiles)':>26}  {'B ms, median (quartiles)':>26}  B/A ratio"]
    for command, row in rows.items():
        r = row["ratio"]
        lines.append(f"{command:<{width}}  {ms(row['A']):>26}  {ms(row['B']):>26}  "
                     f"{r['median']:.3f} ({r['q1']:.3f}-{r['q3']:.3f})")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("candidate")
    parser.add_argument("--rounds", type=int, default=9, help="pairs per command (default 9)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    walls = {"A": {c: [] for c in COMMANDS}, "B": {c: [] for c in COMMANDS}}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"A": Path(tmp) / "A", "B": Path(tmp) / "B"}
        try:
            for side, rev in (("A", args.parent), ("B", args.candidate)):
                export(rev, roots[side])
                for name, inputs in INPUTS.items():
                    run_command(roots[side], inputs, roots[side] / "in" / name)
            pair = 0
            for r in range(args.rounds):
                for k, (command, cmd_argv) in enumerate(COMMANDS.items()):
                    for side in ("A", "B") if pair % 2 == 0 else ("B", "A"):
                        walls[side][command].append(run_command(roots[side], cmd_argv, roots[side] / "out" / str(k)))
                    pair += 1
                print(f"round {r + 1} of {args.rounds}", file=sys.stderr, flush=True)
        except CommandFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(f"A = {args.parent}, B = {args.candidate}, {args.rounds} alternating pairs per command")
    print(format_table(summarise(walls)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
