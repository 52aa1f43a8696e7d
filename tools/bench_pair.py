#!/usr/bin/env python3
"""Benchmark two revisions of nvforge against each other; write BENCH_<PR>.json.

    python3 tools/bench_pair.py PARENT CANDIDATE --pr 10 [--seeds 1 2 ... 10] [--workloads NAME ...]

Each revision is exported with ``git archive`` into its own temporary
directory, so each runs the benchmark harness it was committed with, at
that harness's own run length.  For every workload named by
``--workloads`` (default: every workload in ``BENCHMARK.json``) and every
seed (default: 1 to 10), ``perfbench/run.py --trace 0`` runs once
on each export, one pair at a time; the parent goes first in even pairs
and second in odd ones, so a slow drift of the machine hits both sides
alike.

``BENCH_<PR>.json`` (in the current directory) holds each side's commit and
run length; per workload and side, every run's end-to-end metrics with
their median and quartiles, ``correct`` (every run correct) and the
``failed`` op counts; per metric, the candidate/parent ratio of medians,
the number of pairs in which the candidate was better and the three
verdicts of :func:`compare` (``gain_resolved``, ``within_bound``,
``unresolved``); and the env block perfbench printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_bytes import REPO, export


def commit_of(rev: str) -> str:
    done = subprocess.run(["git", "-C", str(REPO), "rev-parse", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: its result object plus the env block."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(lines[-1])
    env = [ln.removeprefix("# env ") for ln in lines if ln.startswith("# env ")]
    result["env"] = json.loads(env[0]) if env else None
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, q3 = (median, median)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def side_report(runs: list[dict], units: dict) -> dict:
    ok = [r for r in runs if "error" not in r]
    return {
        "correct": len(ok) == len(runs) and all(r["correct"] for r in ok),
        "failed": [r["failed"] for r in ok],
        "attempted": [r["attempted"] for r in ok],
        "errors": [r["error"] for r in runs if "error" in r],
        "metrics": {
            name: {"unit": unit, **summary([r["metrics"][name]["value"] for r in ok])}
            for name, unit in units.items() if ok
        },
    }


def compare(parent: list[dict], candidate: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (name, better, bound), the candidate against the parent.

    Only pairs in which both runs succeeded count.  The verdicts:

    - ``gain_resolved``: the candidate is better in at least 9 of 10 pairs,
      and its median beats the parent's by more than the parent's quartile spread;
    - ``within_bound``: the candidate's median is worse than the parent's by
      no more than ``bound``, a fraction of the parent's median;
    - ``unresolved``: the parent's quartile spread is wider than that bound,
      so a move within the bound cannot be told from the parent's own spread.
    """
    pairs = [(p, c) for p, c in zip(parent, candidate) if "error" not in p and "error" not in c]
    out = {}
    if not pairs:
        return out
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        before = [p["metrics"][name]["value"] for p, _ in pairs]
        after = [c["metrics"][name]["value"] for _, c in pairs]
        base = summary(before)
        gain = sign * (statistics.median(after) - base["median"])
        spread = base["q3"] - base["q1"]
        better = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        out[name] = {
            "better": metric["better"],
            "ratio": statistics.median(after) / base["median"] if base["median"] else None,
            "pairs_better": better,
            "pairs": len(pairs),
            "gain_resolved": 10 * better >= 9 * len(pairs) and gain > spread,
            "within_bound": gain >= -bound * abs(base["median"]),
            "unresolved": spread > bound * abs(base["median"]),
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("candidate")
    parser.add_argument("--pr", required=True, help="number in the output name BENCH_<PR>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="workloads to run (default: every workload in BENCHMARK.json)")
    args = parser.parse_args(argv)

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workloads or ()) - set(workloads))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(workloads)}")
    workloads = args.workloads or workloads
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    report = {"seeds": args.seeds, "env": None, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {}
        for side, rev in (("parent", args.parent), ("candidate", args.candidate)):
            roots[side] = Path(tmp) / side
            export(rev, roots[side])
            seconds = json.loads((roots[side] / "BENCHMARK.json").read_text())["run_seconds"]
            report[side] = {"rev": rev, "commit": commit_of(rev), "seconds": seconds}
        for workload in workloads:
            runs = {"parent": [], "candidate": []}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "candidate") if i % 2 == 0 else ("candidate", "parent")
                for side in order:
                    run = run_once(roots[side], workload, seed)
                    runs[side].append(run)
                    report["env"] = report["env"] or run.get("env")
                    value = run.get("metrics", {}).get("ops_per_s", {}).get("value")
                    print(f"{workload} seed {seed} {side}: ops_per_s {value} "
                          f"{run.get('error', '')}".rstrip(), flush=True)
            report["workloads"][workload] = {
                side: side_report(side_runs, units) for side, side_runs in runs.items()
            } | {"compare": compare(runs["parent"], runs["candidate"], spec["end_to_end"])}

    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
