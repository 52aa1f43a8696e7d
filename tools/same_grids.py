#!/usr/bin/env python3
"""Check that two revisions build the same decay-time grids, pass by pass, in no more kernel calls.

    python3 tools/same_grids.py PARENT CANDIDATE     # any two git revisions

Each revision is exported as :mod:`same_bytes` exports it, and one child
process runs every pass of :func:`passes` through its
``engines._decay_time_grids``, each under a ``TIMEOUT_S`` alarm: the grids
of ``decay-sweep`` seeds 1-5, then seeded baths beyond its ranges.  A pass
records its grid bytes, or its exception type and message (or "timeout"),
and its calls of the chi kernel.  Prints each pass whose result differs and
each that takes more calls in the candidate; exits 1 if there is any.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import same_bytes as sb

#: Seconds one pass may run before it is stopped and recorded as "timeout".
TIMEOUT_S = 2


def passes():
    """(name, n, noise, n_points) of every pass, with the nvforge first on the path."""
    import numpy as np
    from nvforge import presets
    from nvforge.noise import NoiseModel
    from nvforge.sequences import build_sequence
    from perfbench.workloads import make_ops, n_blocks
    for seed in range(1, 6):
        for i, op in enumerate(make_ops("decay-sweep", seed, n_blocks("decay-sweep", 25))):
            if op["kind"] == "decay":
                noise = NoiseModel(op["b"], op["tau_c"], op["t1"] or math.inf, op["q"])
                yield f"sweep{seed}.{i}", build_sequence(op["seq"], 1e-6, n=op["n"]).n_pi, noise, op["n_points"]
            elif op["kind"] == "t2_vs_n":
                yield f"sweep{seed}.{i}", np.array(op["n_list"]), presets.noise_preset(op["preset"]), op["n_points"]
    rng = np.random.default_rng(20181)
    for i in range(2000):  # b * tau_c up to 1e45, T1 on for every other bath; the last 500 batched
        tau_c, b_tau = 10 ** rng.uniform(-12, -2), 10 ** rng.uniform(-3, 45)
        t1 = tau_c * 10 ** rng.uniform(-2, 4) if i % 2 else math.inf
        n = rng.integers(1, 2049, 6) if i >= 1500 else int(rng.choice([0, 1, 2, 4, 8, rng.integers(1, 2049)]))
        yield f"wide{i}", n, NoiseModel(b_tau / tau_c, tau_c, t1, rng.uniform(0.5, 3.0)), 24
    for i in range(400):  # no coupling: subnormal tau_c, then tau_c near the largest float
        tau_c = int(rng.integers(1, 200)) * 5e-324 if i < 200 else 10 ** rng.uniform(290, math.log10(1.6e308))
        noise = NoiseModel(0.0, tau_c, tau_c * 10 ** rng.uniform(*(0, 3) if i < 200 else (-1, 1)), rng.uniform(0.5, 3.0))
        yield f"{'subnormal' if i < 200 else 'huge'}{i % 200}", int(rng.choice([0, 1, 8])), noise, 24


def run_passes() -> dict[str, tuple]:
    """Pass name -> (grid bytes, or (exception type, message), or "timeout"; chi kernel calls)."""
    from nvforge import engines
    kernel, calls, results = engines._chi, [], {}
    engines._chi = lambda *args: calls.append(1) or kernel(*args)
    signal.signal(signal.SIGALRM, sb._stop)
    for name, n, noise, n_points in passes():
        calls.clear()
        try:
            signal.alarm(TIMEOUT_S)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = b"".join(grid.tobytes() for grid in engines._decay_time_grids(n, noise, n_points))
        except sb.StepTimeout:
            result = "timeout"
        except Exception as exc:
            result = (type(exc).__name__, str(exc))
        finally:
            signal.alarm(0)
        results[name] = (result, len(calls))
    return results


def run_revision(rev: str, root: Path) -> dict[str, tuple]:
    sb.export(rev, root)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(Path(__file__).parent), str(sb.REPO)])}
    code = "import pickle, sys, same_grids; pickle.dump(same_grids.run_passes(), sys.stdout.buffer)"
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, stdout=subprocess.PIPE, check=True)
    return pickle.loads(done.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: same_grids.py PARENT CANDIDATE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        parent, candidate = (run_revision(rev, Path(tmp) / f"rev{i}") for i, rev in enumerate(argv))
    bad = fewer = 0
    for name, (want, want_calls) in parent.items():
        got, got_calls = candidate[name]
        fewer += got_calls < want_calls
        if got != want or got_calls > want_calls:
            bad += 1
            shown = [r if isinstance(r, (str, tuple)) else "grid" for r in (want, got)]
            print(f"DIFF {name}: {'same' if got == want else 'result'}, calls {want_calls} -> {got_calls}; "
                  f"parent {shown[0]}, candidate {shown[1]}")
    ended = [name for name in parent if "timeout" not in (parent[name][0], candidate[name][0])]
    for side, results in (("parent", parent), ("candidate", candidate)):
        refused = sum(not isinstance(r, bytes) for r, _ in results.values())
        counts = [results[name][1] for name in ended]
        print(f"{side}: {len(results)} passes, {refused} refused; on the {len(ended)} passes that end on both "
              f"sides, kernel calls mean {sum(counts) / len(counts):.3f}, max {max(counts)}")
    print(f"{bad} passes differ or take more calls, {fewer} take fewer")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
