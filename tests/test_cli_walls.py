"""The summary of ``tools/cli_walls.py`` on hand-made wall times, and its command list."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT))

from cli_walls import COMMANDS, INPUTS, CommandFailed, format_table, run_command, summarise  # noqa: E402
from perfbench.workloads import _cli_groups  # noqa: E402

PARENT = [0.200, 0.210, 0.190, 0.205, 0.195, 0.220, 0.180, 0.200, 0.215]  # quartiles 0.195-0.210


def test_a_candidate_faster_by_a_fixed_factor_reads_that_ratio_in_every_quartile():
    rows = summarise({"A": {"decay": PARENT}, "B": {"decay": [0.9 * v for v in PARENT]}})
    ratio = rows["decay"]["ratio"]
    assert (ratio["median"], ratio["q1"], ratio["q3"]) == pytest.approx((0.9, 0.9, 0.9))
    assert (rows["decay"]["A"]["median"], rows["decay"]["A"]["q1"], rows["decay"]["A"]["q3"]) == (0.2, 0.195, 0.21)
    assert rows["decay"]["B"]["median"] == pytest.approx(0.18)


def test_the_ratio_is_taken_pair_by_pair_not_from_the_medians():
    # B is A's list reversed: the same median, but the pairs' ratios spread.
    rows = summarise({"A": {"fit": PARENT}, "B": {"fit": PARENT[::-1]}})
    assert rows["fit"]["A"]["median"] == rows["fit"]["B"]["median"]
    ratios = [b / a for a, b in zip(PARENT, PARENT[::-1])]
    assert rows["fit"]["ratio"]["values"] == ratios
    assert rows["fit"]["ratio"]["median"] == float(np.median(ratios))


def test_the_all_row_pools_every_pair():
    walls = {"A": {"sense": [0.05, 0.06, 0.07], "odmr": [0.15, 0.16, 0.17]},
             "B": {"sense": [0.05, 0.06, 0.07], "odmr": [0.12, 0.128, 0.136]}}
    rows = summarise(walls)
    assert list(rows) == ["sense", "odmr", "all"]
    assert rows["all"]["A"]["values"] == [0.05, 0.06, 0.07, 0.15, 0.16, 0.17]
    assert rows["all"]["ratio"]["values"] == pytest.approx([1.0, 1.0, 1.0, 0.8, 0.8, 0.8])
    assert rows["all"]["ratio"]["median"] == pytest.approx(0.9)


def test_an_a_a_control_reads_one():
    rows = summarise({"A": {"vdp": PARENT}, "B": {"vdp": list(PARENT)}})
    assert rows["vdp"]["ratio"]["median"] == rows["vdp"]["ratio"]["q1"] == rows["vdp"]["ratio"]["q3"] == 1.0
    table = format_table(rows).splitlines()
    assert table[1].split() == ["vdp", "200.0", "(195.0-210.0)", "200.0", "(195.0-210.0)", "1.000", "(1.000-1.000)"]
    assert table[2].startswith("all ")


def test_unpaired_wall_times_are_refused():
    with pytest.raises(ValueError):
        summarise({"A": {"fit": PARENT}, "B": {"fit": PARENT[:-1]}})


def _kind(argv):
    """Command with its action, mode or target: ``scan spectrum``, ``fixtures fig5``."""
    picks = [argv[i + 1] for i, a in enumerate(argv) if a in ("--mode", "--target")]
    return " ".join([argv[0], *(argv[1:2] if argv[0] == "implant" else picks)])


def test_one_command_per_cli_session_op():
    ops = [op for group in _cli_groups(np.random.default_rng(1)) for op in group]
    assert len(COMMANDS) == len(ops) == 17
    assert Counter(map(_kind, COMMANDS.values())) == Counter(_kind(op["argv"]) for op in ops)
    inputs = {arg.split("/")[1] for argv in COMMANDS.values() for arg in argv if arg.startswith("in/")}
    assert inputs == set(INPUTS)


def test_a_command_that_does_not_exit_0_stops_the_run(tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    wall = run_command(tmp_path, COMMANDS["scan vdp"], tmp_path / "out")
    assert wall > 0 and (tmp_path / "out" / "scan_vdp.json").exists()
    with pytest.raises(CommandFailed, match="exit 2 from decay --n-times 0: error: a decay curve needs"):
        run_command(tmp_path, ["decay", "--n-times", "0"], tmp_path / "out")
