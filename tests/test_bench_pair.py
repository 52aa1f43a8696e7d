"""The verdicts of ``tools/bench_pair.py``'s ``compare`` on hand-made runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from bench_pair import compare  # noqa: E402

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.2}
P90 = {"name": "op_latency_p90_s", "better": "lower", "bound": 0.2}


def runs(name, values):
    return [{"metrics": {name: {"value": v}}} for v in values]


def verdict(metric, before, after):
    return compare(runs(metric["name"], before), runs(metric["name"], after), [metric])[metric["name"]]


PARENT = [98.0, 99.0, 100.0, 101.0, 102.0, 98.5, 99.5, 100.5, 101.5, 100.0]  # quartiles 99.125-100.875


def test_a_gain_in_every_pair_beyond_the_parents_spread_is_resolved():
    got = verdict(OPS, PARENT, [v * 1.2 for v in PARENT])
    assert got["pairs_better"] == got["pairs"] == 10
    assert got["ratio"] == pytest.approx(1.2)
    assert got["gain_resolved"] and got["within_bound"] and not got["unresolved"]


def test_a_gain_in_eight_of_ten_pairs_is_not_resolved():
    after = [v * 1.2 for v in PARENT[:8]] + [v * 0.99 for v in PARENT[8:]]
    got = verdict(OPS, PARENT, after)
    assert got["pairs_better"] == 8
    assert not got["gain_resolved"] and got["within_bound"]


def test_a_gain_in_every_pair_inside_the_parents_spread_is_not_resolved():
    # 0.5 better in every pair moves the median by 0.5, less than the spread of 1.75.
    got = verdict(OPS, PARENT, [v + 0.5 for v in PARENT])
    assert got["pairs_better"] == 10
    assert not got["gain_resolved"]


def test_the_bound_is_a_fraction_of_the_parents_median_in_the_worse_direction():
    assert verdict(OPS, PARENT, [v * 0.81 for v in PARENT])["within_bound"]
    assert not verdict(OPS, PARENT, [v * 0.79 for v in PARENT])["within_bound"]
    # Lower is better for a latency: a rise is the worse direction.
    latency = [v / 1000 for v in PARENT]
    assert verdict(P90, latency, [v * 1.19 for v in latency])["within_bound"]
    assert not verdict(P90, latency, [v * 1.21 for v in latency])["within_bound"]
    got = verdict(P90, latency, [v * 0.7 for v in latency])
    assert got["gain_resolved"] and got["within_bound"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 100.0]
    got = verdict(OPS, wide, wide)
    assert got["unresolved"] and got["within_bound"] and not got["gain_resolved"]
    assert not verdict(OPS, PARENT, PARENT)["unresolved"]


def test_a_failed_run_drops_its_pair():
    before = runs("ops_per_s", PARENT)
    after = runs("ops_per_s", [v * 1.2 for v in PARENT])
    after[3] = {"error": "exit 1: boom"}
    got = compare(before, after, [OPS])["ops_per_s"]
    assert got["pairs"] == got["pairs_better"] == 9
    assert got["gain_resolved"]
    assert compare(before, [{"error": "exit 1"}] * 10, [OPS]) == {}
