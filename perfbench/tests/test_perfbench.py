"""The benchmark's own tests: its checks must fail on wrong outputs, its op
lists must be reproducible, and BENCHMARK.json must match the spec."""

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, oracles, spec, speed, workloads  # noqa: E402
from perfbench.run import run_pass  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    return workloads.Setup("decay-sweep", seed=7)


def _first(workload, predicate, seed=7):
    return next(op for op in workloads.make_ops(workload, seed, 1) if predicate(op))


def _run(ctx, op, work):
    _, out = workloads.run_op(ctx, op, work)
    return out


def test_mc_op_repeats_bit_for_bit(ctx):
    assert ctx.mc_repeat_ok


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_depend_only_on_the_seed(workload):
    assert workloads.make_ops(workload, 3, 2) == workloads.make_ops(workload, 3, 2)
    assert workloads.make_ops(workload, 3, 2) != workloads.make_ops(workload, 4, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_share_one_composition(workload):
    def kinds(seed):
        ops = workloads.make_ops(workload, seed, 2)
        return sorted((op["kind"], op.get("seq"), op.get("preset"), op.get("check")) for op in ops)

    assert kinds(1) == kinds(2)


def test_decay_op_passes_and_a_1e4_corruption_fails(ctx, tmp_path):
    op = _first("decay-sweep", lambda op: op["kind"] == "decay" and op["seq"] == "cpmg")
    out = _run(ctx, op, tmp_path)
    assert workloads.check_op(op, out)[0] == []
    out["signal"] = out["signal"].copy()
    out["signal"][len(out["signal"]) // 2] += 1e-4
    assert any("oracle" in p for p in workloads.check_op(op, out)[0])


def test_crosscheck_catches_corrupt_analytic_and_swapped_mc_curve(ctx, tmp_path):
    ops = workloads.make_ops("engine-crosscheck", 7, 1)
    op_a = next(op for op in ops if op["seq"] == "hahn" and op["b"] * op["tau_c"] < 0.5)
    op_b = next(op for op in ops if op["seq"] == "hahn" and op["b"] * op["tau_c"] > 5)
    out_a = _run(ctx, op_a, tmp_path / "a")
    out_b = _run(ctx, op_b, tmp_path / "b")
    assert workloads.check_op(op_a, out_a)[0] == []
    assert workloads.check_op(op_b, out_b)[0] == []

    swapped = tmp_path / "swapped"
    shutil.copytree(out_a["dir"], swapped)
    for name in ("decay_mc.csv", "decay_mc.json"):
        shutil.copy(Path(out_b["dir"]) / name, swapped / name)
    assert workloads.check_op(op_a, dict(out_a, dir=swapped))[0]

    corrupt = tmp_path / "corrupt"
    shutil.copytree(out_a["dir"], corrupt)
    path = corrupt / "decay_analytic.csv"
    lines = path.read_text().splitlines()
    t, s = lines[5].split(",")
    lines[5] = f"{t},{float(s) + 1e-4!r}"
    path.write_text("\n".join(lines) + "\n")
    assert any("oracle" in p for p in workloads.check_op(op_a, dict(out_a, dir=corrupt))[0])


def test_cli_op_with_a_dropped_output_fails(ctx, tmp_path):
    op = _first("cli-session", lambda op: op["argv"][0] == "sense")
    out = _run(ctx, op, tmp_path)
    assert workloads.check_op(op, out)[0] == []
    (Path(out["dir"]) / "sensitivity.json").unlink()
    assert workloads.check_op(op, out)[0] == ["missing outputs: sensitivity.json"]


def test_an_op_that_raises_counts_as_failed(ctx, tmp_path):
    op = dict(_first("decay-sweep", lambda op: op["kind"] == "decay"), seq="no-such-sequence")
    (record,) = run_pass(ctx, [op], tmp_path, speed.Gauge(speed.compute_factor))
    assert record["problems"] and "ValueError" in record["problems"][0]


def test_cell_recurrence_matches_the_closed_forms():
    times = np.geomspace(1e-9, 1e-3, 50)
    for kind, fractions in (("ramsey", []), ("hahn", [0.5])):
        closed = oracles.chi(kind, None, 3e5, 1e-5, times)
        cells = oracles.chi_cells(3e5, 1e-5, fractions, times)
        np.testing.assert_allclose(cells, closed, rtol=1e-9)
    # Hahn at t << tau_c is b^2 t^3 / (12 tau_c) to first order, with no cancellation loss.
    t = np.array([1e-12, 1e-10])
    np.testing.assert_allclose(oracles.chi_hahn(1.0, 1.0, t), t**3 / 12, rtol=1e-9)


def test_benchmark_json_matches_spec_and_format_limits():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in on_disk["workloads"]] + [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert all(name_re.match(n) for n in names) and len(names) == len(set(names))
    assert [w["name"] for w in on_disk["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in on_disk["end_to_end"]


def test_checks_reject_a_wrong_physics_number(tmp_path):
    (tmp_path / "scan_depth.json").write_text(json.dumps({"thickness_um": 262.5}))
    (tmp_path / "manifest.json").write_text(json.dumps({"command": "scan", "outputs": ["scan_depth.json"]}))
    op = {"argv": ["scan"], "check": "depth", "expect": ["scan_depth.json"], "params": {}}
    out = {"exit": 0, "dir": tmp_path, "stdout": str(tmp_path / "scan_depth.json")}
    assert checks.cli_op(op, out) == ["film thickness 262.50 um, want 265 +- 2"]
