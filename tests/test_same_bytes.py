"""Same bytes: every step of ``tools/same_bytes.py`` against a checked-in digest table.

Each step of the tool's ``script()`` runs in process through the tool's
``run_steps``, in a directory that holds ``configs/`` and the tool's
``INPUT_FILES``, with ``NVFORGE_SEED`` unset.  Its exit code, the SHA-256 of
its stderr (with the directory replaced by ``<ROOT>``) and the SHA-256 of each
output file except ``manifest.json`` must equal its entry in
``same_bytes_digests.json``.  The table records the Python and numpy versions
and numpy's SIMD targets that made it (see ``byte_pins``), because libm, numpy
and its dispatch can move bytes.  A declared byte change regenerates the table:

    PYTHONPATH=src python tests/test_same_bytes.py > tests/same_bytes_digests.json
"""

import hashlib
import json
import os
import re
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from nvforge import cli, dataio

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))
import byte_pins  # noqa: E402
import same_bytes  # noqa: E402

DIGESTS = Path(__file__).with_name("same_bytes_digests.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_steps(root: Path, steps) -> dict:
    """Copy ``configs/`` into ``root``, the working directory, and run ``steps`` there.

    Returns step name -> {"exit", "stderr", "files"}, the last two as SHA-256 digests.
    """
    shutil.copytree(REPO / "configs", root / "configs")
    return {name: {"exit": code, "stderr": _sha256(err.encode()),
                   "files": {f: _sha256(data) for f, data in files.items()}}
            for name, (code, _, err, files) in same_bytes.run_steps(root, steps).items()}


def differences(results: dict, expected: dict) -> list[str]:
    """One line per step of ``results`` whose exit code, stderr or files differ from ``expected``."""
    lines = []
    for name, got in results.items():
        want = expected.get(name, {"files": {}})
        parts = [key for key in ("exit", "stderr") if want.get(key) != got[key]]
        names = sorted(want["files"].keys() | got["files"].keys())
        parts += [f"file {f}" for f in names if want["files"].get(f) != got["files"].get(f)]
        if parts:
            lines.append(f"{name}: {', '.join(parts)}")
    return lines


def _table() -> dict:
    table = json.loads(DIGESTS.read_text())
    why = byte_pins.mismatch(table)
    assert not why, f"the digests were {why}; check the bytes with tools/same_bytes.py, then regenerate the table"
    return table["steps"]


def test_a_version_mismatch_names_both_versions(monkeypatch):
    made = json.loads(DIGESTS.read_text())["numpy"]
    monkeypatch.setattr(np, "__version__", "0.0.0")
    with pytest.raises(AssertionError, match=rf"numpy {re.escape(made)}, this run .* numpy 0\.0\.0;"):
        _table()


def test_a_dispatch_mismatch_names_both_simd_targets(monkeypatch):
    made = json.loads(DIGESTS.read_text())["simd"]
    monkeypatch.setattr(byte_pins, "simd_targets", lambda: {**made, "exp": "baseline"})
    with pytest.raises(AssertionError, match=rf"made with float64 exp {made['exp']}, .*, "
                                             r"this run has float64 exp baseline, "):
        _table()


def test_every_step_gives_its_recorded_bytes(tmp_path, monkeypatch):
    expected = _table()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NVFORGE_SEED", raising=False)
    results = run_steps(tmp_path, same_bytes.script())
    assert list(results) == list(expected)
    assert differences(results, expected) == []


def test_one_changed_writer_byte_fails_the_digests(tmp_path, monkeypatch):
    expected = _table()
    write = dataio.write_depth_profile_csv

    def write_one_byte_off(profile, path):
        write(profile, path)
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))

    monkeypatch.setattr(dataio, "write_depth_profile_csv", write_one_byte_off)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NVFORGE_SEED", raising=False)
    steps = [(name, argv) for name, argv in same_bytes.script() if name.startswith("fig6_")]
    assert len(steps) == 5
    results = run_steps(tmp_path, steps)
    assert differences(results, expected) == [f"{name}: file fig6_depth_profile.csv" for name, _ in steps]


def test_a_step_past_the_timeout_is_stopped_and_the_next_runs(tmp_path, monkeypatch):
    main = cli.main

    def main_or_sleep(argv):
        if argv[0] == "sleep":
            time.sleep(60)
        return main(argv)

    monkeypatch.setattr(cli, "main", main_or_sleep)
    monkeypatch.setattr(same_bytes, "TIMEOUT_S", 1)
    monkeypatch.chdir(tmp_path)
    started = time.monotonic()
    results = same_bytes.run_steps(tmp_path, [("slow", ["sleep"]), ("budget", ["implant", "budget"])])
    assert time.monotonic() - started < 30
    assert results["slow"] == ("timeout", "", "stopped after 1 s", {})
    assert results["budget"][0] == 0 and "nitrogen_budget.json" in results["budget"][3]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


if __name__ == "__main__":
    os.environ.pop("NVFORGE_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        steps = run_steps(Path(tmp), same_bytes.script())
        os.chdir(REPO)
    print(json.dumps({**byte_pins.versions(), "steps": steps}, indent=1))
