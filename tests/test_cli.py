import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nvforge
from nvforge import cli, dataio, engines, fitkit, fixtures, magnetometry, scan
from nvforge.cli import COMMANDS, main
from nvforge.dataio import DecayCurve
from nvforge.levmar import NumericalFailure

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import same_bytes  # noqa: E402


def _read_json(path):
    return json.loads(path.read_text())


def _output_bytes(directory, exclude=("manifest.json",)):
    return {
        p.name: p.read_bytes()
        for p in sorted(directory.iterdir())
        if p.name not in exclude
    }


def test_odmr_default_two_lines(tmp_path):
    assert main(["odmr", "--output-dir", str(tmp_path)]) == 0
    lines = _read_json(tmp_path / "odmr_lines.json")
    assert len(lines["resolved_lines"]) == 2
    split = lines["resolved_lines"][1]["center_hz"] - lines["resolved_lines"][0]["center_hz"]
    assert split == pytest.approx(51.78e6, rel=2e-3)
    assert (tmp_path / "odmr.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_odmr_zero_field_single_line(tmp_path):
    assert main(["odmr", "--bz-t", "0", "--output-dir", str(tmp_path)]) == 0
    lines = _read_json(tmp_path / "odmr_lines.json")
    assert len(lines["resolved_lines"]) == 1
    assert lines["resolved_lines"][0]["center_hz"] == pytest.approx(2.87e9)


@pytest.mark.parametrize(
    "option, value, code",
    [
        ("--bz-t", "1e300", 2),
        ("--bx-t", "1e200", 2),
        ("--linewidth-hz", "1e-300", 0),
        ("--f-max-hz", "inf", 2),
        ("--f-min-hz", "-inf", 2),
    ],
)
def test_odmr_extreme_values_are_quiet(tmp_path, capsys, option, value, code):
    # A field near the float limit has no finite auto span, and an explicit
    # grid end must be finite (exit 2); a line narrower than the float range
    # can resolve is 0 off its centre (exit 0).
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["odmr", f"{option}={value}", "--output-dir", str(tmp_path)]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# odmr run\nbz-t = 0.0\nn-freq = 501\n")
    out = tmp_path / "out"
    assert main(["odmr", "--config", str(config), "--output-dir", str(out)]) == 0
    assert len(_read_json(out / "odmr_lines.json")["resolved_lines"]) == 1
    # Explicit flag wins over the file value.
    out2 = tmp_path / "out2"
    assert (
        main(["odmr", "--config", str(config), "--bz-t", "1.6e-3", "--output-dir", str(out2)])
        == 0
    )
    assert len(_read_json(out2 / "odmr_lines.json")["resolved_lines"]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("bz-t = 0.0\nbogus-key = 1\n")
    assert main(["odmr", "--config", str(config), "--output-dir", str(tmp_path)]) == 2


def test_malformed_flag_exits_2(tmp_path):
    assert main(["odmr", "--no-such-flag", "1"]) == 2


@pytest.mark.parametrize("source", ["flag", "file"])
def test_bad_boolean_exits_2(tmp_path, source):
    args = ["fit", "--input", str(tmp_path / "unused.csv"), "--output-dir", str(tmp_path)]
    if source == "flag":
        args += ["--pin-offset", "maybe"]
    else:
        config = tmp_path / "fit.cfg"
        config.write_text("pin-offset = maybe\n")
        args += ["--config", str(config)]
    assert main(args) == 2


CHOICE_OPTIONS = [
    (command, name)
    for command, spec in COMMANDS.items()
    for name, (typ, _, _) in spec.options.items()
    if hasattr(typ, "choices")
]


def test_fixed_value_options_are_choices():
    assert CHOICE_OPTIONS == [
        ("decay", "sequence"), ("decay", "engine"), ("decay", "noise_preset"), ("decay", "grid"),
        ("fit", "model"), ("sense", "preset"), ("implant", "action"), ("implant", "species"),
        ("scan", "mode"), ("fixtures", "target"),
    ]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command, option", CHOICE_OPTIONS, ids=[o for _, o in CHOICE_OPTIONS])
def test_bad_choice_exits_2_listing_the_choices(tmp_path, capsys, command, option, source):
    spec = COMMANDS[command]
    argv = [command]
    if spec.positional and option != spec.positional:
        argv.append(spec.options[spec.positional][0].choices[0])
    if option == "grid":  # the grid spacing is read only for an explicit time range
        argv += ["--t-min-s", "1e-7", "--t-max-s", "1e-5"]
    if source == "flag" and option == spec.positional:
        argv.append("linaer")
    elif source == "flag":
        argv += ["--" + option.replace("_", "-"), "linaer"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{option} = linaer\n")
        argv += ["--config", str(config)]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == 2
    choices = spec.options[option][0].choices
    assert f"expected one of {', '.join(choices)}; got 'linaer'" in capsys.readouterr().err
    assert not out.exists()


def test_choice_values_match_case_insensitively(tmp_path):
    outputs = []
    for engine, sequence in (("mc", "hahn"), ("MC", "HAHN")):
        out = tmp_path / engine
        argv = ["decay", "--engine", engine, "--sequence", sequence, "--n-traj", "2000",
                "--n-times", "8", "--output-dir", str(out)]
        assert main(argv) == 0
        outputs.append(_output_bytes(out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, option", [("scan", "mode"), ("fixtures", "target")])
def test_missing_mode_or_target_exits_2(tmp_path, capsys, command, option):
    assert main([command, "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {command} requires --{option}\n"
    assert list(tmp_path.iterdir()) == []


#: command -> (argv, CSV header, data rows that make a valid input but for one
#: NaN or infinite value: a NaN signal, an infinite pixel, a NaN count).
BAD_INPUT_COMMANDS = {
    "fit": (["fit"], "time_s,signal",
            [f"{1e-6 * (i + 1)!r},{math.exp(-i / 3)!r}" for i in range(5)] + ["6e-06,nan"]),
    "scan": (["scan", "--mode", "spots"], "x_um,y_um,counts",
             [f"{x}.0,{y}.0,{'inf' if (x, y) == (3, 4) else '5.0'}" for y in range(8) for x in range(8)]),
    "spectrum": (["scan", "--mode", "spectrum"], "wavelength_nm,counts",
                 [f"{500.0 + i!r},{'nan' if i == 75 else '50.0'}" for i in range(150)]),
}


@pytest.mark.parametrize("command", list(BAD_INPUT_COMMANDS))
@pytest.mark.parametrize("case", ["missing", "directory", "empty", "header_only", "short_row", "non_finite"])
def test_bad_input_file_exits_2(tmp_path, capsys, command, case):
    argv, header, non_finite_rows = BAD_INPUT_COMMANDS[command]
    path = tmp_path / "input.csv"
    if case == "directory":
        path.mkdir()
    elif case == "empty":
        path.write_text("")
    elif case == "non_finite":
        path.write_text("\n".join([header, *non_finite_rows]) + "\n")
    elif case != "missing":
        path.write_text(header + "\n" + ("1.0\n" if case == "short_row" else ""))
    code = main(argv + ["--input", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case == "non_finite":
        assert err.endswith("every data value must be finite\n")


#: case -> (argv, input files written into the working directory, environment,
#: the error message).  Each exits 2 before it writes a data file.
EXIT_2_CASES = {
    "config_missing": (["decay", "--config", "missing.cfg"], {}, {},
                       "config file not found: missing.cfg"),
    "config_no_equals": (["decay", "--config", "run.cfg"], {"run.cfg": "sequence hahn\n"}, {},
                         "run.cfg:1: expected 'key = value', got 'sequence hahn'"),
    "config_empty_key": (["decay", "--config", "run.cfg"], {"run.cfg": "# run\n = 1\n"}, {},
                         "run.cfg:2: empty key"),
    "config_duplicate_key": (["decay", "--config", "run.cfg"],
                             {"run.cfg": "n-times = 3\nn_times = 4\n"}, {},
                             "run.cfg:2: duplicate key 'n_times'"),
    "fit_header": (["fit", "--input", "in.csv"], {"in.csv": "time_s,sig\n1e-06,0.5\n"}, {},
                   "expected columns time_s, signal; got ['time_s', 'sig']"),
    "depth_header": (["scan", "--mode", "depth", "--input", "in.csv"],
                     {"in.csv": "z,counts\n0.0,1.0\n"}, {},
                     "expected columns z_um, counts; got ['z', 'counts']"),
    "spots_header": (["scan", "--mode", "spots", "--input", "in.csv"],
                     {"in.csv": "a,b,c\n0.0,0.0,1.0\n"}, {},
                     "unrecognized scan-grid header: ['a', 'b', 'c']"),
    "preset_none_without_bath": (["decay", "--noise-preset", "none"], {}, {},
                                 "noise-preset none requires b-rad-s and tau-c-s"),
    "odmr_reversed_grid": (["odmr", "--f-min-hz", "3e9", "--f-max-hz", "2e9"], {}, {},
                           "f-max-hz must exceed f-min-hz"),
    "vdp_one_resistance": (["scan", "--mode", "vdp", "--r-a-ohm", "1"], {}, {},
                           "vdp mode requires r-a-ohm and r-b-ohm"),
    "env_seed": (["odmr"], {}, {"NVFORGE_SEED": "x"}, "NVFORGE_SEED must be an integer, got 'x'"),
}


@pytest.mark.parametrize("case", list(EXIT_2_CASES))
def test_config_header_and_option_errors_exit_2(tmp_path, capsys, monkeypatch, case):
    argv, files, env, message = EXIT_2_CASES[case]
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main(argv + ["--output-dir", "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list((tmp_path / "out").glob("*")) == []


def test_fit_pin_offset_no_is_the_default(tmp_path):
    t = np.geomspace(0.3e-6, 26e-6, 60)
    curve_path = tmp_path / "curve.csv"
    dataio.write_decay_csv(DecayCurve(t, 0.9 * np.exp(-((t / 6.4e-6) ** 0.96)) + 0.05), curve_path)
    runs = {"default": [], "no": ["--pin-offset", "no"]}
    for name, extra in runs.items():
        argv = ["fit", "--input", str(curve_path), *extra, "--output-dir", str(tmp_path / name)]
        assert main(argv) == 0
    default, no = ((tmp_path / name / "fit_result.json").read_bytes() for name in runs)
    assert default == no
    assert json.loads(no)["params"]["c"] != 0.0


def test_decay_analytic_paper_like_hahn_fit(tmp_path):
    assert (
        main(
            [
                "decay",
                "--sequence",
                "hahn",
                "--engine",
                "analytic",
                "--output-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    curve = dataio.read_decay_csv(tmp_path / "decay_analytic.csv")
    result = fitkit.fit(curve, fitkit.FitModel.stretched_exp(), fix={"c": 0.0})
    assert result.params["t2_s"] == pytest.approx(6.4e-6, rel=0.05)
    meta = _read_json(tmp_path / "decay_analytic.json")
    assert meta["sequence"] == "hahn"
    assert meta["engine"] == "analytic"


def test_decay_cpmg_longer_than_small_n(tmp_path):
    out_a = tmp_path / "n4"
    out_b = tmp_path / "n64"
    for out, n in ((out_a, "4"), (out_b, "64")):
        code = main(
            [
                "decay",
                "--sequence",
                "cpmg",
                "--n-pulses",
                n,
                "--engine",
                "analytic",
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
    t4 = dataio.read_decay_csv(out_a / "decay_analytic.csv")
    t64 = dataio.read_decay_csv(out_b / "decay_analytic.csv")
    # The time at which the signal crosses 1/e grows with n.
    cross4 = t4.times_s[np.argmin(np.abs(t4.signal - np.exp(-1)))]
    cross64 = t64.times_s[np.argmin(np.abs(t64.signal - np.exp(-1)))]
    assert cross64 > 5 * cross4


def test_decay_mc_seeded_byte_identical(tmp_path):
    args = [
        "decay",
        "--sequence",
        "hahn",
        "--engine",
        "mc",
        "--n-traj",
        "5000",
        "--n-times",
        "8",
        "--seed",
        "99",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--output-dir", str(out1)]) == 0
    assert main(args + ["--output-dir", str(out2)]) == 0
    assert _output_bytes(out1) == _output_bytes(out2)


def _assert_z_verdict_matches_curves(out_dir, report):
    """max |z| and the count of |z| > 3, recomputed from the written curves."""
    mc = dataio.read_decay_csv(out_dir / "decay_mc.csv")
    analytic = dataio.read_decay_csv(out_dir / "decay_analytic.csv")
    stderr = np.array(mc.meta["mc_stderr"])
    assert mc.meta["mc_stream"] == 2
    assert np.all(stderr > 0)
    z = np.abs(mc.signal - analytic.signal) / stderr
    assert report["max_abs_z"] == float(np.max(z))
    assert report["n_abs_z_over_3"] == int(np.sum(z > 3))
    assert "correlated" in report["z_note"]


def test_decay_both_engines_within_tolerance(tmp_path):
    code = main(
        [
            "decay",
            "--sequence",
            "hahn",
            "--engine",
            "both",
            "--n-traj",
            "20000",
            "--n-times",
            "8",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = _read_json(tmp_path / "engine_comparison.json")
    assert report["within_tolerance"] is True
    assert report["rms_difference"] <= 0.02
    _assert_z_verdict_matches_curves(tmp_path, report)


def test_decay_engine_mismatch_exits_3(tmp_path):
    # A handful of trajectories cannot track the analytic curve to 2%.
    code = main(
        [
            "decay",
            "--sequence",
            "hahn",
            "--engine",
            "both",
            "--n-traj",
            "40",
            "--n-times",
            "8",
            "--seed",
            "3",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 3
    report = _read_json(tmp_path / "engine_comparison.json")
    assert report["within_tolerance"] is False
    _assert_z_verdict_matches_curves(tmp_path, report)


@pytest.mark.parametrize(
    "args",
    [
        ["--t-min-s", "1e-7"],
        ["--n-times", "0", "--engine", "analytic"],
        ["--n-times", "0", "--engine", "both"],
        ["--t-min-s=-1e-6", "--t-max-s", "1e-5", "--grid", "linear", "--engine", "mc"],
        ["--t-min-s=-1e-6", "--t-max-s", "1e-5", "--grid", "linear", "--engine", "analytic"],
        ["--t-min-s=-1e-6", "--t-max-s", "1e-5", "--grid", "linear", "--engine", "both"],
        ["--t-min-s=-1e-6", "--t-max-s", "1e-5"],
        ["--t-min-s", "0", "--t-max-s", "1e-5"],
        ["--t-min-s", "nan", "--t-max-s", "1e-5", "--grid", "linear", "--n-times", "3",
         "--engine", "analytic"],
        ["--t-min-s", "nan", "--t-max-s", "1e-5", "--grid", "linear", "--n-times", "3",
         "--engine", "both"],
    ],
    ids=[
        "t_min_only", "no_points-analytic", "no_points-both",
        "negative_time-mc", "negative_time-analytic", "negative_time-both",
        "negative_time-log", "zero_time-log", "nan_time-analytic", "nan_time-both",
    ],
)
def test_decay_partial_time_grid_exits_2(tmp_path, args):
    code = main(["decay", *args, "--output-dir", str(tmp_path)])
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_decay_one_time_point_is_the_low_end_of_the_grid(tmp_path):
    assert main(["decay", "--n-times", "1", "--output-dir", str(tmp_path / "one")]) == 0
    assert main(["decay", "--output-dir", str(tmp_path / "all")]) == 0
    one, full = ((tmp_path / name / "decay_analytic.csv").read_text().splitlines() for name in ("one", "all"))
    assert len(one) == 2 and len(full) == 25
    assert one == full[:2]


def test_decay_negative_time_points_exits_2(tmp_path, capsys):
    assert main(["decay", "--n-times", "-1", "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: Number of samples, -1, must be non-negative.\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--b-rad-s", "--tau-c-s"])
def test_decay_bath_option_with_preset_exits_2(tmp_path, capsys, option):
    # The preset sets the bath; an explicit coupling or correlation time
    # would be ignored, so it is refused.
    argv = ["decay", "--noise-preset", "paper-like", option, "1e9"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "noise-preset none" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("preset", ["paper-like", "none"])
def test_decay_t1_q_without_t1_s_exits_2(tmp_path, capsys, preset):
    # With no T1 the exponent would be ignored (a preset's own q kept), so it is refused.
    argv = ["decay", "--noise-preset", preset, "--t1-q", "2.5"]
    if preset == "none":
        argv += ["--b-rad-s", "1e6", "--tau-c-s", "1e-6"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert "t1-q needs t1-s" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sequence", ["ramsey", "hahn", "xy4", "xy8"])
@pytest.mark.parametrize("source, count", [("flag", "5"), ("config", "1")])
def test_decay_n_pulses_without_cpmg_exits_2(tmp_path, capsys, sequence, source, count):
    # Only CPMG takes a pulse count; any other sequence would ignore it, an
    # explicit 1 included, so it is refused.
    argv = ["decay", "--sequence", sequence]
    if source == "config":
        config = tmp_path / "run.cfg"
        config.write_text(f"n-pulses = {count}\n")
        argv += ["--config", str(config)]
    else:
        argv += ["--n-pulses", count]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: n-pulses needs sequence cpmg\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_decay_cpmg_defaults_to_one_pulse(tmp_path, capsys):
    assert main(["decay", "--sequence", "cpmg", "--output-dir", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "decay_analytic.json")["sequence"] == "cpmg1"
    assert main(["decay", "--help"]) == 0
    assert "pi-pulse count, cpmg only [default: 1]" in " ".join(capsys.readouterr().out.split())

@pytest.mark.parametrize("t1_q, q", [(None, 1.0), ("2.5", 2.5)])
def test_decay_t1_s_sets_the_exponent_with_a_preset(tmp_path, t1_q, q):
    argv = ["decay", "--noise-preset", "paper-like", "--t1-s", "1e-3"]
    if t1_q is not None:
        argv += ["--t1-q", t1_q]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    noise = _read_json(tmp_path / "decay_analytic.json")["noise"]
    assert (noise["t1_s"], noise["t1_exponent_q"]) == (1e-3, q)


@pytest.mark.parametrize("b_rad_s", ["5e14", "1e16"])
def test_decay_grid_of_a_strong_coupling_starts_at_the_decay_window(tmp_path, b_rad_s):
    # The first grid point lies far below a femtosecond; it used to be
    # floored there, which gave a decreasing grid (1e16) or a first point
    # past the window's start (5e14).
    argv = ["decay", "--sequence", "ramsey", "--noise-preset", "none", "--b-rad-s", b_rad_s,
            "--tau-c-s", "1e-6"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    curve = dataio.read_decay_csv(tmp_path / "decay_analytic.csv")
    assert curve.times_s[0] < 1e-15
    assert -math.log(curve.signal[0]) == pytest.approx(0.02, rel=1e-9)
    assert -math.log(curve.signal[-1]) == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("engine", ["analytic", "mc"])
def test_decay_t1_overflow_is_quiet(tmp_path, capsys, engine):
    # (t/T1)^q overflows at every point: the T1 factor is 0, with no RuntimeWarning.
    argv = ["decay", "--noise-preset", "none", "--b-rad-s", "1e5", "--tau-c-s", "1e-6",
            "--t1-s", "1e-300", "--t1-q", "2", "--t-min-s", "1e-6", "--t-max-s", "1e-5",
            "--grid", "linear", "--n-times", "3", "--engine", engine]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert dataio.read_decay_csv(tmp_path / f"decay_{engine}.csv").signal.tolist() == [0.0] * 3


def test_shipped_config_files(tmp_path):
    from pathlib import Path

    configs = Path(__file__).resolve().parent.parent / "configs"
    out1 = tmp_path / "odmr"
    assert main(["odmr", "--config", str(configs / "odmr_16g_z.cfg"), "--output-dir", str(out1)]) == 0
    assert len(_read_json(out1 / "odmr_lines.json")["resolved_lines"]) == 2
    out2 = tmp_path / "sense"
    assert main(["sense", "--config", str(configs / "sense_paper_ideal.cfg"), "--output-dir", str(out2)]) == 0
    report = _read_json(out2 / "sensitivity.json")
    assert report["eta_dc_t_per_sqrt_hz"] == pytest.approx(100e-9, rel=1e-9)


def test_decay_env_seed_overrides_flag(tmp_path, monkeypatch):
    args = [
        "decay",
        "--sequence",
        "hahn",
        "--engine",
        "mc",
        "--n-traj",
        "2000",
        "--n-times",
        "6",
        "--seed",
        "1",
    ]
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("NVFORGE_SEED", "777")
    assert main(args + ["--output-dir", str(out1)]) == 0
    assert main(args + ["--output-dir", str(out2)]) == 0
    monkeypatch.delenv("NVFORGE_SEED")
    assert main(args + ["--output-dir", str(out3)]) == 0
    assert _output_bytes(out1) == _output_bytes(out2)
    assert _output_bytes(out1) != _output_bytes(out3)
    assert _read_json(out1 / "manifest.json")["seed"] == 777


def test_fit_command_roundtrip(tmp_path):
    t = np.geomspace(0.3e-6, 26e-6, 60)
    curve_path = tmp_path / "curve.csv"
    dataio.write_decay_csv(
        DecayCurve(t, np.exp(-((t / 6.4e-6) ** 0.96))), curve_path
    )
    out = tmp_path / "out"
    assert (
        main(
            [
                "fit",
                "--input",
                str(curve_path),
                "--model",
                "stretched_exp",
                "--output-dir",
                str(out),
            ]
        )
        == 0
    )
    result = _read_json(out / "fit_result.json")
    assert result["params"]["t2_s"] == pytest.approx(6.4e-6, rel=1e-6)
    assert result["converged"] is True


def test_decay_explicit_log_grid(tmp_path):
    argv = ["decay", "--t-min-s", "1e-7", "--t-max-s", "1e-5", "--n-times", "12"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    curve = dataio.read_decay_csv(tmp_path / "decay_analytic.csv")
    assert np.array_equal(curve.times_s, np.geomspace(1e-7, 1e-5, 12))


RECORD_REFUSALS = [  # argv, exit code, stderr: a record's own check, reached from a command
    (["decay", "--noise-preset", "none", "--b-rad-s", "-1", "--tau-c-s", "1e-6"], 2,
     "error: b_rad_s must be >= 0\n"),
    (["decay", "--noise-preset", "none", "--b-rad-s", "1e6", "--tau-c-s", "1e-6", "--t1-s", "1e-3", "--t1-q", "0"], 2,
     "error: t1_exponent_q must be positive\n"),
    (["scan", "--mode", "ratio", "--kappa", "0", "--input", "spectrum.csv"], 2,
     "error: charge ratio must be positive\n"),
    (["scan", "--mode", "depth", "--input", "depth.csv"], 4,
     "numerical failure: profile too short to locate two steps\n"),
]


@pytest.mark.parametrize("argv, code, err", RECORD_REFUSALS, ids=[" ".join(r[0][:3]) for r in RECORD_REFUSALS])
def test_record_checks_refuse_through_the_cli(tmp_path, capsys, monkeypatch, argv, code, err):
    dataio.write(tmp_path / "spectrum.csv", fixtures.spectrum_s123("s1"))
    dataio.write(tmp_path / "depth.csv", dataio.DepthProfile(np.arange(10.0), np.repeat([0.0, 100.0], 5)))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--output-dir", "out"]) == code
    assert capsys.readouterr().err == err
    assert not any((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("model, time_key", [("stretched_exp", "t2_s"), ("exp_t2star", "t2_star_s")])
def test_fit_of_a_rising_curve_has_a_negative_amplitude(tmp_path, model, time_key):
    # Under 40 points the start's baseline is the last point, here the largest, so the start
    # takes the span for the amplitude and the smallest point for the baseline instead.
    t = np.geomspace(1e-7, 1e-4, 30)
    dataio.write_decay_csv(DecayCurve(t, 1.0 - np.exp(-t / 1e-5)), tmp_path / "rise.csv")
    argv = ["fit", "--input", str(tmp_path / "rise.csv"), "--model", model, "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    params = _read_json(tmp_path / "out" / "fit_result.json")["params"]
    assert params["a"] == pytest.approx(-1.0, rel=1e-12)
    assert params["c"] == pytest.approx(1.0, rel=1e-12)
    assert params[time_key] == pytest.approx(1e-5, rel=1e-12)


def test_decay_coupling_overflow_exits_4(tmp_path, capsys):
    # (b * tau_c)^2 overflows a float: a numerical failure, not a crash.
    argv = ["decay", "--sequence", "hahn", "--noise-preset", "none", "--b-rad-s", "1e200", "--tau-c-s", "1e-6"]
    code = main([*argv, "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_decay_grid_t1_overflow_exits_0(tmp_path, capsys):
    # (t/T1)^q overflows a float in the grid's bracket search: the exponent
    # is infinite there, as chi's is, not a crash.
    argv = ["decay", "--sequence", "hahn", "--noise-preset", "none", "--b-rad-s", "0",
            "--tau-c-s", "1e-6", "--t1-s", "1e-6", "--t1-q", "2000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--output-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0
    assert "Traceback" not in err
    curve = dataio.read_decay_csv(tmp_path / "decay_analytic.csv")
    assert curve.signal[0] == pytest.approx(math.exp(-0.02), rel=1e-9)
    assert curve.signal[-1] == pytest.approx(math.exp(-3.0), rel=1e-9)


@pytest.mark.parametrize("b_rad_s", ["0", "1e-308"])
def test_decay_grid_midpoint_overflow_exits_4(tmp_path, capsys, b_rad_s):
    # tau_c = 1.5e308 and T1 = 4e307: the high target's bracket is
    # (7.5e307, 1.5e308), whose midpoint overflows to inf, where the exponent
    # is not finite.  Without coupling chi(inf) is 0, so only the midpoint
    # itself can be refused; the alarm fails a bisection that never ends.
    argv = ["decay", "--noise-preset", "none", "--b-rad-s", b_rad_s, "--tau-c-s", "1.5e308", "--t1-s", "4e307"]
    handler = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the grid bisection did not end"))
    signal.alarm(10)
    try:
        code = main([*argv, "--output-dir", str(tmp_path)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert code == 4
    assert capsys.readouterr().err == "numerical failure: attenuation exponent is not finite\n"
    assert list(tmp_path.iterdir()) == []


OVERFLOW = ["decay", "--noise-preset", "none", "--b-rad-s", "1e200", "--tau-c-s", "1e-6",
            "--t-min-s", "1e-7", "--t-max-s", "1e-5", "--n-traj", "10"]


@pytest.mark.parametrize("argv,message", [
    ([*OVERFLOW, "--engine", "analytic"], "attenuation exponent is not finite"),
    ([*OVERFLOW, "--engine", "mc"], "Monte-Carlo cell coefficients are not finite"),
    ([*OVERFLOW, "--engine", "both"], "attenuation exponent is not finite"),
    (["decay", "--engine", "both", "--n-traj", "100", "--noise-preset", "none", "--b-rad-s", "2e154",
      "--tau-c-s", "1e-6", "--t-min-s", "1e-160", "--t-max-s", "1e-150"],
     "Monte-Carlo cell coefficients are not finite"),
], ids=["analytic", "mc", "both", "both_mc_only"])
def test_decay_overflow_exits_4_for_either_engine(tmp_path, capsys, argv, message):
    # b * tau_c = 1e194: chi and b * b overflow.  At b = 2e154 chi is finite
    # on these times, but the MC engine's b * b is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--output-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("engine", ["analytic", "mc", "both"])
def test_decay_without_coupling_is_exactly_one(tmp_path, capsys, engine):
    # b = 0: no decay, also at times where t / tau_c overflows a float.
    argv = ["decay", "--noise-preset", "none", "--b-rad-s", "0", "--tau-c-s", "1e-300", "--t-min-s", "1e-6",
            "--t-max-s", "1e10", "--n-times", "3", "--engine", engine, "--n-traj", "100"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    for name in ("analytic", "mc") if engine == "both" else (engine,):
        curve = dataio.read_decay_csv(tmp_path / f"decay_{name}.csv")
        assert np.array_equal(curve.signal, np.ones(3))
    if engine == "both":
        assert _read_json(tmp_path / "engine_comparison.json")["rms_difference"] == 0.0


def test_decay_nan_rms_is_an_engine_mismatch(tmp_path, monkeypatch, capsys):
    # A NaN MC curve, whose RMS difference would be NaN, is refused at its
    # CSV: exit 4, with no engine comparison and no manifest written.
    def nan_mc(seq, noise, times, n_traj, seed):
        return DecayCurve(times, np.full(len(times), math.nan), {"mc_stderr": [0.0] * len(times)})

    monkeypatch.setattr(engines, "simulate_mc", nan_mc)
    argv = ["decay", "--engine", "both", "--n-times", "4", "--output-dir", str(tmp_path)]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"numerical failure: {tmp_path / 'decay_mc.csv'}: a value to write is not finite\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["decay_analytic.csv", "decay_analytic.json"]


@pytest.mark.parametrize("b_rad_s", ["1e30", "1e32"])
def test_decay_grid_below_the_bisections_reach_exits_2(tmp_path, capsys, b_rad_s):
    # b * tau_c = 1e24 and 1e26: the decay starts below tau_c * 2^-80, the
    # smallest time the grid bisection reaches, so no grid can place it.
    argv = ["decay", "--sequence", "ramsey", "--noise-preset", "none", "--b-rad-s", b_rad_s,
            "--tau-c-s", "1e-6", "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: decay starts below 8.27e-31 s, the smallest positive time the grid bisection reaches; "
        "no log grid\n")
    assert list(tmp_path.iterdir()) == []


def test_fit_command_missing_input_exits_2(tmp_path):
    assert main(["fit", "--output-dir", str(tmp_path)]) == 2


def test_fit_command_constant_signal_exits_4(tmp_path):
    t = np.geomspace(1e-7, 1e-5, 30)
    curve_path = tmp_path / "flat.csv"
    dataio.write_decay_csv(DecayCurve(t, np.full(30, 0.5)), curve_path)
    code = main(["fit", "--input", str(curve_path), "--output-dir", str(tmp_path)])
    assert code == 4  # rank-deficient data is a numerical failure


def test_fit_non_finite_jacobian_exits_4_without_warnings(tmp_path, capsys):
    # A fast decay under a six-period cosine passes the five-period check, but
    # the beat model drives T2* onto its lower bound, where the Jacobian is no
    # longer finite: a numerical failure, not bad input.
    t = np.linspace(1e-7, 1e-5, 200)
    signal = np.exp(-((t / 1e-6) ** 3)) + 0.3 * np.cos(2 * np.pi * 6 * t / (t[-1] - t[0]))
    curve = tmp_path / "beats.csv"
    dataio.write_decay_csv(DecayCurve(t, np.clip(signal, -1.0, 1.0)), curve)
    code = main(
        ["fit", "--input", str(curve), "--model", "fid_beats", "--output-dir", str(tmp_path / "fit")]
    )
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numerical failure:")
    assert "Warning" not in err


def test_fit_fid_beats_on_a_hahn_echo_exits_2(tmp_path, capsys):
    # The echo spans under one period of its strongest line; the beat fit
    # refuses it before LM starts, as bad input.
    assert main(["decay", "--sequence", "hahn", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "fit"
    code = main(["fit", "--input", str(tmp_path / "decay_analytic.csv"), "--model", "fid_beats",
                 "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: curve spans ")
    assert err.endswith(" oscillation periods; need >= 5\n")
    assert list(out.iterdir()) == []


def test_fit_exp_t2star_on_a_hahn_echo_does_not_converge(tmp_path, capsys):
    # The stretched echo has no single-exponential optimum: LM creeps along
    # a -> inf, c -> -inf until its iteration cap, a numerical failure.
    assert main(["decay", "--sequence", "hahn", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "fit"
    code = main(["fit", "--input", str(tmp_path / "decay_analytic.csv"), "--model", "exp_t2star",
                 "--output-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "numerical failure: fit did not converge: max_iter reached\n"
    assert not (out / "fit_result.json").exists()


def test_fit_pin_offset_holds_c_at_zero(tmp_path):
    assert main(["decay", "--sequence", "hahn", "--output-dir", str(tmp_path)]) == 0
    curve_path = tmp_path / "decay_analytic.csv"
    out = tmp_path / "fit"
    argv = ["fit", "--input", str(curve_path), "--pin-offset", "true", "--output-dir", str(out)]
    assert main(argv) == 0
    result = _read_json(out / "fit_result.json")
    assert result["params"]["c"] == 0.0
    expected = fitkit.fit(dataio.read_decay_csv(curve_path), fitkit.FitModel.stretched_exp(),
                          fix={"c": 0.0})
    assert result["params"] == expected.params


def test_fit_whose_trial_steps_overflow_is_quiet(tmp_path):
    # Rejected LM trial steps overflow (t/T2)^p; the fit converges, and no
    # RuntimeWarning reaches stderr.
    t = np.geomspace(1e-7, 7e-4, 12)
    curve = DecayCurve(t, 0.32 * np.exp(-((t / 4.9e-4) ** 3)) + 0.05)
    curve_path = tmp_path / "curve.csv"
    dataio.write_decay_csv(curve, curve_path)
    out = tmp_path / "fit"
    env = {**os.environ, "PYTHONPATH": str(Path(nvforge.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "nvforge.cli", "fit", "--input", str(curve_path), "--pin-offset", "true",
         "--output-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    expected = fitkit.fit(dataio.read_decay_csv(curve_path), fitkit.FitModel.stretched_exp(),
                          fix={"c": 0.0})
    assert _read_json(out / "fit_result.json") == expected.as_dict()


def test_sense_preset_report(tmp_path):
    assert (
        main(["sense", "--t2-dd-s", "173e-6", "--output-dir", str(tmp_path)]) == 0
    )
    report = _read_json(tmp_path / "sensitivity.json")
    assert report["eta_dc_t_per_sqrt_hz"] == pytest.approx(100e-9, rel=1e-9)
    assert report["eta_ac_t_per_sqrt_hz"] == pytest.approx(14.4e-9, rel=0.01)
    assert report["assumptions"]["t2_dd_s"] == 173e-6


def test_sense_custom_requires_all_fields(tmp_path):
    assert main(["sense", "--preset", "none", "--output-dir", str(tmp_path)]) == 2


def test_sense_custom_with_every_field(tmp_path):
    argv = ["sense", "--preset", "none", "--aleph-ppm", "1", "--volume-m3", "1e-18",
            "--rate-cps", "1e5", "--contrast", "0.03", "--t2-star-s", "1e-6", "--t2-dd-s", "1e-4"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    spot = magnetometry.EnsembleSpot(concentration_aleph_ppm=1.0, detection_volume_m3=1e-18,
                                     photon_rate_per_center_cps=1e5, contrast=0.03)
    expected = dataclasses.asdict(magnetometry.sensitivity_report(spot, 1e-6, 1e-4))
    assert _read_json(tmp_path / "sensitivity.json") == expected


@pytest.mark.parametrize("option", ["--aleph-ppm", "--volume-m3", "--rate-cps", "--contrast"])
def test_sense_spot_option_with_the_preset_exits_2(tmp_path, capsys, option):
    assert main(["sense", option, "0.5", "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: aleph-ppm, volume-m3, rate-cps and contrast need preset none\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("contrast", ["0", "-0.1", "1.5", "2"])
def test_sense_contrast_outside_0_1_exits_2(tmp_path, capsys, contrast):
    argv = ["sense", "--preset", "none", "--aleph-ppm", "1", "--volume-m3", "1e-18",
            "--rate-cps", "1e5", "--contrast", contrast, "--t2-star-s", "1e-6"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: contrast must lie in (0, 1]\n"
    assert list(tmp_path.iterdir()) == []


SPOT_NONE = ["--preset", "none", "--contrast", "0.5"]


@pytest.mark.parametrize("options,which", [
    ([*SPOT_NONE, "--aleph-ppm", "1", "--volume-m3", "1e-18", "--rate-cps", "1e-300", "--t2-star-s", "1e-300"],
     "DC"),
    ([*SPOT_NONE, "--aleph-ppm", "1e300", "--volume-m3", "1e300", "--rate-cps", "1", "--t2-star-s", "1e-6"],
     "DC"),
    (["--t2-star-s", "1e-300", "--t2-dd-s", "1e300"], "AC"),
], ids=["shots_underflow", "centers_overflow", "ac_factor_overflow"])
def test_sense_outside_the_float_range_exits_4(tmp_path, capsys, options, which):
    # The shot count R N T2* underflows to 0, N overflows to inf, or T2_DD / T2* does.
    assert main(["sense", *options, "--output-dir", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"numerical failure: {which} sensitivity leaves the float range\n"
    assert list(tmp_path.iterdir()) == []


def test_sense_t2_star_overrides_the_preset(tmp_path):
    assert main(["sense", "--t2-star-s", "1e-6", "--t2-dd-s", "1e-4", "--output-dir", str(tmp_path)]) == 0
    spot, t2_star = magnetometry.paper_ideal_spot()
    assert t2_star != 1e-6
    expected = dataclasses.asdict(magnetometry.sensitivity_report(spot, 1e-6, 1e-4))
    assert _read_json(tmp_path / "sensitivity.json") == expected
    assert expected["assumptions"]["t2_star_s"] == 1e-6


def test_implant_plan_reference_numbers(tmp_path):
    assert main(["implant", "plan", "--output-dir", str(tmp_path)]) == 0
    assert _read_json(tmp_path / "manifest.json")["options"]["action"] == "plan"
    plan = _read_json(tmp_path / "implant_plan.json")
    assert plan["duration_s"] == pytest.approx(1.57e-3, rel=0.01)
    assert plan["depth_mean_nm"] == pytest.approx(8.5)
    assert plan["yield_fraction"] == 0.025


def test_implant_budget_below_one_ppb(tmp_path):
    assert main(["implant", "budget", "--output-dir", str(tmp_path)]) == 0
    report = _read_json(tmp_path / "nitrogen_budget.json")
    assert report["incorporated_ppb"] == pytest.approx(0.0468, rel=1e-6)


def test_implant_bad_energy_exits_2(tmp_path):
    assert main(["implant", "plan", "--energy-ev", "100", "--output-dir", str(tmp_path)]) == 2


def test_implant_action_matches_case_insensitively(tmp_path):
    outputs = []
    for action in ("plan", "PLAN"):
        assert main(["implant", action, "--output-dir", str(tmp_path / action)]) == 0
        outputs.append(_output_bytes(tmp_path / action))
    assert outputs[0] == outputs[1]


def test_implant_action_from_config_file(tmp_path):
    config = tmp_path / "implant.cfg"
    config.write_text("action = budget\n")
    assert main(["implant", "--config", str(config), "--output-dir", str(tmp_path / "cfg")]) == 0
    assert main(["implant", "budget", "--output-dir", str(tmp_path / "flag")]) == 0
    assert _output_bytes(tmp_path / "cfg") == _output_bytes(tmp_path / "flag")
    assert _read_json(tmp_path / "cfg" / "manifest.json")["options"]["action"] == "budget"


def test_implant_missing_action_exits_2(tmp_path, capsys):
    assert main(["implant", "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: implant requires an action (plan or budget)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("diameter", ["1e-300", "1e300"])
def test_implant_plan_extreme_diameter_exits_4(tmp_path, capsys, diameter):
    argv = ["implant", "plan", "--diameter-m", diameter, "--output-dir", str(tmp_path)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,code,message", [
    (["implant", "plan", "--current-a=5e-324"], 4,
     "numerical failure: {out}/implant_plan.json: a value to write is not finite"),
    (["implant", "budget", "--leak-sccm=1.7e308"], 4,
     "numerical failure: {out}/nitrogen_budget.json: a value to write is not finite"),
    (["implant", "budget", "--flow-sccm=5e-324"], 4,
     "numerical failure: {out}/nitrogen_budget.json: a value to write is not finite"),
    (["implant", "budget", "--incorporation-rate=1.7e308"], 2,
     "error: incorporation_rate must lie in [0, 1]"),
    (["odmr", "--linewidth-hz=5e-324"], 2,
     "error: linewidth_fwhm_hz is too small: its half width rounds to 0"),
], ids=["plan-current", "budget-leak", "budget-flow", "budget-incorporation", "odmr-linewidth"])
def test_results_outside_the_float_range_are_refused(tmp_path, capsys, argv, code, message):
    # A finite option whose result overflows is refused at the writer (exit
    # 4); one outside its physical range by the dataclass that owns it (exit
    # 2).  Either way no file is written and no warning printed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--output-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err == message.format(out=tmp_path) + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sense", "--t2-star-s", "inf"],
        ["sense", "--t2-dd-s", "nan"],
        ["implant", "budget", "--leak-sccm", "nan"],
        ["implant", "plan", "--dose-cm2", "inf"],
        ["implant", "plan", "--diameter-m", "inf"],
        ["decay", "--t1-s", "1e-3", "--t1-q", "inf"],
        ["odmr", "--f-min-hz", "-inf"],
    ],
    ids=["sense-t2-star-inf", "sense-t2-dd-nan", "budget-leak-nan", "plan-dose-inf",
         "plan-diameter-inf", "decay-t1-q-inf", "odmr-f-min-minus-inf"],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_option_values_exit_2(tmp_path, capsys, argv, source):
    # Every float option is parsed finite, so nan and inf never reach a
    # command or the JSON it writes.
    *command, flag, value = argv
    if source == "config":
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag.removeprefix('--')} = {value}\n")
        command += ["--config", str(config)]
    else:
        command.append(f"{flag}={value}")
    assert main([*command, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"expected a finite number, got {value!r}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_implant_bad_action_exits_2_listing_the_choices(tmp_path, capsys):
    assert main(["implant", "dose", "--output-dir", str(tmp_path / "out")]) == 2
    assert "expected one of plan, budget; got 'dose'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scan_vdp_mode(tmp_path):
    code = main(
        [
            "scan",
            "--mode",
            "vdp",
            "--r-a-ohm",
            "100",
            "--r-b-ohm",
            "100",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = _read_json(tmp_path / "scan_vdp.json")
    assert report["sheet_resistance_ohm_sq"] == pytest.approx(453.236, rel=1e-5)


def _scan_vdp_in_subprocess(r_a, r_b, out_dir):
    """``nvforge scan --mode vdp`` in a subprocess with a timeout: a bracket
    search from pi (R_A + R_B) = inf never ends."""
    argv = ["scan", "--mode", "vdp", "--r-a-ohm", r_a, "--r-b-ohm", r_b, "--output-dir", str(out_dir)]
    env = {**os.environ, "PYTHONPATH": str(Path(nvforge.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "nvforge.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("r_a, r_b", [("5e307", "5e307"), ("1e308", "1e308")])
def test_scan_vdp_huge_resistance_exits_4(tmp_path, r_a, r_b):
    # R_s = pi R / ln 2 overflows.
    proc = _scan_vdp_in_subprocess(r_a, r_b, tmp_path)
    assert proc.returncode == 4
    assert proc.stderr.startswith("numerical failure: ") and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "r_a, r_b, sheet_resistance",
    [
        ("1e-300", "1e-300", math.pi * 1e-300 / math.log(2.0)),
        ("1e300", "100", 4.6223766434881736e297),
        ("1e308", "1", 4.471118302080967e305),  # pi * 1e308 overflows, R_s does not
        ("5e-324", "1e300", 2.2000694181365975e297),  # R_min / R_max underflows to 0
    ],
)
def test_scan_vdp_extreme_finite_roots_exit_0(tmp_path, r_a, r_b, sheet_resistance):
    assert _scan_vdp_in_subprocess(r_a, r_b, tmp_path).returncode == 0
    report = _read_json(tmp_path / "scan_vdp.json")
    assert report["sheet_resistance_ohm_sq"] == sheet_resistance
    assert report["sheet_conductance_s_sq"] == 1.0 / sheet_resistance


def test_scan_depth_pipeline(tmp_path):
    fx = tmp_path / "fx"
    assert main(["fixtures", "--target", "fig6", "--output-dir", str(fx)]) == 0
    out = tmp_path / "out"
    code = main(
        [
            "scan",
            "--mode",
            "depth",
            "--input",
            str(fx / "fig6_depth_profile.csv"),
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    assert _read_json(out / "scan_depth.json")["thickness_um"] == pytest.approx(265.0, abs=2.0)


def test_scan_ratio_pipeline(tmp_path):
    fx = tmp_path / "fx"
    assert main(["fixtures", "--target", "s1s2s3", "--output-dir", str(fx)]) == 0
    out = tmp_path / "out"
    code = main(
        [
            "scan",
            "--mode",
            "ratio",
            "--input",
            str(fx / "spectrum_s2.csv"),
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    assert _read_json(out / "scan_ratio.json")["ratio_c0_cminus"] == pytest.approx(2.8, rel=1e-3)


def test_scan_spots_pipeline(tmp_path):
    fx = tmp_path / "fx"
    assert main(["fixtures", "--target", "fig5", "--output-dir", str(fx)]) == 0
    out = tmp_path / "out"
    code = main(
        [
            "scan",
            "--mode",
            "spots",
            "--input",
            str(fx / "fig5_spot_grid.csv"),
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    spots = _read_json(out / "scan_spots.json")["spots"]
    assert len(spots) == 1
    assert spots[0]["fwhm_x_um"] == pytest.approx(15.0, rel=0.05)
    assert spots[0]["fwhm_y_um"] == pytest.approx(27.0, rel=0.05)


def test_scan_spectrum_pipeline(tmp_path):
    fx = tmp_path / "fx"
    assert main(["fixtures", "--target", "raman", "--output-dir", str(fx)]) == 0
    out = tmp_path / "out"
    code = main(
        [
            "scan",
            "--mode",
            "spectrum",
            "--input",
            str(fx / "raman_spectrum.csv"),
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    peaks = _read_json(out / "scan_spectrum.json")["peaks"]
    assert len(peaks) == 1
    assert peaks[0]["label"] == "diamond_raman"
    assert peaks[0]["fwhm"] == pytest.approx(1.61, rel=0.05)


def test_scan_purity_pipeline(tmp_path):
    from nvforge import fixtures as fx_mod

    grid, expected = fx_mod.purity_grid_s4()
    grid_path = tmp_path / "grid.csv"
    dataio.write_scan_grid_csv(grid, grid_path)
    out = tmp_path / "out"
    code = main(
        ["scan", "--mode", "purity", "--input", str(grid_path), "--output-dir", str(out)]
    )
    assert code == 0
    assert _read_json(out / "scan_purity.json")["clean_fraction"] == pytest.approx(
        expected, abs=0.01
    )


SPOT_KEYS = {"centroid_x_um", "centroid_y_um", "fwhm_x_um", "fwhm_y_um", "peak_rate"}
PEAK_KEYS = {"center", "fwhm", "area", "amplitude", "label"}
PLAN_KEYS = {
    "dose_phi_cm2", "duration_s", "n_pulses", "depth_mean_nm", "straggle_nm",
    "yield_fraction", "nv_areal_cm2", "nv_ppm_in_slab", "saturation_warning",
}
SENSITIVITY_KEYS = {"eta_dc_t_per_sqrt_hz", "eta_ac_t_per_sqrt_hz", "enhancement_factor", "assumptions"}
ASSUMPTION_KEYS = {
    "concentration_aleph_ppm", "detection_volume_m3", "photon_rate_per_center_cps",
    "contrast", "n_centers", "t2_star_s", "t2_dd_s", "gamma_hz_per_t",
}


# (fixture target and file read by --input, or None; argv; output file;
#  {part: keys}), where part "" is the whole file and any other part names a
#  record, or a list of records, inside it.
@pytest.mark.parametrize(
    "fixture, argv, name, parts",
    [
        pytest.param(("fig5", "fig5_spot_grid.csv"), ["scan", "--mode", "spots"], "scan_spots.json",
                     {"": {"spots"}, "spots": SPOT_KEYS}, id="scan_spots"),
        pytest.param(("raman", "raman_spectrum.csv"), ["scan", "--mode", "spectrum"],
                     "scan_spectrum.json", {"": {"peaks"}, "peaks": PEAK_KEYS}, id="scan_spectrum"),
        pytest.param(("fig6", "fig6_depth_profile.csv"), ["scan", "--mode", "depth"],
                     "scan_depth.json", {"": {"surface_z_um", "interface_z_um", "thickness_um"}},
                     id="scan_depth"),
        pytest.param(("s1s2s3", "spectrum_s2.csv"), ["scan", "--mode", "ratio"], "scan_ratio.json",
                     {"": {"ratio_c0_cminus", "kappa"}}, id="scan_ratio"),
        pytest.param(("fig5", "fig5_spot_grid.csv"), ["scan", "--mode", "purity"],
                     "scan_purity.json", {"": {"background_rate", "clean_fraction"}},
                     id="scan_purity"),
        pytest.param(None, ["implant", "plan"], "implant_plan.json", {"": PLAN_KEYS},
                     id="implant_plan"),
        pytest.param(None, ["implant", "budget"], "nitrogen_budget.json",
                     {"": {"gas_n2_fraction", "incorporated_fraction", "incorporated_ppb"}},
                     id="nitrogen_budget"),
        pytest.param(None, ["sense", "--t2-dd-s", "173e-6"], "sensitivity.json",
                     {"": SENSITIVITY_KEYS, "assumptions": ASSUMPTION_KEYS}, id="sensitivity"),
    ],
)
def test_record_file_keys(tmp_path, fixture, argv, name, parts):
    if fixture is not None:
        target, csv = fixture
        assert main(["fixtures", "--target", target, "--output-dir", str(tmp_path / "fx")]) == 0
        argv = [*argv, "--input", str(tmp_path / "fx" / csv)]
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
    report = _read_json(tmp_path / "out" / name)
    for part, keys in parts.items():
        records = report[part] if part else report
        records = records if isinstance(records, list) else [records]
        assert records and all(set(r) == keys for r in records), part


def test_scan_missing_input_exits_2(tmp_path):
    assert main(["scan", "--mode", "depth", "--output-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize("mode", ["spots", "purity"])
def test_scan_grid_with_a_repeated_pixel_exits_2(tmp_path, capsys, mode):
    # An 8 x 8 grid plus a second row for pixel (1, 1); the last row used to win.
    rows = [f"{x}.0,{y}.0,5.0" for y in range(8) for x in range(8)] + ["1.0,1.0,400.0"]
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["x_um,y_um,counts", *rows]) + "\n")
    assert main(["scan", "--mode", mode, "--input", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: scan-grid CSV repeats a pixel: 65 rows for 8 x 8 pixels\n"
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize(
    "error",
    [
        fitkit.FitError,
        fitkit.RankDeficientDataError,
        fitkit.FitConvergenceError,
        scan.DepthProfileError,
        scan.MissingZplError,
    ],
)
def test_exit_4_errors_are_numerical_failures(error):
    # main maps exactly NumericalFailure to exit 4.
    assert issubclass(error, NumericalFailure)


def _constant_depth_profile(directory):
    path = directory / "flat.csv"
    z = np.arange(0.0, 20.0, 0.5)
    dataio.write_depth_profile_csv(scan.DepthProfile(z, np.full(z.size, 300.0)), path)
    return path


def _raman_spectrum(directory):
    assert main(["fixtures", "--target", "raman", "--output-dir", str(directory)]) == 0
    return directory / "raman_spectrum.csv"


@pytest.mark.parametrize(
    "mode, make_input, message",
    [
        ("depth", _constant_depth_profile, "profile is constant; no steps to detect"),
        ("ratio", _raman_spectrum, "NV0 ZPL at 575 nm not found in spectrum"),
    ],
)
def test_scan_numerical_failure_exits_4(tmp_path, capsys, mode, make_input, message):
    path = make_input(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(["scan", "--mode", mode, "--input", str(path), "--output-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not (out / f"scan_{mode}.json").exists()


def test_fixtures_table2_with_discrepancy_flag(tmp_path):
    assert main(["fixtures", "--target", "table2", "--output-dir", str(tmp_path)]) == 0
    data = _read_json(tmp_path / "table2_samples.json")
    assert len(data["samples"]) == 5
    s5 = data["samples"][-1]
    assert s5["dose_discrepancy"] is True
    assert s5["dose_cm2"] == 4e15


@pytest.mark.parametrize(
    "target, curves",
    [
        ("fig7", lambda: {f"fig7_cpmg{n:02d}.csv": c for n, c in fixtures.decay_family_fig7()}),
        ("fig9", lambda: {f"fig9_{k}.csv": c for k, c in fixtures.xy_curves_fig9().items()}),
    ],
    ids=["fig7", "fig9"],
)
def test_fixtures_decay_families(tmp_path, target, curves):
    assert main(["fixtures", "--target", target, "--output-dir", str(tmp_path)]) == 0
    expected = curves()
    assert sorted(expected) == sorted(p.name for p in tmp_path.glob("*.csv"))
    for name, curve in expected.items():
        written = dataio.read_decay_csv(tmp_path / name)
        assert np.array_equal(written.times_s, curve.times_s)
        assert np.array_equal(written.signal, curve.signal)


def test_fixtures_unknown_target_exits_2(tmp_path):
    assert main(["fixtures", "--target", "fig99", "--output-dir", str(tmp_path)]) == 2


def test_fixtures_seeded_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["fixtures", "--target", "fig6", "--seed", "5", "--output-dir", str(out)]) == 0
    assert _output_bytes(out1) == _output_bytes(out2)


def test_manifest_contents(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("bz-t = 0.0\n")
    out = tmp_path / "out"
    assert main(["odmr", "--config", str(config), "--output-dir", str(out)]) == 0
    manifest = _read_json(out / "manifest.json")
    assert manifest["tool"] == "nvforge"
    assert manifest["command"] == "odmr"
    assert str(config) in manifest["input_hashes"]
    assert sorted(manifest["outputs"]) == ["odmr.csv", "odmr_lines.json"]
    assert manifest["wall_time_s"] >= 0.0


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main() reuses one argparse tree; each call must still give what a
    # fresh tree gives, after a parse error and after --version too.
    def session(root, fresh):
        steps = [
            ["decay", "--no-such-flag"],
            ["--version"],
            ["decay", "--engine", "both", "--n-traj", "2000", "--output-dir", str(root / "decay")],
            ["fit", "--input", str(root / "decay" / "decay_analytic.csv"), "--output-dir", str(root / "fit")],
        ]
        results = []
        for argv in steps:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(argv)
            out, err = (text.replace(str(root), "<ROOT>") for text in capsys.readouterr())
            results.append((code, out, err))
        return results + [_output_bytes(root / "decay"), _output_bytes(root / "fit")]

    cli._build_parser.cache_clear()
    reused = session(tmp_path / "reused", fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused[:4]] == [2, 0, 0, 0]
    assert reused == session(tmp_path / "fresh", fresh=True)


def test_help_lists_all_config_keys():
    import io
    from contextlib import redirect_stdout

    for command, spec in COMMANDS.items():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main([command, "--help"])
        assert code == 0
        text = "".join(buffer.getvalue().split())  # argparse wraps lines, also at hyphens
        assert "[default:None]" not in text, command
        for name, (typ, _, _) in spec.options.items():
            assert (name if name == spec.positional else "--" + name.replace("_", "-")) in text
            for value in getattr(typ, "choices", ()):
                assert value in text, (command, name, value)


def test_import_nvforge_loads_no_submodule_and_no_numpy():
    # The package namespace holds only __version__; names live in their modules.
    # The constants are plain floats, so importing them loads no numpy either.
    env = {**os.environ, "PYTHONPATH": str(Path(nvforge.__file__).parents[1])}
    for module, loaded in (("nvforge", []), ("nvforge.constants", ["nvforge.constants"])):
        code = (
            f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith(('nvforge.', 'numpy'))), nvforge.__version__)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{loaded} 0.1.0\n", ""), module


def _modules_after(argv, tmp_path, prefixes=("nvforge.", "numpy")):
    """Exit code and the sorted modules named with ``prefixes`` loaded by one CLI run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(nvforge.__file__).parents[1])}
    env.pop("NVFORGE_SEED", None)
    code = (
        "import contextlib, io, json, sys\n"
        "from nvforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, sorted(m for m in sys.modules if m.startswith({prefixes!r}))]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == "", argv
    return tuple(json.loads(proc.stdout))


NO_NUMPY_RUNS = [  # argv, exit code, nvforge modules loaded besides cli and constants
    (["sense"], 0, ["magnetometry"]),
    (["implant", "plan"], 0, ["implant"]),
    (["implant", "budget"], 0, ["implant"]),
    (["scan", "--mode", "vdp", "--r-a-ohm", "100", "--r-b-ohm", "250"], 0, ["vdp"]),
    (["--help"], 0, []),
    (["decay", "--help"], 0, []),
    (["--version"], 0, []),
    (["implant"], 2, []),  # no action
    (["implant", "plan", "--current-a=5e-324"], 4, ["implant"]),  # a plan time that is not finite
]


@pytest.mark.parametrize("argv, exit_code, loaded", NO_NUMPY_RUNS, ids=[" ".join(run[0]) for run in NO_NUMPY_RUNS])
def test_pure_python_commands_load_no_numpy(tmp_path, argv, exit_code, loaded):
    # These compute with math alone; the CLI imports each handler's modules when it runs.
    assert _modules_after(argv, tmp_path) == (
        exit_code, sorted(f"nvforge.{m}" for m in ("cli", "constants", *loaded)))


@pytest.mark.parametrize("argv", [
    ["--help"], ["--version"], ["scan", "--mode", "vdp", "--r-a-ohm", "100", "--r-b-ohm", "250"],
], ids=" ".join)
def test_start_up_loads_no_dataclasses_inspect_or_hashlib(tmp_path, argv):
    # Command is a NamedTuple; the JSON hook and the manifest's input hashes import theirs when called.
    assert _modules_after(argv, tmp_path, ("dataclasses", "inspect", "hashlib")) == (0, [])


# The module sets of the numpy commands: each command kind of perfbench's cli-session, plus the
# decay fixtures, the metadata fixture and the engine comparison.
FIXTURE_MODULES = ("fixtures", "noise")
NUMPY_RUNS = [  # argv, nvforge modules loaded besides cli, constants and dataio, numpy.random loaded
    (["decay", "--engine", "both", "--n-times", "8"], ["engines", "noise", "presets", "sequences"], True),
    (["decay", "--sequence", "hahn"], ["engines", "noise", "presets", "sequences"], False),
    (["fit", "--input", "fig7_cpmg04.csv"], ["fitkit", "levmar"], False),
    (["odmr"], ["spincore"], False),
    (["fixtures", "--target", "fig5"], FIXTURE_MODULES, True),
    (["fixtures", "--target", "fig6"], FIXTURE_MODULES, True),
    (["fixtures", "--target", "s1s2s3"], FIXTURE_MODULES, False),
    (["fixtures", "--target", "raman"], FIXTURE_MODULES, False),
    (["fixtures", "--target", "fig7"], [*FIXTURE_MODULES, "engines", "presets", "sequences"], False),
    (["fixtures", "--target", "table2"], [*FIXTURE_MODULES, "implant"], False),
    *((["scan", "--mode", mode, "--input", name], ["levmar", "scan"], False) for mode, name in (
        ("spots", "fig5_spot_grid.csv"), ("purity", "fig5_spot_grid.csv"), ("depth", "fig6_depth_profile.csv"),
        ("spectrum", "spectrum_s1.csv"), ("ratio", "spectrum_s2.csv"))),
]
#: Input file -> its payload, written before the run that reads it.
NUMPY_RUN_INPUTS = {
    "fig7_cpmg04.csv": lambda: dict(fixtures.decay_family_fig7())[4],
    "fig5_spot_grid.csv": lambda: fixtures.spot_grid_fig5(0),
    "fig6_depth_profile.csv": lambda: fixtures.depth_profile_fig6(0),
    "spectrum_s1.csv": lambda: fixtures.spectrum_s123("s1"),
    "spectrum_s2.csv": lambda: fixtures.spectrum_s123("s2"),
}


@pytest.mark.parametrize("argv, loaded, draws", NUMPY_RUNS, ids=[" ".join(run[0]) for run in NUMPY_RUNS])
def test_numpy_commands_load_no_new_module(tmp_path, argv, loaded, draws):
    # Each loads only the modules its handler calls; numpy.ma, which np.median and a plain
    # np.unique import, is never loaded, and numpy.random only for a draw.
    if "--input" in argv:
        name = argv[argv.index("--input") + 1]
        dataio.write(tmp_path / name, NUMPY_RUN_INPUTS[name]())
    exit_code, modules = _modules_after([*argv, "--output-dir", "out"], tmp_path)
    assert exit_code == 0
    assert "numpy" in modules
    assert [m for m in modules if m.startswith("nvforge.")] == sorted(
        f"nvforge.{m}" for m in ("cli", "constants", "dataio", *loaded))
    assert not [m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")]
    assert ("numpy.random" in modules) == draws


# SHA-256 of stdout for each --help and --version at 80 columns (Python 3.11's
# argparse), recorded when every handler's modules were imported at the CLI's top.
HELP_DIGESTS = {
    "--help": "65d32fe08a5d0a7c9503e478656d692511d032a07ab1fd9843b7f4b8c7caa9ad",
    "odmr --help": "422deaee621f5761ea827405e0f5d9368a84620d5ea6fe8853a062d08c0f9005",
    "decay --help": "54916779123e753e54416f49f25f1be63d4f16652346606d248b0cc249bd30b5",
    "fit --help": "f9b000d373e53396b978316de918370e90680786487b74acd6f5095056f59049",
    "sense --help": "f3b3eaf28f0cc2859fb9b2ea59a22d783b9713ea46542a88348912a7611a77bc",
    "implant --help": "033bf4ca461764138b4dfaf8f0ff889474be2c6fe1010802e199ce264bd673be",
    "scan --help": "8c4a833856daa9c982ffef628902c8693fdae1ee03b8a97d5a139ffbf7f79152",
    "fixtures --help": "d1b6bf598a8082530bc5ae23d9f3d20d78b47ab4db959839c50332a37cd1fa10",
    "--version": "a9c67c5f54b71e9e1e4a4e3ceed69d01ecdc80cc4e3c03ce01c3df3f26a1ff1c",
}


def test_help_and_version_keep_their_bytes(monkeypatch):
    assert sys.version_info[:2] == (3, 11), "the digests were made with Python 3.11's argparse"
    assert list(HELP_DIGESTS) == ["--help", *(f"{name} --help" for name in COMMANDS), "--version"]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    for args, digest in HELP_DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(args.split()) == 0, args
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, args


# The exit-code contract over every command of the registry.  Floats come
# from the float range's edges and the option's default; ints are kept small
# enough (and the MC cheap enough) for one run to take well under a second.
CONTRACT_FLOATS = ("0", "-1", "5e-324", "1e-300", "1e300", "1.7e308")
CONTRACT_INT_MAX = {"n_traj": 2000, "n_pulses": 2048, "n_times": 64, "n_freq": 4001, "seed": 2**32}
CONTRACT_BOOLEANS = ("true", "false", "1", "0", "yes", "no", "on", "off")


@st.composite
def contract_argv(draw):
    """One CLI call: a command and its options, each ``--option=value``."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    options = {"seed": cli.COMMON_OPTIONS["seed"], **command.options}
    # The options that pick a branch (a choice or an input file) are always
    # set, and so is the MC's trajectory count, to keep it small.
    picks = [o for o, (typ, _, _) in command.options.items()
             if typ is str or hasattr(typ, "choices") or o == "n_traj"]
    others = sorted(set(options) - set(picks))
    argv = [name]
    for option in picks + draw(st.lists(st.sampled_from(others), max_size=4, unique=True)):
        typ, default, _ = options[option]
        if typ is cli.finite:
            ordinary = [repr(default), repr(-default)] if default else ["1e-6", "2.5"]
            value = draw(st.sampled_from(CONTRACT_FLOATS) | st.sampled_from(ordinary))
        elif typ is int:
            value = str(draw(st.integers(-1, CONTRACT_INT_MAX[option])))
        elif typ is cli.boolean:
            value = draw(st.sampled_from(CONTRACT_BOOLEANS))
        elif hasattr(typ, "choices"):
            value = draw(st.sampled_from(typ.choices))
            value = draw(st.sampled_from([value, value.upper(), value.title()]))
        else:  # str: an input file of the working directory
            value = draw(st.sampled_from(CONTRACT_INPUTS))
        if option == command.positional:
            argv.insert(1, value)
        else:
            argv.append(f"--{option.replace('_', '-')}={value}")
    return argv


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


# Well-formed inputs besides the same-bytes script's ill-formed ones: name -> payload maker.
CONTRACT_FIXTURES = {
    "decay.csv": lambda: fixtures.decay_family_fig7()[0][1],
    "grid.csv": lambda: fixtures.spot_grid_fig5(0),
    "depth.csv": lambda: fixtures.depth_profile_fig6(0),
    "spectrum.csv": lambda: fixtures.spectrum_s123("s1"),
}
CONTRACT_INPUTS = (*sorted(same_bytes.INPUT_FILES), *CONTRACT_FIXTURES, "missing.csv")


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """A directory holding every input file the contract test may name."""
    root = tmp_path_factory.mktemp("contract")
    for name, text in same_bytes.INPUT_FILES.items():
        (root / name).write_text(text)
    for name, make in CONTRACT_FIXTURES.items():
        dataio.write(root / name, make())
    return root


@settings(max_examples=600, derandomize=True, deadline=None)
@given(argv=contract_argv())
@example(argv=["odmr", "--f-min-hz=0", "--zfs-d-hz=1e308"])  # eight centres whose sum overflows
@example(argv=["odmr", "--gamma-hz-per-t=1.7e308", "--bz-t=1"])  # a grid span that overflows
@example(argv=["decay", "--t-min-s=1.7976931348623157e308", "--t-max-s=2.5"])  # log-grid points that overflow
@example(argv=["decay", "--t-min-s=1e-6", "--t-max-s=1.7976931348623157e308"])  # the same, up to the largest float
def test_every_command_keeps_the_exit_code_contract(contract_dir, argv):
    # Exit 0, 2, 3 or 4; no traceback or RuntimeWarning; nothing non-finite written.
    out_dir = Path(tempfile.mkdtemp(dir=contract_dir))
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(contract_dir)  # input files are named relative to it
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([*argv, "--output-dir", str(out_dir)])
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), argv
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert "Traceback" not in err.getvalue() and "RuntimeWarning" not in err.getvalue(), argv
    for path in out_dir.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=_refuse_constant)
        else:
            assert not re.search(r"nan|inf", text.split("\n", 1)[1], re.IGNORECASE), (argv, path.name)
    shutil.rmtree(out_dir)
