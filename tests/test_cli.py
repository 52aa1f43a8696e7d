import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nvforge
from nvforge import cli, dataio, fitkit, fixtures, magnetometry, scan
from nvforge.cli import COMMANDS, main
from nvforge.curves import DecayCurve
from nvforge.levmar import NumericalFailure


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

    monkeypatch.setattr(cli, "simulate_mc", nan_mc)
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
    # The beat model on a Hahn echo drives T2* onto its lower bound, where
    # the Jacobian is no longer finite: a numerical failure, not bad input.
    assert main(["decay", "--sequence", "hahn", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    curve = tmp_path / "decay_analytic.csv"
    code = main(
        ["fit", "--input", str(curve), "--model", "fid_beats", "--output-dir", str(tmp_path / "fit")]
    )
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numerical failure:")
    assert "Warning" not in err


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
