import json

import numpy as np
import pytest

from nvforge import dataio, fitkit
from nvforge.cli import main


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


@pytest.mark.parametrize("command", [["fit"], ["scan", "--mode", "spots"]], ids=["fit", "scan"])
@pytest.mark.parametrize("case", ["missing", "directory", "empty", "header_only", "short_row"])
def test_bad_input_file_exits_2(tmp_path, capsys, command, case):
    path = tmp_path / "input.csv"
    if case == "directory":
        path.mkdir()
    elif case == "empty":
        path.write_text("")
    elif case != "missing":
        header = "x_um,y_um,counts\n" if command[0] == "scan" else "time_s,signal\n"
        path.write_text(header + ("1.0\n" if case == "short_row" else ""))
    code = main(command + ["--input", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize(
    "args",
    [
        ["--t-min-s", "1e-7"],
        ["--n-times", "0", "--engine", "analytic"],
        ["--n-times", "0", "--engine", "both"],
    ],
    ids=["t_min_only", "no_points-analytic", "no_points-both"],
)
def test_decay_partial_time_grid_exits_2(tmp_path, args):
    code = main(["decay", *args, "--output-dir", str(tmp_path)])
    assert code == 2
    assert list(tmp_path.iterdir()) == []


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
    from nvforge.curves import DecayCurve

    dataio.write_decay_csv(
        DecayCurve(t, np.exp(-((t / 6.4e-6) ** 0.96))), curve_path, sidecar=False
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


def test_fit_command_missing_input_exits_2(tmp_path):
    assert main(["fit", "--output-dir", str(tmp_path)]) == 2


def test_fit_command_constant_signal_exits_4(tmp_path):
    t = np.geomspace(1e-7, 1e-5, 30)
    curve_path = tmp_path / "flat.csv"
    from nvforge.curves import DecayCurve

    dataio.write_decay_csv(DecayCurve(t, np.full(30, 0.5)), curve_path, sidecar=False)
    code = main(["fit", "--input", str(curve_path), "--output-dir", str(tmp_path)])
    assert code == 4  # rank-deficient data is a numerical failure


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

    grid, expected = fx_mod.purity_grid_s4(seed=0)
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


def test_scan_missing_input_exits_2(tmp_path):
    assert main(["scan", "--mode", "depth", "--output-dir", str(tmp_path)]) == 2


def test_fixtures_table2_with_discrepancy_flag(tmp_path):
    assert main(["fixtures", "--target", "table2", "--output-dir", str(tmp_path)]) == 0
    data = _read_json(tmp_path / "table2_samples.json")
    assert len(data["samples"]) == 5
    s5 = data["samples"][-1]
    assert s5["dose_discrepancy"] is True
    assert s5["dose_cm2"] == 4e15


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


def test_help_lists_all_config_keys():
    import io
    from contextlib import redirect_stdout

    from nvforge.cli import COMMANDS

    for command, spec in COMMANDS.items():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main([command, "--help"])
        assert code == 0
        text = buffer.getvalue()
        for name in spec.options:
            assert "--" + name.replace("_", "-") in text
