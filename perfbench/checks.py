"""Output checks: each returns the list of ways one op's output is wrong.

An empty list means the op passed.  Every check compares against
:mod:`perfbench.oracles`, never against numbers stored from an earlier
run of nvforge, so exact last-bit or Monte-Carlo draw changes in the
engines do not trip them while a wrong answer does.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import oracles as orc

# Analytic curve vs oracle.  nvforge's O(n^2) kernel agreed to ~2e-13 over
# decay-sweep and engine-crosscheck, but loses digits to cancellation on
# the slow-bath Hahn curve (1.2e-8 at t/tau_c ~ 1e-3); 1e-7 passes that and
# still flags a 1e-4 error a thousandfold.
CURVE_ATOL = 1e-7
ENDPOINT_ATOL = 1e-6  # grid endpoints vs e^-0.02 and e^-3
FIT_RMS_MAX = 0.03  # stretched-exp fits to OU curves stay below ~0.012
PAPER_HAHN_T2_S = 6.4e-6  # the paper-like bath's Hahn 1/e time
ELEMENTARY_CHARGE_C = 1.602176634e-19
AIR_N2_FRACTION = 0.78


def _close(got, want, rel, abs_=0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_)


def curve_against_oracle(times, signal, kind, n, b, tau_c, t1=None, q=1.0) -> list[str]:
    """Analytic curve vs the closed forms, and its grid endpoints vs the targets."""
    bad = []
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if times.size < 2 or times.shape != signal.shape or np.any(np.diff(times) <= 0):
        return [f"malformed curve: {times.size} times, {signal.size} values"]
    ref = orc.coherence(kind, n, b, tau_c, times, t1, q)
    err = float(np.max(np.abs(signal - ref)))
    if not err <= CURVE_ATOL:
        bad.append(f"curve differs from oracle by {err:.3e} (> {CURVE_ATOL:g})")
    for got, target in ((ref[0], math.exp(-orc.GRID_DECAY_LO)), (ref[-1], math.exp(-orc.GRID_DECAY_HI))):
        if not abs(got - target) <= ENDPOINT_ATOL:
            bad.append(f"grid endpoint signal {got:.9f}, want {target:.9f}")
    ratios = times[1:] / times[:-1]
    if not np.allclose(ratios, ratios[0], rtol=1e-9):
        bad.append("grid is not log-spaced")
    return bad


def stretched_fit(fit: dict, times, signal, pinned: bool) -> list[str]:
    """A stretched-exp fit must converge, sit in range and report its own residual."""
    params = fit["params"]
    bad = []
    if not fit["converged"]:
        bad.append("fit did not converge")
    if pinned and params["c"] != 0.0:
        bad.append(f"pinned offset moved to {params['c']}")
    if not 0.3 <= params["p"] <= 3.0:
        bad.append(f"stretching exponent {params['p']} outside [0.3, 3]")
    if not times[0] < params["t2_s"] < times[-1]:
        bad.append(f"T2 {params['t2_s']:.3e} s outside the sampled window")
    model = orc.stretched_exp(times, params["a"], params["t2_s"], params["p"], params["c"])
    rms = float(np.sqrt(np.mean((model - np.asarray(signal)) ** 2)))
    if not _close(fit["residual_rms"], rms, 1e-6, 1e-15):
        bad.append(f"reported residual {fit['residual_rms']:.6e} != recomputed {rms:.6e}")
    if not rms <= FIT_RMS_MAX:
        bad.append(f"fit residual {rms:.4f} > {FIT_RMS_MAX}")
    return bad


def written_curve(path: Path, times, signal, engine: str) -> list[str]:
    """The CSV holds exactly the curve's values, next to a JSON sidecar."""
    path = Path(path)
    if not path.exists() or not path.with_suffix(".json").exists():
        return [f"missing {path.name} or its sidecar"]
    t, s = orc.read_curve(path)
    bad = []
    if not (np.array_equal(t, times) and np.array_equal(s, signal)):
        bad.append(f"{path.name} does not round-trip the curve")
    if orc.read_json(path.with_suffix(".json")).get("engine") != engine:
        bad.append(f"{path.name} sidecar does not name engine {engine!r}")
    return bad


# --- decay-sweep ---------------------------------------------------------


def decay_op(op: dict, out: dict) -> list[str]:
    bad = curve_against_oracle(
        out["times"], out["signal"], op["seq"], op["n"], op["b"], op["tau_c"], op["t1"], op["q"]
    )
    if len(out["times"]) != op["n_points"]:
        bad.append(f"grid has {len(out['times'])} points, want {op['n_points']}")
    bad += stretched_fit(out["fit"], out["times"], out["signal"], pinned=True)
    bad += written_curve(out["path"], out["times"], out["signal"], "analytic")
    return bad


def fid_op(op: dict, out: dict) -> list[str]:
    ref = orc.fid_beats(op["detuning_hz"], op["a_hf_hz"], op["multiplicities"], op["t2_star_s"], out["times"])
    bad = []
    err = float(np.max(np.abs(out["signal"] - ref)))
    if not err <= 1e-12:
        bad.append(f"FID curve differs from closed form by {err:.3e}")
    params = out["fit"]["params"]
    for key, want in (("t2_star_s", op["t2_star_s"]), ("delta_hz", op["detuning_hz"]), ("a_hf_hz", op["a_hf_hz"])):
        if not _close(params[key], want, 1e-5):
            bad.append(f"noiseless FID fit {key} = {params[key]!r}, want {want!r}")
    if not (out["fit"]["converged"] and _close(params["a"], 1.0, 0.0, 1e-5) and abs(params["c"]) <= 1e-6):
        bad.append("FID fit amplitude/offset off or not converged")
    return bad


def t2_vs_n_op(op: dict, out: dict) -> list[str]:
    table = out["table"]
    ns = [n for n, _ in table]
    t2s = np.array([t2 for _, t2 in table], dtype=float)
    if ns != list(op["n_list"]) or not np.all(np.isfinite(t2s) & (t2s > 0)):
        return [f"T2 table malformed: {table}"]
    t2 = dict(table)
    bad = []
    if op["preset"] == "paper-like":
        chi_at_t2 = float(orc.chi_hahn(out["b"], out["tau_c"], PAPER_HAHN_T2_S))
        if not _close(chi_at_t2, 1.0, 1e-9):
            bad.append(f"paper-like bath gives Hahn chi(6.4 us) = {chi_at_t2}, want 1")
        ratio = t2[64] / t2[1]
        if not ratio >= 10.0:
            bad.append(f"criterion 3b: T2(64)/T2(1) = {ratio:.2f} < 10")
    else:
        slope = orc.loglog_slope(ns, t2s)
        if not abs(slope - 2.0 / 3.0) <= 0.15:
            bad.append(f"criterion 3c: slow-bath slope {slope:.3f} not 2/3 +- 0.15")
    return bad


# --- engine-crosscheck ---------------------------------------------------

CROSSCHECK_FILES = {
    "decay_analytic.csv", "decay_analytic.json", "decay_mc.csv", "decay_mc.json",
    "engine_comparison.json",
}


def cli_outputs(exit_code: int, out_dir: Path, stdout: str, expected: set[str], command: str) -> list[str]:
    """Exit code 0, the expected files, and a manifest that lists them."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out_dir = Path(out_dir)
    missing = sorted(name for name in expected | {"manifest.json"} if not (out_dir / name).exists())
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    bad = []
    manifest = orc.read_json(out_dir / "manifest.json")
    if manifest.get("command") != command or sorted(manifest.get("outputs", [])) != sorted(expected):
        bad.append(f"manifest lists {manifest.get('outputs')} for {manifest.get('command')!r}")
    printed = {Path(line).name for line in stdout.splitlines() if line.strip()}
    if printed != expected:
        bad.append(f"printed outputs {sorted(printed)}, want {sorted(expected)}")
    return bad


def crosscheck_op(op: dict, out: dict) -> tuple[list[str], dict]:
    """Returns (problems, {"rms", "z_max"}) for one ``decay --engine both``."""
    d = Path(out["dir"])
    bad = cli_outputs(out["exit"], d, out["stdout"], CROSSCHECK_FILES, "decay")
    if bad:
        return bad, {}
    t_a, s_a = orc.read_curve(d / "decay_analytic.csv")
    t_m, s_m = orc.read_curve(d / "decay_mc.csv")
    bad += curve_against_oracle(t_a, s_a, op["seq"], op["n"], op["b"], op["tau_c"])
    if len(t_a) != op["n_times"] or not np.array_equal(t_a, t_m):
        return bad + ["MC and analytic curves are not on the same time grid"], {}
    meta = orc.read_json(d / "decay_mc.json")
    noise = meta.get("noise", {})
    if (meta.get("seed"), meta.get("n_traj")) != (op["seed"], op["n_traj"]) or (
        noise.get("b_rad_s"), noise.get("tau_c_s")) != (op["b"], op["tau_c"]):
        bad.append(f"MC sidecar is for seed {meta.get('seed')} and bath {noise}, not this op")
    stderr = np.asarray(meta.get("mc_stderr", []), dtype=float)
    ref = orc.coherence(op["seq"], op["n"], op["b"], op["tau_c"], t_m)
    rms = float(np.sqrt(np.mean((s_m - ref) ** 2)))
    if not rms <= orc.ENGINE_RMS_TOLERANCE:
        bad.append(f"MC vs analytic RMS {rms:.4f} > {orc.ENGINE_RMS_TOLERANCE}")
    report = orc.read_json(d / "engine_comparison.json")
    rms_program = float(np.sqrt(np.mean((s_m - s_a) ** 2)))
    if not (_close(report.get("rms_difference", math.nan), rms_program, 1e-9, 1e-15)
            and report.get("within_tolerance") is True
            and report.get("tolerance") == orc.ENGINE_RMS_TOLERANCE):
        bad.append(f"engine_comparison.json {report} disagrees with the curves (rms {rms_program})")
    if stderr.shape != s_m.shape or not np.all(np.isfinite(stderr) & (stderr >= 0)):
        bad.append("mc_stderr malformed")
        return bad, {"rms": rms}
    live = stderr > 0
    z_max = float(np.max(np.abs(s_m - ref)[live] / stderr[live])) if np.any(live) else 0.0
    return bad, {"rms": rms, "z_max": z_max}


# --- cli-session -----------------------------------------------------------


def _spectrum_peaks(d: Path) -> dict:
    return {p["label"]: p for p in orc.read_json(d / "scan_spectrum.json")["peaks"]}


def cli_op(op: dict, out: dict) -> list[str]:
    """Exit code, file names and the physics of one CLI command's output."""
    d = Path(out["dir"])
    bad = cli_outputs(out["exit"], d, out["stdout"], set(op["expect"]), op["argv"][0])
    if bad:
        return bad
    check = op["check"]
    p = op.get("params", {})
    if check == "grid":
        header, data = orc.read_csv(d / op["expect"][0])
        if header != ["x_um", "y_um", "counts"] or data.shape[0] != 120 * 120:
            bad.append(f"fig5 grid has header {header} and {data.shape[0]} rows")
    elif check == "profile":
        header, data = orc.read_csv(d / op["expect"][0])
        if header != ["z_um", "counts"] or data.shape[0] < 100:
            bad.append(f"fig6 profile has header {header} and {data.shape[0]} rows")
    elif check == "spectra":
        for name in op["expect"]:
            header, data = orc.read_csv(d / name)
            if header[1:] != ["counts"] or data.shape[0] < 100 or np.any(data[:, 1] < 0):
                bad.append(f"{name} malformed: {header}, {data.shape[0]} rows")
    elif check == "spots":
        spots = orc.read_json(d / "scan_spots.json")["spots"]
        fx, fy = orc.SPOT_FWHM_UM
        if not spots or not (_close(spots[0]["fwhm_x_um"], fx, 0.05) and _close(spots[0]["fwhm_y_um"], fy, 0.05)):
            bad.append(f"spot FWHM not ({fx}, {fy}) um +- 5%: {spots[:1]}")
    elif check == "purity":
        report = orc.read_json(d / "scan_purity.json")
        _, data = orc.read_csv(p["input"])
        counts = np.sort(data[:, 2])
        background = float(np.median(counts[: max(1, counts.size // 10)]))
        clean = float(np.mean(np.abs(data[:, 2] - background) <= 2.0 * math.sqrt(max(background, 1.0))))
        if not (report["background_rate"] == background and _close(report["clean_fraction"], clean, 1e-12)):
            bad.append(f"purity {report} != background {background}, clean {clean}")
        if not _close(background, 5000.0, 0.05):
            bad.append(f"background {background} not within 5% of the fixture's 5000 counts")
    elif check == "depth":
        thickness = orc.read_json(d / "scan_depth.json")["thickness_um"]
        if not abs(thickness - orc.FILM_THICKNESS_UM) <= 2.0:
            bad.append(f"film thickness {thickness:.2f} um, want 265 +- 2")
    elif check == "raman":
        peaks = orc.read_json(d / "scan_spectrum.json")["peaks"]
        top = max(peaks, key=lambda pk: pk["amplitude"]) if peaks else None
        if top is None or not (_close(top["fwhm"], orc.RAMAN_FWHM_CM1, 0.05)
                               and abs(top["center"] - orc.RAMAN_PEAK_CM1) <= 0.1):
            bad.append(f"Raman line not at 1332.54 cm-1 with FWHM 1.61 +- 5%: {top}")
    elif check == "zpl":
        peaks = _spectrum_peaks(d)
        zpl0, zplm = peaks.get("NV0_ZPL"), peaks.get("NVminus_ZPL")
        if not (zpl0 and zplm and abs(zpl0["center"] - 575.0) <= 0.5 and abs(zplm["center"] - 637.0) <= 0.5):
            bad.append(f"ZPLs not at 575 / 637 nm: {zpl0}, {zplm}")
        elif not _close(zpl0["area"] / zplm["area"], orc.CHARGE_RATIOS[p["sample"]], 1e-3):
            bad.append(f"ZPL area ratio {zpl0['area'] / zplm['area']:.5f} for {p['sample']}")
    elif check == "ratio":
        ratio = orc.read_json(d / "scan_ratio.json")
        want = p["kappa"] * orc.CHARGE_RATIOS[p["sample"]]
        if not (_close(ratio["ratio_c0_cminus"], want, 1e-3) and ratio["kappa"] == p["kappa"]):
            bad.append(f"charge ratio {ratio} != kappa * {orc.CHARGE_RATIOS[p['sample']]}")
    elif check == "odmr":
        lines = orc.read_json(d / "odmr_lines.json")["line_centers"]
        got = np.sort([line["frequency_hz"] for line in lines])
        want = orc.secular_lines(p["bx_t"], p["by_t"], p["bz_t"], p["zfs_hz"], p["gamma"])
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-12, atol=0.0):
            bad.append(f"ODMR centres {got} != D +- gamma|B.n| {want}")
        _, data = orc.read_csv(d / "odmr.csv")
        if data.shape[0] != p["n_freq"] or not np.all(data[:, 1] <= 1.0):
            bad.append("odmr.csv malformed")
    elif check == "sense":
        report = orc.read_json(d / "sensitivity.json")
        factor = math.sqrt(p["t2_dd_s"] / 3.6e-6)
        if not _close(report["eta_dc_t_per_sqrt_hz"], orc.ETA_DC_T_PER_SQRT_HZ, 1e-9):
            bad.append(f"eta_dc {report['eta_dc_t_per_sqrt_hz']} != 100 nT/rtHz")
        if not (_close(report["enhancement_factor"], factor, 1e-12)
                and _close(report["eta_ac_t_per_sqrt_hz"], orc.ETA_DC_T_PER_SQRT_HZ / factor, 1e-9)):
            bad.append(f"eta_ac {report['eta_ac_t_per_sqrt_hz']} != eta_dc sqrt(T2*/T2)")
    elif check == "plan":
        plan = orc.read_json(d / "implant_plan.json")
        atoms = 2 if p["species"] == "molecular" else 1
        area_cm2 = math.pi * (p["diameter_m"] * 50.0) ** 2
        duration = p["dose_cm2"] * area_cm2 * ELEMENTARY_CHARGE_C / (p["current_a"] * atoms)
        # nvforge rounds e to 1.602e-19, 1.1e-4 below CODATA; hence 1e-3.
        if not (_close(plan["duration_s"], duration, 1e-3) and plan["depth_mean_nm"] == 8.5
                and _close(plan["nv_areal_cm2"], 0.025 * p["dose_cm2"], 1e-12)):
            bad.append(f"implant plan {plan} != dose*area*e/I = {duration}, 8.5 nm, 2.5% yield")
    elif check == "budget":
        ppb = orc.read_json(d / "nitrogen_budget.json")["incorporated_ppb"]
        want = p["leak_sccm"] * AIR_N2_FRACTION / p["flow_sccm"] * 1e-4 * 1e9
        if not _close(ppb, want, 1e-12):
            bad.append(f"incorporated nitrogen {ppb} ppb, want {want}")
    elif check == "vdp":
        report = orc.read_json(d / "scan_vdp.json")
        rs = report["sheet_resistance_ohm_sq"]
        if abs(orc.vdp_residual(p["r_a"], p["r_b"], rs)) > 1e-10 or not _close(
                report["sheet_conductance_s_sq"], 1.0 / rs, 1e-15):
            bad.append(f"sheet resistance {rs} does not solve the Van der Pauw equation")
        if p["r_a"] == p["r_b"] and not _close(rs, math.pi * p["r_a"] / math.log(2.0), 1e-10):
            bad.append(f"symmetric sheet resistance {rs} != pi R / ln 2")
    elif check == "hahn":
        t, s = orc.read_curve(d / "decay_analytic.csv")
        noise = orc.read_json(d / "decay_analytic.json")["noise"]
        bad += curve_against_oracle(t, s, "hahn", None, noise["b_rad_s"], noise["tau_c_s"],
                                    noise["t1_s"], noise["t1_exponent_q"])
        if len(t) != p["n_times"]:
            bad.append(f"{len(t)} time points, want {p['n_times']}")
        if p["preset"] == "paper-like":
            chi_at_t2 = float(orc.chi_hahn(noise["b_rad_s"], noise["tau_c_s"], PAPER_HAHN_T2_S))
            if not _close(chi_at_t2, 1.0, 1e-9):
                bad.append(f"paper-like Hahn chi(6.4 us) = {chi_at_t2}, want 1")
    elif check == "fit":
        t, s = orc.read_curve(p["input"])
        bad += stretched_fit(orc.read_json(d / "fit_result.json"), t, s, pinned=p["pin_offset"])
    else:
        raise ValueError(f"unknown check {check!r}")
    return bad
