"""Command-line front end.

Subcommands: ``odmr``, ``decay``, ``fit``, ``sense``, ``implant``, ``scan``,
``fixtures``.  Every physical option carries its unit in the flag name
(``--tau-s``, ``--bz-t``, ``--dose-cm2``, ...) and has a one-to-one config
file counterpart; explicit flags override file values.  The environment
variable ``NVFORGE_SEED`` overrides the master seed from either source.
:data:`COMMANDS` is the one table that builds the parser, the config keys
and the dispatch.  Handlers import their modules when they run, so only the
commands that compute with numpy load it.

Config files (``--config``): one ``key = value`` pair per line, ``#``
starts a comment, blank lines are ignored.  Keys use the same names as the
CLI flags (dashes or underscores, unit suffixes included, e.g. ``tau-s =
1e-6``).  Unknown and duplicate keys are rejected.

Exit codes: 0 success, 2 configuration or input-file error, 3
acceptance-check failure (engine disagreement beyond tolerance), 4
numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__, constants
from .constants import NumericalFailure, write_json

DEFAULT_SEED = 12345
ENGINE_RMS_TOLERANCE = 0.02


class EngineMismatchError(RuntimeError):
    """Monte-Carlo and analytic engines disagree beyond tolerance."""


class ConfigError(ValueError):
    """A configuration file or flag set is invalid."""


def parse_config_file(path: Path) -> dict[str, str]:
    """Parse a config file into normalized {key: raw-string-value}."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_").lower()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def boolean(raw: str) -> bool:
    """Parse a boolean flag or config value (true/false, 1/0, yes/no, on/off)."""
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {raw!r}")


def finite(raw: str) -> float:
    """Parse a float flag or config value that must be finite.

    nan and inf raise ``ArgumentTypeError``, whose message argparse prints
    as is; a value that is no number raises ``ValueError``, as ``float`` does.
    """
    value = float(raw)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def choice(*values: str):
    """Parser for a fixed-value option: one of ``values``, matched case-insensitively.

    ``values`` are lower case; the parser returns the matching one and
    keeps the list in ``.choices``.  Any other value raises
    ``ArgumentTypeError``, whose message argparse prints as is.
    """

    def parse(raw: str) -> str:
        lowered = raw.lower()
        if lowered not in values:
            raise argparse.ArgumentTypeError(f"expected one of {', '.join(values)}; got {raw!r}")
        return lowered

    parse.choices = values
    return parse


def _write(out_dir: Path, files: dict) -> list[Path]:
    """Write each ``{file name: payload}``; returns every path written."""
    paths = []
    for name, payload in files.items():
        if name.endswith(".json"):  # no numpy needed; a CSV's writer in dataio loads it
            write_json(out_dir / name, payload)
            paths.append(out_dir / name)
        else:
            from . import dataio
            paths += dataio.write(out_dir / name, payload)
    return paths


def _noise_from_options(opts: dict):
    from . import presets
    from .noise import NoiseModel
    if opts["t1_q"] is not None and opts["t1_s"] is None:
        raise ConfigError("t1-q needs t1-s")
    q = NoiseModel.t1_exponent_q if opts["t1_q"] is None else opts["t1_q"]
    preset = opts["noise_preset"]
    if preset != "none":
        if opts["b_rad_s"] is not None or opts["tau_c_s"] is not None:
            raise ConfigError("b-rad-s and tau-c-s need noise-preset none")
        noise = presets.noise_preset(preset)
        if opts["t1_s"] is not None:
            noise = NoiseModel(noise.b_rad_s, noise.tau_c_s, opts["t1_s"], q)
        return noise
    if opts["b_rad_s"] is None or opts["tau_c_s"] is None:
        raise ConfigError("noise-preset none requires b-rad-s and tau-c-s")
    t1 = opts["t1_s"] if opts["t1_s"] is not None else math.inf
    return NoiseModel(opts["b_rad_s"], opts["tau_c_s"], t1, q)


def _cmd_odmr(opts: dict, seed: int, out_dir: Path) -> list[Path]:
    import numpy as np
    from . import dataio
    from .spincore import MagneticFieldVector, SpinParams, odmr_spectrum
    params = SpinParams(
        zfs_d_hz=opts["zfs_d_hz"],
        gyromag_hz_per_t=opts["gamma_hz_per_t"],
        linewidth_fwhm_hz=opts["linewidth_hz"],
        odmr_contrast=opts["contrast"],
    )
    field = MagneticFieldVector(opts["bx_t"], opts["by_t"], opts["bz_t"])
    f_min, f_max = opts["f_min_hz"], opts["f_max_hz"]
    if f_min is None or f_max is None:
        with np.errstate(over="ignore"):  # a field near the float limit has an infinite norm
            span = params.gyromag_hz_per_t * field.magnitude_t + 10 * params.linewidth_fwhm_hz
        if not math.isfinite(span):
            raise ConfigError("the auto frequency span is not finite; give f-min-hz and f-max-hz")
        f_min = params.zfs_d_hz - span if f_min is None else f_min
        f_max = params.zfs_d_hz + span if f_max is None else f_max
    if not f_max > f_min:
        raise ConfigError("f-max-hz must exceed f-min-hz")
    if not math.isfinite(f_max - f_min):
        raise ConfigError("the frequency span from f-min-hz to f-max-hz is not finite")
    grid = np.linspace(f_min, f_max, opts["n_freq"])
    spectrum = odmr_spectrum(params, field, grid)
    return _write(
        out_dir, {"odmr.csv": spectrum, "odmr_lines.json": dataio.odmr_line_table(spectrum)}
    )


def _cmd_decay(opts: dict, seed: int, out_dir: Path) -> list[Path]:
    import numpy as np
    from .engines import decay_time_grid, simulate_analytic, simulate_mc
    from .sequences import build_sequence
    engine = opts["engine"]
    n_pulses = opts["n_pulses"]
    if n_pulses is not None and opts["sequence"] != "cpmg":
        raise ConfigError("n-pulses needs sequence cpmg")
    # Canonical spacing; the engines rescale the sequence to each total time.
    seq = build_sequence(opts["sequence"], 1e-6, n=1 if n_pulses is None else n_pulses)
    noise = _noise_from_options(opts)
    n_times = opts["n_times"]
    if (opts["t_min_s"] is None) != (opts["t_max_s"] is None):
        raise ConfigError("t-min-s and t-max-s must be given together")
    if opts["t_min_s"] is None:
        times = decay_time_grid(seq, noise, n_points=n_times)
    elif opts["grid"] == "linear":
        times = np.linspace(opts["t_min_s"], opts["t_max_s"], n_times)
    elif not min(opts["t_min_s"], opts["t_max_s"]) > 0:
        raise ConfigError("a log grid needs t-min-s and t-max-s > 0")
    else:
        with np.errstate(over="ignore"):  # inner points may overflow; geomspace sets both ends exactly
            times = np.geomspace(opts["t_min_s"], opts["t_max_s"], n_times)

    curves = {}
    if engine in ("analytic", "both"):
        curves["analytic"] = simulate_analytic(seq, noise, times)
    if engine in ("mc", "both"):
        curves["mc"] = simulate_mc(seq, noise, times, opts["n_traj"], seed)
    files = {f"decay_{name}.csv": curve for name, curve in curves.items()}
    if engine != "both":
        return _write(out_dir, files)
    diff = curves["mc"].signal - curves["analytic"].signal
    rms = float(np.sqrt(np.mean(diff**2)))
    stderr = np.asarray(curves["mc"].meta["mc_stderr"])
    z = np.abs(diff[stderr > 0]) / stderr[stderr > 0]
    within = rms <= ENGINE_RMS_TOLERANCE  # False for a NaN rms
    files["engine_comparison.json"] = {
        "rms_difference": rms,
        "tolerance": ENGINE_RMS_TOLERANCE,
        "within_tolerance": within,
        "max_abs_z": float(z.max(initial=0.0)),
        "n_abs_z_over_3": int(np.count_nonzero(z > 3.0)),
        "z_note": "z = (mc - analytic) / mc_stderr per point with mc_stderr > 0; "
        "the MC points share their normal draws, so their z-scores are correlated, "
        "not independent",
    }
    outputs = _write(out_dir, files)
    if not within:
        raise EngineMismatchError(
            f"engine RMS difference {rms:.4f} exceeds {ENGINE_RMS_TOLERANCE}"
        )
    return outputs


def _cmd_fit(opts: dict, seed: int, out_dir: Path) -> list[Path]:
    if not opts["input"]:
        raise ConfigError("fit requires --input")
    from . import dataio, fitkit
    curve = dataio.read_decay_csv(Path(opts["input"]))
    fix = {"c": 0.0} if opts["pin_offset"] else None
    result = fitkit.fit(curve, getattr(fitkit.FitModel, opts["model"])(), fix=fix)
    return _write(out_dir, {"fit_result.json": result})


def _cmd_sense(opts: dict, seed: int, out_dir: Path) -> list[Path]:
    from . import magnetometry
    spot_options = ("aleph_ppm", "volume_m3", "rate_cps", "contrast")
    if opts["preset"] == "paper-ideal":
        if any(opts[k] is not None for k in spot_options):
            raise ConfigError("aleph-ppm, volume-m3, rate-cps and contrast need preset none")
        spot, t2_star = magnetometry.paper_ideal_spot()
        if opts["t2_star_s"] is not None:
            t2_star = opts["t2_star_s"]
    else:
        missing = [k for k in (*spot_options, "t2_star_s") if opts[k] is None]
        if missing:
            raise ConfigError(f"preset none requires: {', '.join(missing)}")
        spot = magnetometry.EnsembleSpot(
            concentration_aleph_ppm=opts["aleph_ppm"],
            detection_volume_m3=opts["volume_m3"],
            photon_rate_per_center_cps=opts["rate_cps"],
            contrast=opts["contrast"],
        )
        t2_star = opts["t2_star_s"]
    report = magnetometry.sensitivity_report(spot, t2_star, opts["t2_dd_s"])
    return _write(out_dir, {"sensitivity.json": report})


def _cmd_implant(opts: dict, seed: int, out_dir: Path) -> list[Path]:
    if opts["action"] is None:
        raise ConfigError("implant requires an action (plan or budget)")
    from . import implant
    if opts["action"] == "plan":
        beam = implant.BeamConfig(
            energy_ev=opts["energy_ev"],
            current_a=opts["current_a"],
            spot_diameter_m=opts["diameter_m"],
            chopper_pulse_s=opts["chopper_pulse_s"],
            species=opts["species"],
        )
        return _write(out_dir, {"implant_plan.json": implant.build_plan(beam, opts["dose_cm2"])})
    budget = implant.GrowthBudget(
        total_flow_sccm=opts["flow_sccm"],
        leak_rate_sccm=opts["leak_sccm"],
        h2_purity=opts["h2_purity"],
        ch4_purity=opts["ch4_purity"],
        incorporation_rate=opts["incorporation_rate"],
    )
    return _write(out_dir, {"nitrogen_budget.json": implant.nitrogen_budget(budget)})


def _scan_vdp(_scan, _data, opts: dict) -> dict:
    if opts["r_a_ohm"] is None or opts["r_b_ohm"] is None:
        raise ConfigError("vdp mode requires r-a-ohm and r-b-ohm")
    from .vdp import van_der_pauw
    rs, g = van_der_pauw(opts["r_a_ohm"], opts["r_b_ohm"])
    return {"sheet_resistance_ohm_sq": rs, "sheet_conductance_s_sq": g}


# Readers are named, not held, so wrappers swapped into dataio see each read.
# mode -> (dataio reader of --input, or None; reducer(scan module, data, opts) -> JSON payload;
# output file).  Without a reader (vdp), scan and dataio, which load numpy, are not imported.
SCAN_MODES = {
    "spots": ("read_scan_grid_csv", lambda scan, grid, opts: {
        "spots": scan.detect_spots(grid, threshold_sigma=opts["threshold_sigma"])}, "scan_spots.json"),
    "depth": ("read_depth_profile_csv", lambda scan, profile, opts: scan.film_thickness(profile),
              "scan_depth.json"),
    "spectrum": ("read_spectrum_csv", lambda scan, spec, opts: {"peaks": scan.identify_peaks(spec)},
                 "scan_spectrum.json"),
    "ratio": ("read_spectrum_csv", lambda scan, spec, opts: scan.charge_ratio(spec, kappa=opts["kappa"]),
              "scan_ratio.json"),
    "vdp": (None, _scan_vdp, "scan_vdp.json"),
    "purity": ("read_scan_grid_csv", lambda scan, grid, opts: scan.purity_report(grid), "scan_purity.json"),
}


def _cmd_scan(opts: dict, seed: int, out_dir: Path) -> list[Path]:
    mode = opts["mode"]
    if mode is None:
        raise ConfigError("scan requires --mode")
    reader, reduce, name = SCAN_MODES[mode]
    scan = data = None
    if reader is not None:
        if not opts["input"]:
            raise ConfigError(f"scan mode {mode!r} requires --input")
        from . import dataio, scan
        data = getattr(dataio, reader)(Path(opts["input"]))
    return _write(out_dir, {name: reduce(scan, data, opts)})


# target -> (fixtures module, seed) -> {output file: payload}
FIXTURE_TARGETS = {
    "fig5": lambda fixtures, seed: {"fig5_spot_grid.csv": fixtures.spot_grid_fig5(seed)},
    "fig6": lambda fixtures, seed: {"fig6_depth_profile.csv": fixtures.depth_profile_fig6(seed)},
    "fig7": lambda fixtures, seed: {
        f"fig7_cpmg{n:02d}.csv": curve for n, curve in fixtures.decay_family_fig7()
    },
    "fig9": lambda fixtures, seed: {
        f"fig9_{kind}.csv": curve for kind, curve in fixtures.xy_curves_fig9().items()
    },
    "raman": lambda fixtures, seed: {"raman_spectrum.csv": fixtures.raman_spectrum()},
    "s1s2s3": lambda fixtures, seed: {
        f"spectrum_{sample}.csv": fixtures.spectrum_s123(sample) for sample in ("s1", "s2", "s3")
    },
    "table2": lambda fixtures, seed: {"table2_samples.json": fixtures.table2_metadata()},
}


def _cmd_fixtures(opts: dict, seed: int, out_dir: Path) -> list[Path]:
    if opts["target"] is None:
        raise ConfigError("fixtures requires --target")
    from . import fixtures
    return _write(out_dir, FIXTURE_TARGETS[opts["target"]](fixtures, seed))


class Command(NamedTuple):
    """One subcommand.

    ``handler(opts, seed, out_dir)`` returns the paths it wrote.  ``options``
    maps name -> (type, default, help with units); the names double as
    config keys.  The type parses flag and config-file values alike, and a
    :func:`choice` type's values are appended to the help.
    ``positional`` names the option, if any, that is given on the command
    line as an optional positional argument instead of a flag.
    """

    handler: Callable[[dict, int, Path], list[Path]]
    options: dict
    positional: str | None = None


# Options every command takes, besides --config.
COMMON_OPTIONS = {
    "seed": (int, DEFAULT_SEED, "master seed"),
    "output_dir": (str, ".", "output directory"),
}

COMMANDS = {
    "odmr": Command(_cmd_odmr, {
        "bx_t": (finite, 0.0, "field x component (T)"),
        "by_t": (finite, 0.0, "field y component (T)"),
        "bz_t": (finite, 1.6e-3, "field z component (T)"),
        "zfs_d_hz": (finite, constants.ZERO_FIELD_SPLITTING_HZ, "zero-field splitting D (Hz)"),
        "gamma_hz_per_t": (finite, constants.GYROMAGNETIC_RATIO_HZ_PER_T, "gyromagnetic ratio (Hz/T)"),
        "linewidth_hz": (finite, constants.ODMR_LINEWIDTH_FWHM_HZ, "dip FWHM (Hz)"),
        "contrast": (finite, constants.ODMR_CONTRAST, "total ODMR contrast"),
        "f_min_hz": (finite, None, "grid start (default: auto)"),
        "f_max_hz": (finite, None, "grid end (default: auto)"),
        "n_freq": (int, 2001, "number of grid points"),
    }),
    "decay": Command(_cmd_decay, {
        "sequence": (choice(*constants.SEQUENCE_KINDS), "hahn", "pulse sequence"),
        "n_pulses": (int, None, "pi-pulse count, cpmg only [default: 1]"),
        "engine": (choice("mc", "analytic", "both"), "analytic", "decay engine (both: compare them)"),
        "noise_preset": (choice(*constants.NOISE_PRESET_NAMES, "none"), "paper-like", "OU bath preset"),
        "b_rad_s": (finite, None, "OU coupling (rad/s) when preset is none"),
        "tau_c_s": (finite, None, "OU correlation time (s) when preset is none"),
        "t1_s": (finite, None, "longitudinal time (s), omit for none"),
        "t1_q": (finite, None,
                 f"longitudinal stretching exponent, needs t1-s [default: {constants.T1_EXPONENT_Q}]"),
        "t_min_s": (finite, None, "grid start (default: auto)"),
        "t_max_s": (finite, None, "grid end (default: auto)"),
        "n_times": (int, 24, "number of time points"),
        "grid": (choice("log", "linear"), "log", "spacing of an explicit time grid"),
        "n_traj": (int, 20000, "Monte-Carlo trajectories"),
    }),
    "fit": Command(_cmd_fit, {
        "input": (str, None, "decay-curve CSV (time_s, signal)"),
        "model": (choice(*constants.MODEL_PARAMS), "stretched_exp", "decay model"),
        "pin_offset": (boolean, False, "fix the baseline c at 0"),
    }),
    "sense": Command(_cmd_sense, {
        "preset": (choice("paper-ideal", "none"), "paper-ideal", "ensemble preset"),
        "aleph_ppm": (finite, None, "NV concentration (ppm)"),
        "volume_m3": (finite, None, "detection volume (m^3)"),
        "rate_cps": (finite, None, "photon rate per center (counts/s)"),
        "contrast": (finite, None, "readout contrast"),
        "t2_star_s": (finite, None,
                      f"T2* (s); preset supplies {constants.PAPER_IDEAL_T2_STAR_S}"),
        "t2_dd_s": (finite, None, "decoupled T2 (s) for the AC estimate"),
    }),
    "implant": Command(_cmd_implant, {
        "action": (choice("plan", "budget"), None,
                   "plan: dose/depth/yield plan; budget: CVD nitrogen budget"),
        "energy_ev": (finite, 5000.0, "ion energy (eV)"),
        "current_a": (finite, 500e-12, "beam current (A)"),
        "diameter_m": (finite, 25e-6, "spot or aperture diameter (m)"),
        "dose_cm2": (finite, 1e12, "target atom dose (cm^-2)"),
        "chopper_pulse_s": (finite, None, "beam-chopper pulse length (s)"),
        "species": (choice(*constants.ATOMS_PER_CHARGE), constants.ION_SPECIES, "ion species (N+ or N2+)"),
        "leak_sccm": (finite, 2.4e-4, "chamber leak rate (sccm)"),
        "flow_sccm": (finite, 400.0, "total process-gas flow (sccm)"),
        "h2_purity": (finite, constants.H2_PURITY, "hydrogen purity fraction"),
        "ch4_purity": (finite, constants.CH4_PURITY, "methane purity fraction"),
        "incorporation_rate": (finite, constants.INCORPORATION_RATE,
                               "gas-to-solid nitrogen incorporation rate"),
    }, positional="action"),
    "scan": Command(_cmd_scan, {
        "mode": (choice(*SCAN_MODES), None, "reduction"),
        "input": (str, None, "input CSV (not used by vdp)"),
        "threshold_sigma": (finite, 5.0, "spot detection threshold (sigma)"),
        "kappa": (finite, 1.0, "charge-ratio calibration factor"),
        "r_a_ohm": (finite, None, "Van-der-Pauw resistance A (ohm)"),
        "r_b_ohm": (finite, None, "Van-der-Pauw resistance B (ohm)"),
    }),
    "fixtures": Command(_cmd_fixtures, {
        "target": (choice(*FIXTURE_TARGETS), None, "fixture set"),
    }),
}


@functools.cache  # the tree depends only on COMMANDS; parse_args leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvforge",
        description="NV-ensemble simulation and analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"nvforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=f"{name} subcommand")
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        for option, (typ, default, help_text) in {**COMMON_OPTIONS, **command.options}.items():
            if hasattr(typ, "choices"):
                help_text += f"; one of {', '.join(typ.choices)}"
            if default is not None:
                help_text += f" [default: {default}]"
            if option == command.positional:
                p.add_argument(option, nargs="?", type=typ, default=None, help=help_text)
            else:
                flag = "--" + option.replace("_", "-")
                p.add_argument(flag, type=typ, default=None, help=help_text)
    return parser


def _resolve(args: argparse.Namespace, command: Command) -> tuple[dict, int, Path, Path | None]:
    """Each option's value (flag over config file over default), the seed and the output directory."""
    options = {**COMMON_OPTIONS, **command.options}
    config_path = None if args.config is None else Path(args.config)
    file_values = {} if config_path is None else parse_config_file(config_path)
    unknown = set(file_values) - set(options)
    if unknown:
        raise ConfigError(
            f"unknown config key(s): {', '.join(sorted(unknown))}; "
            f"accepted keys: {', '.join(sorted(options))}"
        )
    opts = {}
    for name, (typ, default, _) in options.items():
        if getattr(args, name) is not None:
            opts[name] = getattr(args, name)
        elif name in file_values:
            try:
                opts[name] = typ(file_values[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"config key {name!r}: {exc}") from exc
        else:
            opts[name] = default
    seed = opts.pop("seed")
    env_seed = os.environ.get("NVFORGE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"NVFORGE_SEED must be an integer, got {env_seed!r}") from exc
    out_dir = Path(opts.pop("output_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    return opts, seed, out_dir, config_path


def _sha256(path: Path) -> str:
    import hashlib
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    opts: dict,
    seed: int,
    inputs: list[Path],
    outputs: list[Path],
    wall_time_s: float,
) -> None:
    manifest = {
        "tool": "nvforge",
        "version": __version__,
        "command": command,
        "options": opts,
        "seed": seed,
        "input_hashes": {str(p): _sha256(p) for p in inputs if p is not None and p.exists()},
        "outputs": sorted(p.name for p in outputs),
        "wall_time_s": wall_time_s,
    }
    write_json(out_dir / "manifest.json", manifest)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    started = time.monotonic()
    try:
        opts, seed, out_dir, config_path = _resolve(args, COMMANDS[args.command])
        outputs = COMMANDS[args.command].handler(opts, seed, out_dir)
    except (ValueError, OSError) as exc:  # bad options, bad or unreadable input files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineMismatchError as exc:
        print(f"acceptance check failed: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4

    inputs = [config_path]
    if opts.get("input"):
        inputs.append(Path(opts["input"]))
    _write_manifest(
        out_dir, args.command, opts, seed, inputs, outputs, time.monotonic() - started
    )
    for path in outputs:
        print(path)
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
