"""Numpy-free definitions shared across the toolkit.

Physical constants are plain SI floats, exposed at module level so tests can
pin them.  Where a constant is a convention of this toolkit rather than a
CODATA value (e.g. the range-curve anchors in :mod:`nvforge.implant`) it lives
next to the code that uses it instead.

The CLI builds its parser and runs its pure-Python commands from this module
alone, so it also owns their option vocabulary, :class:`NumericalFailure`
and the JSON writer.  The hyperfine multiplets live here too, so the
engines share them with the fit kit without importing it.
"""

import json
import os
from pathlib import Path

# NV ground-state zero-field splitting between m_S = 0 and m_S = +/-1 (Hz).
ZERO_FIELD_SPLITTING_HZ = 2.87e9

# Electron gyromagnetic ratio for the NV center, g ~ 2 (Hz per tesla).
GYROMAGNETIC_RATIO_HZ_PER_T = 2.8024e10

# Carbon number density of diamond (atoms per cubic meter).
CARBON_NUMBER_DENSITY_M3 = 1.76e29

# Elementary charge (coulomb); beam currents are singly-charged ion counts.
ELEMENTARY_CHARGE_C = 1.602176634e-19  # CODATA 2018, exact

# Field defaults of SpinParams, NoiseModel, BeamConfig and GrowthBudget, which document them.
ODMR_LINEWIDTH_FWHM_HZ = 6.0e6
ODMR_CONTRAST = 0.15
T1_EXPONENT_Q = 1.0
ION_SPECIES = "atomic"
H2_PURITY = 1.0
CH4_PURITY = 1.0
INCORPORATION_RATE = 1e-4

# Pulse-sequence kind -> n -> (name, n_pi); see :mod:`nvforge.sequences`.
SEQUENCE_KINDS = {
    "ramsey": lambda n: ("ramsey", 0),
    "hahn": lambda n: ("hahn", 1),
    "cpmg": lambda n: (f"cpmg{n}", n),
    "xy4": lambda n: ("xy4", 4),
    "xy8": lambda n: ("xy8", 8),
}

# Ion species -> nitrogen atoms per elementary charge: N+ or N2+.
ATOMS_PER_CHARGE = {"atomic": 1, "molecular": 2}

# T2* (s) of the pinned "paper-ideal" preset of :mod:`nvforge.magnetometry`.
PAPER_IDEAL_T2_STAR_S = 3.6e-6

# Names of the bath presets of :mod:`nvforge.presets`, in its order.
NOISE_PRESET_NAMES = ("paper-like", "slow-bath")

#: Fit-model kind -> parameter names, in the order of the parameter vector.
MODEL_PARAMS = {
    "exp_t2star": ("a", "t2_star_s", "c"),
    "stretched_exp": ("a", "t2_s", "p", "c"),
    "t1_stretched": ("a", "t1_s", "q", "c"),
    "fid_beats": ("a", "t2_star_s", "delta_hz", "a_hf_hz", "c"),
}


#: Default hyperfine multiplet: nuclear spin 1, equal projection weights.
TRIPLET_MULTIPLICITIES = ((-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3))

#: Spin-1/2 alternative (two lines split by the full coupling A).
DOUBLET_MULTIPLICITIES = ((-0.5, 0.5), (0.5, 0.5))


def check_multiplicities(multiplicities) -> tuple[tuple[float, float], ...]:
    """The multiplet as a tuple of (m, w) pairs; the weights must sum to 1."""
    weights = sum(w for _, w in multiplicities)
    if abs(weights - 1.0) > 1e-9:
        raise ValueError("multiplicity weights must sum to 1")
    return tuple(multiplicities)


def check_positive(**values) -> None:
    """Raise ``ValueError("<name> must be positive")`` for the first value, in keyword order, not > 0 (NaN too)."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")


class NumericalFailure(RuntimeError):
    """A numerical procedure failed to converge or produced non-finite values."""


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _record_fields(obj) -> dict:
    """JSON hook: a dataclass record is written as its fields."""
    import dataclasses  # loaded already by the record's own module
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _not_finite(path: Path) -> NumericalFailure:
    return NumericalFailure(f"{path}: a value to write is not finite")


def write_json(path: Path, payload) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_record_fields, allow_nan=False)
    except ValueError as exc:  # nan or inf; the payloads hold no circular reference
        raise _not_finite(path) from exc
    atomic_write_text(Path(path), text + "\n")
