"""Pulse-sequence construction for coherence measurements.

Builds the standard sequence timelines (Ramsey, Hahn echo, CPMG(n), XY4,
XY8) as ordered element lists.  Microwave pulses are ideal (zero width);
what the decay engines consume is the split of the free-evolution window
into sign-constant cells, exposed by :meth:`PulseSequence.cell_lengths`.

Total free-evolution time conventions, for a sequence built with spacing
``tau``: Ramsey evolves for ``tau``; Hahn for ``2*tau``; CPMG(n) for
``2*n*tau`` with pi pulses at odd multiples of ``tau``; XY4 and XY8 share
CPMG timing with n = 4 and n = 8 (totals ``8*tau`` and ``16*tau``) but use
the phase patterns X-Y-X-Y and X-Y-X-Y-Y-X-Y-X.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

DEFAULT_INIT_DURATION_S = 5e-6
DEFAULT_READOUT_DURATION_S = 4e-7

XY4_PHASES = ("x", "y", "x", "y")
XY8_PHASES = ("x", "y", "x", "y", "y", "x", "y", "x")


@dataclass(frozen=True)
class LaserInit:
    duration_s: float


@dataclass(frozen=True)
class Wait:
    duration_s: float


@dataclass(frozen=True)
class MwPulse:
    angle_rad: float
    phase: str  # "x" or "y"


@dataclass(frozen=True)
class Readout:
    duration_s: float


@dataclass(frozen=True)
class PulseSequence:
    """Ordered laser/microwave/wait/readout timeline.

    ``pi_fractions`` are the refocusing instants as fractions of the total
    free-evolution window, so the same sequence object can be evaluated at
    any total evolution time.
    """

    name: str
    elements: tuple
    tau_s: float
    pi_fractions: tuple[float, ...]
    pi_phases: tuple[str, ...]
    total_free_evolution_s: float

    @property
    def n_pi(self) -> int:
        return len(self.pi_fractions)

    def pi_pulse_times(self, total_t_s: float) -> list[float]:
        """Refocusing instants within a free-evolution window of length t."""
        return [f * total_t_s for f in self.pi_fractions]

    def cell_lengths(self, times_s) -> np.ndarray:
        """Lengths of the sign-constant cells for each total time t.

        Returns shape ``(*np.shape(times_s), n_pi + 1)``; cell k runs between
        consecutive refocusing instants (or the window edges) and carries
        the sign (-1)^k.
        """
        return np.multiply.outer(times_s, np.diff([0.0, *self.pi_fractions, 1.0]))


def _cpmg_fractions(n: int) -> tuple[float, ...]:
    return tuple((2 * k - 1) / (2 * n) for k in range(1, n + 1))


def build_sequence(kind: str, tau_s: float, n: int | None = None) -> PulseSequence:
    """Construct a named pulse sequence.

    Parameters
    ----------
    kind:
        One of ``ramsey``, ``hahn``, ``cpmg``, ``xy4``, ``xy8``.
    tau_s:
        Pulse spacing (Ramsey: the full free-evolution time).
    n:
        Number of pi pulses, required for ``cpmg``.

    Raises
    ------
    ValueError
        For non-positive tau, unknown kind, or missing/invalid n.
    """
    if not tau_s > 0:
        raise ValueError("tau_s must be positive")
    kind = kind.lower()
    halfpi = 1.5707963267948966

    if kind == "ramsey":
        fractions: tuple[float, ...] = ()
        phases: tuple[str, ...] = ()
        total = tau_s
        name = "ramsey"
    elif kind == "hahn":
        fractions = (0.5,)
        phases = ("y",)
        total = 2 * tau_s
        name = "hahn"
    elif kind == "cpmg":
        if n is None or n < 1:
            raise ValueError("cpmg requires n >= 1")
        fractions = _cpmg_fractions(n)
        phases = ("y",) * n
        total = 2 * n * tau_s
        name = f"cpmg{n}"
    elif kind == "xy4":
        fractions = _cpmg_fractions(4)
        phases = XY4_PHASES
        total = 8 * tau_s
        name = "xy4"
    elif kind == "xy8":
        fractions = _cpmg_fractions(8)
        phases = XY8_PHASES
        total = 16 * tau_s
        name = "xy8"
    else:
        raise ValueError(f"unknown sequence kind: {kind!r}")

    seq = PulseSequence(name, (), tau_s, fractions, phases, total)
    waits = seq.cell_lengths(total).tolist()
    elements: list = [LaserInit(DEFAULT_INIT_DURATION_S), MwPulse(halfpi, "x")]
    for wait, phase in zip(waits, phases):
        elements += [Wait(wait), MwPulse(2 * halfpi, phase)]
    elements += [Wait(waits[-1]), MwPulse(halfpi, "x"), Readout(DEFAULT_READOUT_DURATION_S)]
    return replace(seq, elements=tuple(elements))
