"""Pulse-sequence construction for coherence measurements.

Each sequence kind (Ramsey, Hahn echo, CPMG(n), XY4, XY8) is one row of
:data:`SEQUENCE_KINDS`: its refocusing instants as fractions of the
free-evolution window, the phases of its pi pulses and its total time in
units of the pulse spacing.  Microwave pulses are ideal (zero width);
what the decay engines consume is the split of the free-evolution window
into sign-constant cells, exposed by :meth:`PulseSequence.cell_lengths`.

Total free-evolution time conventions, for a sequence built with spacing
``tau``: Ramsey evolves for ``tau``; Hahn for ``2*tau``; CPMG(n) for
``2*n*tau`` with pi pulses at odd multiples of ``tau``; XY4 and XY8 share
CPMG timing with n = 4 and n = 8 (totals ``8*tau`` and ``16*tau``) but use
the phase patterns X-Y-X-Y and X-Y-X-Y-Y-X-Y-X.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

XY4_PHASES = ("x", "y", "x", "y")
XY8_PHASES = ("x", "y", "x", "y", "y", "x", "y", "x")


@dataclass(frozen=True)
class PulseSequence:
    """A pi-pulse pattern within one free-evolution window.

    ``pi_fractions`` are the refocusing instants as fractions of the total
    free-evolution window and ``pi_phases`` their pulse phases, so the same
    sequence object can be evaluated at any total evolution time.
    """

    name: str
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


# kind -> n -> (name, pi_fractions, pi_phases, total free evolution / tau)
SEQUENCE_KINDS = {
    "ramsey": lambda n: ("ramsey", (), (), 1),
    "hahn": lambda n: ("hahn", (0.5,), ("y",), 2),
    "cpmg": lambda n: (f"cpmg{n}", _cpmg_fractions(n), ("y",) * n, 2 * n),
    "xy4": lambda n: ("xy4", _cpmg_fractions(4), XY4_PHASES, 8),
    "xy8": lambda n: ("xy8", _cpmg_fractions(8), XY8_PHASES, 16),
}


def build_sequence(kind: str, tau_s: float, n: int | None = None) -> PulseSequence:
    """Construct a named pulse sequence.

    Parameters
    ----------
    kind:
        A key of :data:`SEQUENCE_KINDS`: ``ramsey``, ``hahn``, ``cpmg``,
        ``xy4`` or ``xy8``.
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
    if kind not in SEQUENCE_KINDS:
        raise ValueError(f"unknown sequence kind: {kind!r}")
    if kind == "cpmg" and (n is None or n < 1):
        raise ValueError("cpmg requires n >= 1")
    name, fractions, phases, spacings = SEQUENCE_KINDS[kind](n)
    return PulseSequence(name, tau_s, fractions, phases, spacings * tau_s)
