"""Pulse-sequence construction for coherence measurements.

Every sequence kind has CPMG timing: n equally spaced pi pulses, pulse k
at the fraction (2k - 1)/(2n) of the free-evolution window; Ramsey is
n = 0.  Each kind (Ramsey, Hahn echo, CPMG(n), XY4, XY8) is one row of
:data:`SEQUENCE_KINDS` giving its name and n.  XY4 and XY8 are CPMG(4) and
CPMG(8) with the phase patterns X-Y-X-Y and X-Y-X-Y-Y-X-Y-X; pulses are
ideal (zero width), so the phases play no part.  The analytic chi needs only n;
the Monte-Carlo engine walks the split of the free-evolution window into
sign-constant cells, exposed by :meth:`PulseSequence.cell_lengths`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import SEQUENCE_KINDS, check_positive


@dataclass(frozen=True)
class PulseSequence:
    """n_pi equally spaced pi pulses in one free-evolution window.

    The sequence carries no time scale, so the same object can be
    evaluated at any total evolution time.
    """

    name: str
    n_pi: int

    def cell_lengths(self, times_s) -> np.ndarray:
        """Lengths of the sign-constant cells for each total time t.

        Returns shape ``(*np.shape(times_s), n_pi + 1)``; cell k runs between
        consecutive pi pulses (or the window edges) and carries the sign
        (-1)^k.  Raises ``ValueError`` for a negative time.
        """
        check_times(times_s)
        return np.multiply.outer(times_s, self._unit_cells)

    @cached_property
    def _unit_cells(self) -> np.ndarray:
        """Cell lengths of a unit window: a half cell 1/(2n) at each end, n - 1 cells of 1/n.

        Ramsey is one cell of 1.  Every inner cell is the same float and the
        end cells are its exact half, so the signed cell sum is exactly 0 and
        static noise refocuses, as the chi kernel assumes (differences of the
        rounded fractions (2k - 1)/(2n) leave up to ~1e-13 for counts that
        are not powers of two).  Computed once per sequence and scaled to
        each total time by :meth:`cell_lengths`, the one source of cell
        lengths.
        """
        n = self.n_pi
        if n == 0:
            return np.ones(1)
        cells = np.full(n + 1, 1.0 / n)
        cells[[0, -1]] *= 0.5
        return cells


def check_times(times_s) -> None:
    """Raise ``ValueError`` if any total time is negative or NaN; both engines call it."""
    if not np.all(np.greater_equal(times_s, 0.0)):
        raise ValueError("times must be >= 0")


def build_sequence(kind: str, tau_s: float, n: int | None = None) -> PulseSequence:
    """Construct a named pulse sequence.

    Parameters
    ----------
    kind:
        A key of :data:`SEQUENCE_KINDS`: ``ramsey``, ``hahn``, ``cpmg``,
        ``xy4`` or ``xy8``.
    tau_s:
        Pulse spacing.  It must be positive but sets no time scale: the
        engines rescale the sequence to every total time they evaluate.
    n:
        Number of pi pulses, an integer >= 1, required for ``cpmg``.

    Raises
    ------
    ValueError
        For non-positive tau, unknown kind, or missing/invalid n.
    """
    check_positive(tau_s=tau_s)
    kind = kind.lower()
    if kind not in SEQUENCE_KINDS:
        raise ValueError(f"unknown sequence kind: {kind!r}")
    if kind == "cpmg":
        if not isinstance(n, numbers.Integral) or n < 1:  # 2.5 and 2.0 alike
            raise ValueError("cpmg requires an integer n >= 1")
        n = int(n)
    return PulseSequence(*SEQUENCE_KINDS[kind](n))
