"""Sampled decay-curve container shared by the engines and the fit kit."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Small allowance above |1| so noisy measured curves remain representable.
SIGNAL_BOUND = 1.05


@dataclass
class DecayCurve:
    """Signal versus total evolution time.

    ``meta`` carries provenance (sequence name, engine, seed, noise
    parameters, per-point Monte-Carlo standard errors, ...) and is written
    to the JSON sidecar when the curve is serialized.
    """

    times_s: np.ndarray
    signal: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times_s = np.asarray(self.times_s, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        if self.times_s.ndim != 1 or self.times_s.shape != self.signal.shape:
            raise ValueError("times and signal must be 1-D arrays of equal length")
        if not self.times_s.size:
            raise ValueError("a decay curve needs at least one time point")
        if self.times_s.size > 1 and not np.all(np.diff(self.times_s) > 0):
            raise ValueError("times must be strictly increasing")
        if np.any(np.abs(self.signal) > SIGNAL_BOUND):
            raise ValueError(f"signal values must lie within +/-{SIGNAL_BOUND}")

    def __len__(self) -> int:
        return int(self.times_s.size)
