"""How fast the shared machine is right now, from fixed benchmark-owned probes.

On a shared 2-core x86 VM the same op can run up to 1.8 times slower for
seconds to tens of seconds at a time while neighbours are busy.  The
runner re-measures a probe every :data:`PROBE_EVERY_S` seconds and
multiplies each op's wall time by ``reference time / probe time``, the
mean of the values just before and just after the op.  That turns wall
time into seconds on the reference machine at its quiet speed.

Two probes, because in-process work and process start-up slow down
differently:

- :func:`compute_factor` times three kernels covering what nvforge does
  in process: bytecode loops, many small numpy calls, and arrays of MC
  block size;
- :func:`startup_factor` times a fresh interpreter importing numpy, which
  tracks how long a CLI command takes to start (correlation 0.8, against
  0.45 for the kernels).

Neither calls nvforge, so a change to nvforge cannot move them.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
from numpy.random import Generator, Philox

#: Quiet-machine time of each kernel (best of two) on the reference
#: machine: 2-core x86 VM, Python 3.11, numpy 2.4.  Changing these
#: rescales every reported time, so they stay fixed.
REFERENCE_S = (4.5e-3, 1.3e-3, 5.5e-3)
STARTUP_REFERENCE_S = 0.2
PROBE_EVERY_S = 0.25

_X = np.linspace(0.0, 1.0, 64)
_KEY = np.array([1, 2], dtype=np.uint64)


def _bytecode():
    total = 0
    for i in range(60000):
        total += i * i
    return total


def _small_numpy():
    acc = 0.0
    for k in range(300):
        acc += float(np.exp(-_X * (k + 1)).sum())
    return acc


def _mc_arrays():
    rng = Generator(Philox(key=_KEY))
    acc = 0.0
    for _ in range(6):
        z = rng.standard_normal((2, 16384))
        acc += float(np.cos(z[0] * 0.3 + z[1]).sum())
    return acc


KERNELS = (_bytecode, _small_numpy, _mc_arrays)


def compute_factor() -> float:
    """Geometric mean over the kernels of reference time / best-of-two time."""
    logs = 0.0
    for kernel, reference in zip(KERNELS, REFERENCE_S):
        best = math.inf
        for _ in range(2):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
        logs += math.log(reference / best)
    return math.exp(logs / len(KERNELS))


def startup_factor(env: dict | None = None) -> float:
    """Reference time / wall time of ``python -c "import numpy"``."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return STARTUP_REFERENCE_S / (time.perf_counter() - started)


class Gauge:
    """The current speed factor from ``probe``, re-measured at most every PROBE_EVERY_S."""

    def __init__(self, probe=compute_factor):
        self.probe = probe
        self.samples: list[float] = []
        self._last = -math.inf

    def current(self) -> float:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.samples.append(self.probe())
            self._last = time.perf_counter()
        return self.samples[-1]
