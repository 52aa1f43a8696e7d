"""Exact NV ground-state transition frequencies, the oracle for the secular approximation.

:mod:`nvforge.spincore` computes the lines as f+- = D +- gamma*|B_par|; the
tests check that against the eigenvalues of the full 3x3 Hamiltonian here.
"""

import math

import numpy as np

from nvforge.spincore import MagneticFieldVector, SpinParams

# Spin-1 operators in the |+1>, |0>, |-1> basis.
_SZ = np.diag([1.0, 0.0, -1.0])
_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2.0)
_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2.0)


def _axis_frame(axis: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frame with the NV axis as its z column."""
    x = np.cross([0.0, 0.0, 1.0], axis)  # no <111> axis is parallel to e_z
    x /= np.linalg.norm(x)
    return np.column_stack([x, np.cross(axis, x), axis])


def full_hamiltonian_frequencies(
    params: SpinParams, fieldvec: MagneticFieldVector, axis: np.ndarray
) -> tuple[float, float]:
    """Exact transition frequencies from the 3x3 ground-state Hamiltonian.

    Diagonalizes H = D*Sz^2 + gamma*(B . S) in the axis frame and returns
    the two eigenvalue differences from the lowest (m_S = 0 like) state.
    """
    frame = _axis_frame(axis)
    b_axis = frame.T @ fieldvec.as_array()
    g = params.gyromag_hz_per_t
    h = params.zfs_d_hz * (_SZ @ _SZ) + g * (
        b_axis[0] * _SX + b_axis[1] * _SY + b_axis[2] * _SZ
    )
    evals = np.linalg.eigvalsh(h)
    return float(evals[1] - evals[0]), float(evals[2] - evals[0])
