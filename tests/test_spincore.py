import math

import numpy as np
import pytest

from nvforge.constants import GYROMAGNETIC_RATIO_HZ_PER_T, ZERO_FIELD_SPLITTING_HZ
from nvforge.spincore import (
    CANONICAL_AXES,
    MagneticFieldVector,
    SpinParams,
    odmr_spectrum,
    project_field,
    transition_frequencies,
)

from hamiltonian_oracle import full_hamiltonian_frequencies

B_16_GAUSS = 1.6e-3


def test_four_canonical_axes_geometry():
    assert len(CANONICAL_AXES) == 4
    for axis in CANONICAL_AXES:
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)
    for i, a in enumerate(CANONICAL_AXES):
        for b in CANONICAL_AXES[i + 1 :]:
            assert a @ b == pytest.approx(-1 / 3, abs=1e-12)


def test_spin_params_invariants():
    with pytest.raises(ValueError):
        SpinParams(zfs_d_hz=-1.0)
    with pytest.raises(ValueError):
        SpinParams(odmr_contrast=0.0)
    with pytest.raises(ValueError):
        SpinParams(odmr_contrast=1.5)
    with pytest.raises(ValueError):
        SpinParams(linewidth_fwhm_hz=0.0)


def test_spin_params_reject_a_linewidth_whose_half_width_rounds_to_0():
    # Half of the smallest subnormal rounds to 0; half of twice it does not.
    with pytest.raises(ValueError, match="linewidth_fwhm_hz is too small: its half width rounds to 0"):
        SpinParams(linewidth_fwhm_hz=5e-324)
    assert SpinParams(linewidth_fwhm_hz=1e-323).linewidth_fwhm_hz / 2.0 > 0


def test_field_refuses_a_component_that_is_not_finite():
    with pytest.raises(ValueError, match="field components must be finite"):
        MagneticFieldVector(math.nan, 0.0, 0.0)


def test_project_zero_field_is_zero():
    zero = MagneticFieldVector(0.0, 0.0, 0.0)
    for axis in CANONICAL_AXES:
        assert project_field(zero, axis) == 0.0


def test_project_z_field_gives_equal_magnitudes_on_all_axes():
    field = MagneticFieldVector(0.0, 0.0, B_16_GAUSS)
    expected = B_16_GAUSS / math.sqrt(3.0)
    for axis in CANONICAL_AXES:
        assert abs(project_field(field, axis)) == pytest.approx(expected, rel=1e-12)


def test_project_field_along_one_axis():
    direction = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    field = MagneticFieldVector(*(B_16_GAUSS * direction))
    projections = sorted(project_field(field, axis) for axis in CANONICAL_AXES)
    assert projections[-1] == pytest.approx(B_16_GAUSS, rel=1e-12)
    for p in projections[:-1]:
        assert p == pytest.approx(-B_16_GAUSS / 3.0, rel=1e-12)


def test_transition_frequencies_zero_field_degenerate():
    params = SpinParams()
    f_minus, f_plus = transition_frequencies(params, 0.0)
    assert f_minus == f_plus == ZERO_FIELD_SPLITTING_HZ


def test_transition_frequencies_splitting_values():
    params = SpinParams()
    b_par = B_16_GAUSS / math.sqrt(3.0)
    f_minus, f_plus = transition_frequencies(params, b_par)
    assert f_plus - f_minus == pytest.approx(51.78e6, rel=2e-3)
    f_minus, f_plus = transition_frequencies(params, B_16_GAUSS)
    assert f_plus - f_minus == pytest.approx(89.7e6, rel=2e-3)


def test_transition_frequency_sum_rule():
    params = SpinParams()
    for b_par in np.linspace(-5e-3, 5e-3, 17):
        f_minus, f_plus = transition_frequencies(params, b_par)
        assert f_plus >= f_minus
        assert f_plus + f_minus == pytest.approx(2 * params.zfs_d_hz, rel=1e-14)


def _default_grid(params, span_hz=150e6, n=6001):
    return np.linspace(params.zfs_d_hz - span_hz, params.zfs_d_hz + span_hz, n)


def test_odmr_zero_field_single_dip_full_contrast():
    params = SpinParams()
    spec = odmr_spectrum(params, MagneticFieldVector(0, 0, 0), _default_grid(params))
    assert len(spec.resolved_lines) == 1
    center, depth = spec.resolved_lines[0]
    assert center == pytest.approx(params.zfs_d_hz)
    assert depth == pytest.approx(params.odmr_contrast)
    assert spec.signal.min() == pytest.approx(1 - params.odmr_contrast, abs=1e-6)


def test_odmr_z_field_two_resolved_lines():
    params = SpinParams()
    field = MagneticFieldVector(0, 0, B_16_GAUSS)
    spec = odmr_spectrum(params, field, _default_grid(params))
    assert len(spec.resolved_lines) == 2
    (c_lo, d_lo), (c_hi, d_hi) = spec.resolved_lines
    assert c_hi - c_lo == pytest.approx(2 * GYROMAGNETIC_RATIO_HZ_PER_T * B_16_GAUSS / math.sqrt(3), rel=1e-9)
    assert d_lo == d_hi == pytest.approx(params.odmr_contrast / 2)
    assert len(spec.line_centers) == 8
    assert [f for _, _, f in spec.line_centers] == sorted(f for _, _, f in spec.line_centers)


def test_odmr_111_field_four_resolved_lines():
    params = SpinParams()
    b = B_16_GAUSS / math.sqrt(3.0)
    spec = odmr_spectrum(params, MagneticFieldVector(b, b, b), _default_grid(params))
    assert len(spec.resolved_lines) == 4
    offsets = [c - params.zfs_d_hz for c, _ in spec.resolved_lines]
    gamma = params.gyromag_hz_per_t
    expected = [-gamma * B_16_GAUSS, -gamma * B_16_GAUSS / 3, gamma * B_16_GAUSS / 3, gamma * B_16_GAUSS]
    for got, want in zip(offsets, expected):
        assert got == pytest.approx(want, rel=1e-9)
    depths = [d for _, d in spec.resolved_lines]
    assert depths[0] == pytest.approx(params.odmr_contrast / 8)
    assert depths[1] == pytest.approx(3 * params.odmr_contrast / 8)


def test_odmr_signal_returns_to_one_far_from_lines():
    params = SpinParams(odmr_contrast=0.3)
    field = MagneticFieldVector(0, 0, B_16_GAUSS)
    spec = odmr_spectrum(params, field, _default_grid(params, span_hz=400e6, n=8001))
    far = np.ones_like(spec.frequencies_hz, dtype=bool)
    for _, _, f0 in spec.line_centers:
        far &= np.abs(spec.frequencies_hz - f0) >= 10 * params.linewidth_fwhm_hz
    assert np.any(far)
    assert np.all(spec.signal[far] >= 1 - 1e-3)
    assert np.all(spec.signal <= 1.0)
    assert np.all(spec.signal >= 1 - params.odmr_contrast)


@pytest.mark.parametrize("zfs_hz", [1e308, 1.7e308])
def test_odmr_lines_near_the_float_limit_merge_without_overflow(zfs_hz):
    # All eight centres round to D; their sum alone would overflow.
    params = SpinParams(zfs_d_hz=zfs_hz)
    spec = odmr_spectrum(params, MagneticFieldVector(0, 0, B_16_GAUSS), [0.0, zfs_hz])
    assert spec.resolved_lines == [(zfs_hz, params.odmr_contrast)]


def test_odmr_rejects_bad_grid():
    params = SpinParams()
    field = MagneticFieldVector(0, 0, 0)
    with pytest.raises(ValueError):
        odmr_spectrum(params, field, [])
    with pytest.raises(ValueError):
        odmr_spectrum(params, field, [2.87e9, 2.86e9])


def test_axis_permutation_symmetry():
    # Any cube rotation that permutes the <111> axes leaves the multiset of
    # line centers invariant: centers(R B) == centers(B).
    params = SpinParams()
    rng = np.random.default_rng(11)
    rotations = [
        np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float),  # cyclic xyz
        np.diag([-1.0, -1.0, 1.0]),  # 180 deg about z
        np.diag([1.0, -1.0, -1.0]),  # 180 deg about x
    ]
    for _ in range(5):
        b = rng.uniform(-2e-3, 2e-3, size=3)
        base = sorted(f for _, _, f in odmr_spectrum(params, MagneticFieldVector(*b), _default_grid(params)).line_centers)
        for rot in rotations:
            rotated = rot @ b
            centers = sorted(
                f for _, _, f in odmr_spectrum(params, MagneticFieldVector(*rotated), _default_grid(params)).line_centers
            )
            assert np.allclose(base, centers, rtol=1e-12)


def test_full_hamiltonian_matches_secular_for_axial_field():
    params = SpinParams()
    axis = CANONICAL_AXES[0]
    field = MagneticFieldVector(*(1.2e-3 * axis))
    exact = full_hamiltonian_frequencies(params, field, axis)
    secular = transition_frequencies(params, project_field(field, axis))
    assert exact[0] == pytest.approx(secular[0], abs=1.0)
    assert exact[1] == pytest.approx(secular[1], abs=1.0)


def test_full_hamiltonian_transverse_quadratic_shift():
    params = SpinParams()
    z = axis = CANONICAL_AXES[0]
    seed_vec = np.array([1.0, 0.0, 0.0])
    perp = seed_vec - (seed_vec @ z) * z
    perp /= np.linalg.norm(perp)
    field = MagneticFieldVector(*(1.6e-3 * perp))
    f_minus, f_plus = full_hamiltonian_frequencies(params, field, axis)
    g = params.gyromag_hz_per_t * 1.6e-3
    shift = g**2 / params.zfs_d_hz
    # Both branches shift upward, by ~g^2/D and ~2 g^2/D.
    assert f_minus - params.zfs_d_hz == pytest.approx(shift, rel=1e-3)
    assert f_plus - params.zfs_d_hz == pytest.approx(2 * shift, rel=1e-3)


def test_secular_error_small_for_near_axial_fields():
    params = SpinParams()
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = axis = CANONICAL_AXES[rng.integers(4)]
        ref = np.array([0.0, 0.0, 1.0]) if abs(z[2]) < 0.9 else np.array([0.0, 1.0, 0.0])
        x = np.cross(ref, z)
        x /= np.linalg.norm(x)
        y = np.cross(z, x)
        magnitude = rng.uniform(0.0, 2e-3)
        angle = rng.uniform(0.0, math.pi / 6)
        azimuth = rng.uniform(0.0, 2 * math.pi)
        bvec = magnitude * (
            math.cos(angle) * z
            + math.sin(angle) * (math.cos(azimuth) * x + math.sin(azimuth) * y)
        )
        field = MagneticFieldVector(*bvec)
        exact = full_hamiltonian_frequencies(params, field, axis)
        secular = transition_frequencies(params, project_field(field, axis))
        assert abs(secular[0] - exact[0]) < 1e6
        assert abs(secular[1] - exact[1]) < 1e6
