from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvforge.sequences import build_sequence


def reference_cell_lengths(n, times):
    """Reference cells in Python floats: half a cell 1/n at each end, n - 1 cells of 1/n (Ramsey: one cell)."""
    cells = [1 / n / 2, *[1 / n] * (n - 1), 1 / n / 2] if n else [1.0]
    return np.multiply.outer(times, np.array(cells))


def test_ramsey_has_no_pi_pulses():
    seq = build_sequence("ramsey", 2e-6)
    assert seq.n_pi == 0
    assert seq.cell_lengths(1e-5).tolist() == [1e-5]


def test_hahn_timing():
    seq = build_sequence("hahn", 1e-6)
    assert seq.cell_lengths(2e-6).tolist() == [1e-6, 1e-6]


def test_cpmg1_timing_identical_to_hahn():
    hahn = build_sequence("hahn", 1e-6)
    cpmg1 = build_sequence("cpmg", 1e-6, n=1)
    assert cpmg1.n_pi == hahn.n_pi
    assert cpmg1.cell_lengths(2e-6).tobytes() == hahn.cell_lengths(2e-6).tobytes()


def test_cpmg64_timing():
    seq = build_sequence("cpmg", 1e-6, n=64)
    assert seq.n_pi == 64
    cells = seq.cell_lengths(128e-6)
    assert cells.tolist() == pytest.approx([1e-6, *[2e-6] * 63, 1e-6])
    assert cells.sum() == pytest.approx(128e-6)


def test_xy4_pattern():
    seq = build_sequence("xy4", 1e-6)
    assert seq.cell_lengths(8e-6).tolist() == pytest.approx([1e-6, 2e-6, 2e-6, 2e-6, 1e-6])


def test_xy8_pattern():
    seq = build_sequence("xy8", 1e-6)
    assert seq.n_pi == 8
    xy8, cpmg8 = seq.cell_lengths(16e-6), build_sequence("cpmg", 1e-6, n=8).cell_lengths(16e-6)
    assert xy8.tobytes() == cpmg8.tobytes()
    assert xy8.tolist() == pytest.approx([1e-6, *[2e-6] * 7, 1e-6])


def test_cpmg4_cell_lengths():
    seq = build_sequence("cpmg", 1e-6, n=4)
    assert seq.cell_lengths(8e-6).tolist() == pytest.approx([1e-6, 2e-6, 2e-6, 2e-6, 1e-6])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    n=st.integers(0, 2048),
    times=st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=8),
)
@example(n=0, times=[0.0, 1e-6])
@example(n=2048, times=[1e-12, 1e3])
def test_cell_lengths_same_bytes_as_tuple_fractions(n, times):
    seq = build_sequence("cpmg", 1e-6, n=n) if n else build_sequence("ramsey", 1e-6)
    times = np.array(times)
    assert seq.cell_lengths(times).tobytes() == reference_cell_lengths(n, times).tobytes()


def test_unit_cells_refocus_static_noise_exactly():
    # A static field picks up the signed cell sum, which must be exactly 0
    # for every count; the inner cells are one float.  The sum is taken over
    # the distinct lengths, each times its signed count.
    for n in range(1, 4097):
        cells = build_sequence("cpmg", 1e-6, n=n).cell_lengths(1.0)
        lengths, index = np.unique(cells, return_inverse=True)
        counts = np.bincount(index, weights=(-1.0) ** np.arange(cells.size))
        assert sum(Fraction(c) * int(k) for c, k in zip(lengths.tolist(), counts.tolist())) == 0, n
        assert np.unique(cells[1:-1]).size <= 1, n


@pytest.mark.parametrize(
    "times", [-1e-6, [1e-6, -1e-12], [1e-6, float("nan")]], ids=["scalar", "array", "nan"]
)
def test_cell_lengths_reject_negative_times(times):
    with pytest.raises(ValueError, match="times must be >= 0"):
        build_sequence("hahn", 1e-6).cell_lengths(times)


@pytest.mark.parametrize(
    "kind, n, name, n_pi",
    [
        ("ramsey", None, "ramsey", 0),
        ("hahn", None, "hahn", 1),
        ("cpmg", 1, "cpmg1", 1),
        ("cpmg", 7, "cpmg7", 7),
        ("cpmg", 64, "cpmg64", 64),
        ("xy4", None, "xy4", 4),
        ("xy8", None, "xy8", 8),
    ],
    ids=["ramsey", "hahn", "cpmg1", "cpmg7", "cpmg64", "xy4", "xy8"],
)
def test_sequence_table_rows(kind, n, name, n_pi):
    seq = build_sequence(kind, 1e-6, n=n)
    assert (seq.name, seq.n_pi) == (name, n_pi)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_sequence("hahn", 0.0)
    with pytest.raises(ValueError):
        build_sequence("hahn", -1e-6)
    with pytest.raises(ValueError):
        build_sequence("cpmg", 1e-6)  # missing n
    with pytest.raises(ValueError):
        build_sequence("cpmg", 1e-6, n=0)
    with pytest.raises(ValueError):
        build_sequence("udd", 1e-6)


@pytest.mark.parametrize("n", [2.5, 2.0, "3", np.float64(4.0)])
def test_cpmg_rejects_a_non_integral_pulse_count(n):
    with pytest.raises(ValueError, match=r"^cpmg requires an integer n >= 1$"):
        build_sequence("cpmg", 1e-6, n=n)


def test_cpmg_takes_a_numpy_integer_pulse_count():
    seq = build_sequence("cpmg", 1e-6, n=np.int64(4))
    assert (seq.name, seq.n_pi, type(seq.n_pi)) == ("cpmg4", 4, int)
