import pytest

from nvforge.sequences import build_sequence


def test_ramsey_has_no_pi_pulses():
    seq = build_sequence("ramsey", 2e-6)
    assert seq.pi_fractions == ()
    assert seq.total_free_evolution_s == 2e-6
    assert seq.pi_pulse_times(1e-5) == []


def test_hahn_timing():
    seq = build_sequence("hahn", 1e-6)
    assert seq.total_free_evolution_s == 2e-6
    assert seq.pi_pulse_times(2e-6) == [1e-6]


def test_cpmg1_timing_identical_to_hahn():
    hahn = build_sequence("hahn", 1e-6)
    cpmg1 = build_sequence("cpmg", 1e-6, n=1)
    assert cpmg1.pi_fractions == hahn.pi_fractions
    assert cpmg1.total_free_evolution_s == hahn.total_free_evolution_s


def test_cpmg64_timing():
    seq = build_sequence("cpmg", 1e-6, n=64)
    assert seq.total_free_evolution_s == pytest.approx(128e-6)
    assert seq.n_pi == 64
    times = seq.pi_pulse_times(seq.total_free_evolution_s)
    expected = [(2 * k - 1) * 1e-6 for k in range(1, 65)]
    assert times == pytest.approx(expected)


def test_xy4_pattern():
    seq = build_sequence("xy4", 1e-6)
    assert seq.total_free_evolution_s == pytest.approx(8e-6)
    assert seq.pi_phases == ("x", "y", "x", "y")
    assert seq.pi_fractions == tuple((2 * k - 1) / 8 for k in range(1, 5))


def test_xy8_pattern():
    seq = build_sequence("xy8", 1e-6)
    assert seq.total_free_evolution_s == pytest.approx(16e-6)
    assert seq.n_pi == 8
    assert seq.pi_phases == ("x", "y", "x", "y", "y", "x", "y", "x")
    times = seq.pi_pulse_times(16e-6)
    assert times == pytest.approx([(2 * k - 1) * 1e-6 for k in range(1, 9)])


def test_cpmg4_cell_lengths():
    seq = build_sequence("cpmg", 1e-6, n=4)
    assert seq.cell_lengths(8e-6).tolist() == pytest.approx([1e-6, 2e-6, 2e-6, 2e-6, 1e-6])


@pytest.mark.parametrize(
    "kind, n, name, pi_fractions, pi_phases, total_s",
    [
        ("ramsey", None, "ramsey", (), (), 1e-6),
        ("hahn", None, "hahn", (0.5,), ("y",), 2e-6),
        ("cpmg", 1, "cpmg1", (0.5,), ("y",), 2e-6),
        ("cpmg", 7, "cpmg7", tuple((2 * k - 1) / 14 for k in range(1, 8)), ("y",) * 7, 1.4e-5),
        ("cpmg", 64, "cpmg64", tuple((2 * k - 1) / 128 for k in range(1, 65)), ("y",) * 64,
         1.28e-4),
        ("xy4", None, "xy4", (0.125, 0.375, 0.625, 0.875), ("x", "y", "x", "y"), 8e-6),
        ("xy8", None, "xy8", (0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375),
         ("x", "y", "x", "y", "y", "x", "y", "x"), 1.6e-5),
    ],
    ids=["ramsey", "hahn", "cpmg1", "cpmg7", "cpmg64", "xy4", "xy8"],
)
def test_sequence_table_rows(kind, n, name, pi_fractions, pi_phases, total_s):
    seq = build_sequence(kind, 1e-6, n=n)
    assert seq.name == name
    assert seq.pi_fractions == pi_fractions
    assert seq.pi_phases == pi_phases
    assert seq.total_free_evolution_s == total_s


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
