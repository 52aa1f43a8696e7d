import pytest

from nvforge.sequences import (
    LaserInit,
    MwPulse,
    Readout,
    Wait,
    build_sequence,
)


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


def test_element_timeline_structure():
    seq = build_sequence("hahn", 1e-6)
    assert isinstance(seq.elements[0], LaserInit)
    assert seq.elements[0].duration_s == 5e-6
    assert isinstance(seq.elements[-1], Readout)
    assert seq.elements[-1].duration_s == 4e-7
    pulses = [e for e in seq.elements if isinstance(e, MwPulse)]
    assert len(pulses) == 3  # pi/2, pi, pi/2
    waits = [e.duration_s for e in seq.elements if isinstance(e, Wait)]
    assert sum(waits) == pytest.approx(seq.total_free_evolution_s)


def test_wait_pattern_matches_cell_structure():
    seq = build_sequence("cpmg", 1e-6, n=4)
    waits = [e.duration_s for e in seq.elements if isinstance(e, Wait)]
    assert waits == pytest.approx([1e-6, 2e-6, 2e-6, 2e-6, 1e-6])


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
