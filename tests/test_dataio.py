from dataclasses import asdict

import numpy as np
import pytest

from nvforge import dataio, fixtures, implant, magnetometry
from nvforge.cli import main
from nvforge.dataio import DecayCurve, DepthProfile, ScanGrid, Spectrum
from nvforge.levmar import NumericalFailure
from nvforge.scan import PeakFit, SpotFit
from nvforge.spincore import MagneticFieldVector, SpinParams, odmr_spectrum


def test_decay_csv_roundtrip(tmp_path):
    curve = DecayCurve(
        np.geomspace(1e-7, 1e-5, 20),
        np.exp(-np.geomspace(1e-7, 1e-5, 20) / 3e-6),
        meta={"sequence": "hahn", "engine": "analytic", "seed": 1},
    )
    path = tmp_path / "curve.csv"
    dataio.write_decay_csv(curve, path)
    back = dataio.read_decay_csv(path)
    assert np.array_equal(back.times_s, curve.times_s)
    assert np.array_equal(back.signal, curve.signal)
    assert back.meta["sequence"] == "hahn"
    assert back.meta["seed"] == 1


def test_csv_rows_are_the_repr_of_each_value_as_a_float(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e308, 0.1])
    ints = np.arange(-2, 2)
    path = tmp_path / "values.csv"
    dataio._write_csv(path, ["x", "n"], [floats, ints])
    rows = [f"{float(x)!r},{float(n)!r}" for x, n in zip(floats, ints)]
    assert path.read_text() == "\n".join(["x,n", *rows]) + "\n"
    assert rows == ["-0.0,-2.0", "5e-324,-1.0", "1e+308,0.0", "0.1,1.0"]
    # inf and nan are refused before the file is written.
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NumericalFailure, match="bad.csv: a value to write is not finite"):
            dataio._write_csv(tmp_path / "bad.csv", ["x", "n"], [np.array([0.1, bad]), ints[:2]])
        assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_json_writer_refuses_non_finite_values(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(NumericalFailure, match="report.json: a value to write is not finite"):
        dataio.write_json(path, {"ok": 1.0, "nested": [0.5, {"value": bad}]})
    assert not path.exists()
    # An infinite T1 is written as null by the noise model, not as a number.
    curve = DecayCurve(np.array([1e-6]), np.array([0.5]), {"noise": {"t1_s": None}})
    dataio.write_decay_csv(curve, tmp_path / "decay.csv")
    assert dataio.read_decay_csv(tmp_path / "decay.csv").meta == {"noise": {"t1_s": None}}


def test_decay_csv_write_is_deterministic(tmp_path):
    curve = DecayCurve(np.geomspace(1e-7, 1e-5, 50), np.linspace(1.0, 0.0, 50))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dataio.write_decay_csv(curve, p1)
    dataio.write_decay_csv(curve, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.with_suffix(".json").read_bytes() == p2.with_suffix(".json").read_bytes()


def test_decay_csv_without_sidecar_reads_empty_meta(tmp_path):
    curve = DecayCurve(np.geomspace(1e-7, 1e-5, 20), np.linspace(1.0, 0.1, 20), meta={"seed": 1})
    path = tmp_path / "bare.csv"
    dataio.write_decay_csv(curve, path)
    path.with_suffix(".json").unlink()
    back = dataio.read_decay_csv(path)
    assert back.meta == {}
    assert np.array_equal(back.signal, curve.signal)


def test_odmr_csv_columns(tmp_path):
    spec = odmr_spectrum(
        SpinParams(), MagneticFieldVector(0, 0, 1.6e-3), np.linspace(2.7e9, 3.0e9, 101)
    )
    path = tmp_path / "odmr.csv"
    dataio.write_odmr_csv(spec, path)
    header = path.read_text().splitlines()[0]
    assert header == "frequency_hz,signal"
    table = dataio.odmr_line_table(spec)
    assert len(table["line_centers"]) == 8
    assert len(table["resolved_lines"]) == 2


def test_spectrum_csv_roundtrip_both_units(tmp_path):
    for spec in (fixtures.spectrum_s123("s1"), fixtures.raman_spectrum()):
        path = tmp_path / f"spec_{spec.unit.replace('-', '')}.csv"
        dataio.write_spectrum_csv(spec, path)
        back = dataio.read_spectrum_csv(path)
        assert back.unit == spec.unit
        assert np.array_equal(back.values, spec.values)
        assert np.array_equal(back.counts, spec.counts)


def test_spectrum_csv_rejects_unknown_unit_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("energy_ev,counts\n1.0,2.0\n")
    with pytest.raises(ValueError):
        dataio.read_spectrum_csv(path)


def test_depth_profile_roundtrip(tmp_path):
    profile = fixtures.depth_profile_fig6(seed=0)
    path = tmp_path / "depth.csv"
    dataio.write_depth_profile_csv(profile, path)
    back = dataio.read_depth_profile_csv(path)
    assert np.array_equal(back.z_um, profile.z_um)
    assert np.array_equal(back.counts, profile.counts)


def test_scan_grid_long_format_roundtrip(tmp_path):
    grid = ScanGrid(
        x_um=np.arange(10.0),
        y_um=np.arange(8.0),
        counts=np.arange(80.0).reshape(8, 10),
    )
    path = tmp_path / "grid.csv"
    dataio.write_scan_grid_csv(grid, path)
    back = dataio.read_scan_grid_csv(path)
    assert np.array_equal(back.x_um, grid.x_um)
    assert np.array_equal(back.y_um, grid.y_um)
    assert np.array_equal(back.counts, grid.counts)


def test_scan_grid_dense_format(tmp_path):
    path = tmp_path / "dense.csv"
    lines = ["y_um\\x_um,0.0,1.0,2.0"]
    lines.append("0.0,10.0,11.0,12.0")
    lines.append("1.0,13.0,14.0,15.0")
    path.write_text("\n".join(lines) + "\n")
    grid = dataio.read_scan_grid_csv(path)
    assert np.array_equal(grid.x_um, [0.0, 1.0, 2.0])
    assert np.array_equal(grid.y_um, [0.0, 1.0])
    assert grid.counts[1, 2] == 15.0


def test_scan_grid_incomplete_long_format_rejected(tmp_path):
    path = tmp_path / "partial.csv"
    path.write_text("x_um,y_um,counts\n0.0,0.0,1.0\n1.0,0.0,2.0\n0.0,1.0,3.0\n")
    with pytest.raises(ValueError):
        dataio.read_scan_grid_csv(path)


def test_scan_grid_long_format_with_a_repeated_pixel_rejected(tmp_path):
    # A full 2 x 2 grid plus a second row for pixel (1, 1), which used to win silently.
    path = tmp_path / "repeated.csv"
    path.write_text("x_um,y_um,counts\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n1,1,400\n")
    with pytest.raises(ValueError, match=r"repeats a pixel: 5 rows for 2 x 2 pixels"):
        dataio.read_scan_grid_csv(path)


#: case -> (the scan mode that reads a CSV carrying the fault, or None where no
#: CSV can carry it; that CSV, or the record made directly; the record's message).
RECORD_REFUSALS = {
    "dense_grid_x_not_increasing": ("spots", "y_um\\x_um,0.0,2.0,1.0\n0.0,5.0,5.0,5.0\n1.0,5.0,5.0,5.0\n",
                                    "grid axes must be strictly increasing"),
    "depth_shape": (None, lambda: DepthProfile(z_um=np.arange(3.0), counts=np.ones(2)),
                    "z and counts must be 1-D arrays of equal length"),
    "depth_not_increasing": ("depth", "z_um,counts\n0.0,5.0\n2.0,5.0\n1.0,5.0\n", "z must be strictly increasing"),
    "spectrum_shape": (None, lambda: Spectrum(values=np.arange(3.0), counts=np.ones((3, 1))),
                       "values and counts must be 1-D arrays of equal length"),
    "spectrum_not_increasing": ("spectrum", "wavelength_nm,counts\n500.0,5.0\n500.0,5.0\n",
                                "spectral axis must be strictly increasing"),
    "spectrum_negative_counts": ("spectrum", "wavenumber_cm1,counts\n1300.0,5.0\n1301.0,-1.0\n",
                                 "counts must be non-negative"),
    "spectrum_unit": (None, lambda: Spectrum(values=np.arange(3.0), counts=np.ones(3), unit="eV"),
                      "unit must be 'nm' or 'cm-1'"),
}


@pytest.mark.parametrize("case", list(RECORD_REFUSALS))
def test_record_refusals(tmp_path, capsys, case):
    mode, source, message = RECORD_REFUSALS[case]
    if mode is None:
        with pytest.raises(ValueError) as refusal:
            source()
        assert str(refusal.value) == message
        return
    path = tmp_path / "input.csv"
    path.write_text(source)
    assert main(["scan", "--mode", mode, "--input", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list((tmp_path / "out").iterdir()) == []


def test_json_writer_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "out.json"
    dataio.write_json(path, {"b": 1, "a": 2})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


def test_json_writer_writes_records_as_their_fields(tmp_path):
    spots = [SpotFit(1.5, -2.0, 15.0, 27.0, 3e4), SpotFit(0.0, 0.25, 9.0, 9.5, 1.2e3)]
    peak = PeakFit(1332.54, 1.61, 900.0, 355.9, "diamond_raman")
    plan = implant.build_plan(implant.BeamConfig(5000.0, 500e-12, 25e-6), 1e12)
    report = magnetometry.sensitivity_report(*magnetometry.paper_ideal_spot())
    cases = [
        (plan, asdict(plan)),
        (report, asdict(report)),
        ({"spots": spots, "peak": peak}, {"spots": [asdict(s) for s in spots], "peak": asdict(peak)}),
    ]
    for i, (payload, fields) in enumerate(cases):
        record, plain = tmp_path / f"record{i}.json", tmp_path / f"plain{i}.json"
        dataio.write_json(record, payload)
        dataio.write_json(plain, fields)
        assert record.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("value", [np.arange(3.0), object()], ids=["ndarray", "object"])
def test_json_writer_rejects_other_objects_and_writes_nothing(tmp_path, value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        dataio.write_json(tmp_path / "out.json", {"value": value, "spot": SpotFit(0, 0, 1, 1, 1)})
    assert list(tmp_path.iterdir()) == []


def _write_payloads():
    t = np.linspace(0.0, 1e-5, 4)
    field = MagneticFieldVector(0.0, 0.0, 1.6e-3)
    return {
        "decay": (DecayCurve(t, np.exp(-t / 3e-6), meta={"engine": "analytic"}),
                  dataio.write_decay_csv, [".csv", ".json"]),
        "odmr": (odmr_spectrum(SpinParams(), field, np.linspace(2.8e9, 2.94e9, 5)),
                 dataio.write_odmr_csv, [".csv"]),
        "grid": (ScanGrid([0.0, 1.0], [0.0, 1.0, 2.0], np.arange(6.0).reshape(3, 2)),
                 dataio.write_scan_grid_csv, [".csv"]),
        "depth": (DepthProfile(np.arange(3.0), [1.0, 2.0, 4.0]),
                  dataio.write_depth_profile_csv, [".csv"]),
        "spectrum": (Spectrum([630.0, 637.0], [1.0, 9.0], unit="nm"),
                     dataio.write_spectrum_csv, [".csv"]),
        "record": (SpotFit(1.5, -2.0, 15.0, 27.0, 3e4), dataio.write_json, [".json"]),
        "dict": ({"b": 1, "a": [2.5]}, dataio.write_json, [".json"]),
    }


@pytest.mark.parametrize("kind", list(_write_payloads()))
def test_write_returns_exactly_the_files_it_creates(tmp_path, kind):
    payload, writer, suffixes = _write_payloads()[kind]
    by_type, direct = tmp_path / "by_type", tmp_path / "direct"
    by_type.mkdir()
    direct.mkdir()
    name = "out" + suffixes[0]
    written = dataio.write(by_type / name, payload)
    assert written == [(by_type / name).with_suffix(s) for s in suffixes]
    assert sorted(by_type.iterdir()) == sorted(written)
    # The same bytes as the type's own writer.
    if writer is dataio.write_json:
        writer(direct / name, payload)
    else:
        writer(payload, direct / name)
    for path in written:
        assert path.read_bytes() == (direct / path.name).read_bytes()


def test_a_write_leaves_another_writers_temp_alone(tmp_path):
    # Another process writing the same path has its own temp file there; this
    # write publishes its own full text through a temp of its own.
    path, foreign = tmp_path / "out.json", tmp_path / "out.json.tmp"
    foreign.write_text("another writer's part\n")
    dataio.write_json(path, {"a": [1.5]})
    assert path.read_text() == '{\n  "a": [\n    1.5\n  ]\n}\n'
    assert foreign.read_text() == "another writer's part\n"
    assert sorted(tmp_path.iterdir()) == [path, foreign]


def test_t2_table_csv(tmp_path):
    from nvforge.fitkit import T2TableRow

    rows = [
        T2TableRow(n=1, t2_s=6.4e-6, p=0.96, stderr_t2_s=1e-8, stderr_p=0.01),
        T2TableRow(n=4, t2_s=1.6e-5, p=1.5, stderr_t2_s=2e-8, stderr_p=0.02),
    ]
    path = tmp_path / "t2_table.csv"
    dataio.write_t2_table_csv(rows, path)
    assert path.read_text().splitlines() == [
        "n,t2_s,p,stderr_t2_s,stderr_p",
        "1.0,6.4e-06,0.96,1e-08,0.01",
        "4.0,1.6e-05,1.5,2e-08,0.02",
    ]
