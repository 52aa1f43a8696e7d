"""Same bytes for T2(n): ``engines.t2_vs_n`` against a checked-in table of its fits.

No CLI command reaches ``t2_vs_n``, so the same-bytes digests do not cover
it.  For each case of :data:`CASES`, ``t2_table.json`` holds every row of
the sweep's stretched-exponential fits as ``[n, repr(t2_s), repr(p)]``,
read from ``fitkit.extract_t2_table``, which ``t2_vs_n`` calls.  Like
``same_bytes_digests.json`` it records the Python and numpy versions and
numpy's SIMD targets that made it (see ``byte_pins``).  A declared change regenerates it:

    PYTHONPATH=src python tests/test_t2_table.py > tests/t2_table.json
"""

import json
from pathlib import Path
from unittest import mock

import pytest

from byte_pins import mismatch, versions
from nvforge import engines, fitkit
from nvforge.noise import NoiseModel
from nvforge.presets import paper_like_noise, slow_bath_noise

TABLE = Path(__file__).with_name("t2_table.json")

#: name -> (noise model, n list, grid points).  Besides the two presets, fixed
#: baths across b * tau_c 0.3-5 and tau_c 2 us-0.4 ms, with unsorted and
#: repeated n and T1 on for two of them.
CASES = {
    "paper-like": (paper_like_noise, [1, 4, 8, 16, 32, 64], 40),
    "slow-bath": (slow_bath_noise, [4, 8, 16, 32, 64], 40),
    "bath-a": (lambda: NoiseModel(1.5e5, 2e-6), [7, 2, 7, 128, 3], 24),
    "bath-b": (lambda: NoiseModel(1.25e4, 4e-4, 0.5, 1.2), [1, 16, 2048, 5], 32),
    "bath-c": (lambda: NoiseModel(2.5e5, 2e-5, 4e-4, 1.5), [9, 64, 300, 1, 64], 40),
}


def t2_rows(noise: NoiseModel, n_list, n_points: int) -> list[list]:
    """``t2_vs_n``'s fits as ``[n, repr(t2_s), repr(p)]``, one per row it returns."""
    extract = fitkit.extract_t2_table
    rows = []

    def recording(curves):
        rows.extend(extract(curves))
        return rows

    with mock.patch.object(fitkit, "extract_t2_table", recording):
        table = engines.t2_vs_n(noise, n_list, n_points=n_points)
    assert table == [(row.n, row.t2_s) for row in rows]
    return [[row.n, repr(row.t2_s), repr(row.p)] for row in rows]


@pytest.mark.parametrize("name", CASES)
def test_t2_vs_n_gives_its_recorded_fits(name):
    table = json.loads(TABLE.read_text())
    why = mismatch(table)
    assert not why, f"the table was {why}; regenerate it"
    noise, n_list, n_points = CASES[name]
    assert t2_rows(noise(), n_list, n_points) == table["cases"][name]


if __name__ == "__main__":
    cases = {name: t2_rows(noise(), n_list, n_points) for name, (noise, n_list, n_points) in CASES.items()}
    print(json.dumps({**versions(), "cases": cases}, indent=1))
