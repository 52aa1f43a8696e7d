"""The median and unique that stand in for ``np.median`` and ``np.unique``.

Both numpy calls import ``numpy.ma`` on first use, so the commands use
:func:`nvforge.dataio.median` and :func:`nvforge.dataio.sorted_unique`
instead.  Each must return numpy's bits on every input it can get.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvforge import dataio

# Values that sort, compare or add in a special way: signed zeros, the
# smallest subnormal, pairs whose sum overflows, infinities.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, math.inf, -math.inf)


@st.composite
def float_arrays(draw, finite: bool):
    """1 to 300 floats drawn from a pool of 1 to 12, so most arrays repeat values."""
    special = st.sampled_from([v for v in SPECIAL if math.isfinite(v) or not finite])
    pool = draw(st.lists(st.one_of(special, st.floats(allow_nan=not finite, allow_infinity=not finite)),
                         min_size=1, max_size=12))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300)), dtype=float)


def _bits(value) -> list[int]:
    return np.asarray(value, dtype=float).view(np.uint64).ravel().tolist()


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(values=float_arrays(finite=False))
@example(values=np.array([1.0]))
@example(values=np.array([1.7e308, 1.7e308]))  # the middle pair's sum overflows to inf
@example(values=np.array([-0.0, 0.0, 0.0, -0.0]))
@example(values=np.array([3.0, math.nan, 1.0]))
@example(values=np.arange(299.0))
@example(values=np.arange(300.0)[::-1].copy())
def test_median_is_np_median_bit_for_bit(values):
    with np.errstate(all="ignore"):
        expected, got = np.median(values), dataio.median(values)
    assert type(got) is type(expected)
    assert _bits(got) == _bits(expected)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(values=float_arrays(finite=True))
@example(values=np.array([0.0, -0.0]))
@example(values=np.array([-0.0, 0.0, 1.0, -0.0]))
@example(values=np.array([1.7e308, -1.7e308, 1.7e308]))
def test_sorted_unique_is_np_unique_bit_for_bit(values):
    # The reader passes a column of its 2-D data, a strided view.
    column = np.stack([values, values[::-1]], axis=1)[:, 0]
    assert _bits(dataio.sorted_unique(column)) == _bits(np.unique(column))


@st.composite
def grid_files(draw):
    """A scan grid's axes and its long-format rows in a drawn order, zeros written as 0.0 or -0.0."""
    step = draw(st.sampled_from([0.1, 0.5, 1.0, 4.0, 12.5]))
    axes = [step * (np.arange(draw(st.integers(1, 10))) + draw(st.integers(-12, 3))) for _ in range(2)]
    pixels = [(x, y) for y in axes[1].tolist() for x in axes[0].tolist()]
    order = draw(st.permutations(range(len(pixels))))
    zero = st.sampled_from(["0.0", "-0.0"])
    rows = []
    for i in order:
        x, y = (draw(zero) if v == 0 else repr(v) for v in pixels[i])
        rows.append(f"{x},{y},{float(i)!r}")
    return axes, rows


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(grid=grid_files())
def test_scan_grid_reader_keeps_the_axes_np_unique_gave(grid):
    (x, y), rows = grid
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    with tempfile.TemporaryDirectory() as tmp:
        long_path, dense_path = Path(tmp) / "long.csv", Path(tmp) / "dense.csv"
        long_path.write_text("\n".join(["x_um,y_um,counts", *rows]) + "\n")
        dense_path.write_text("\n".join([
            ",".join(["y_um\\x_um", *map(repr, x.tolist())]),
            *(",".join([repr(yv), *["1.0"] * x.size]) for yv in y.tolist()),
        ]) + "\n")
        long_grid = dataio.read_scan_grid_csv(long_path)
        dense_grid = dataio.read_scan_grid_csv(dense_path)
    assert _bits(long_grid.x_um) == _bits(np.unique(data[:, 0]))
    assert _bits(long_grid.y_um) == _bits(np.unique(data[:, 1]))
    assert long_grid.counts.ravel().tolist() == [float(i) for i in range(len(rows))]  # row-major pixel order
    assert _bits(dense_grid.x_um) == _bits(x) and _bits(dense_grid.y_um) == _bits(y)

