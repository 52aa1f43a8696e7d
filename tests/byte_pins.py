"""What a byte pin records next to its bytes: the versions and the numeric path that made them.

``same_bytes_digests.json`` and ``t2_table.json`` hold bytes that follow the
Python and numpy versions, and also the SIMD target numpy dispatches each
float64 ufunc of :data:`SIMD_UFUNCS` to on this CPU: numpy 2.4's ``exp``,
``expm1``, ``log``, ``log1p`` and ``power`` give other bits on the AVX-512
path than on the AVX2 and baseline ones, and ``tanh`` differs between AVX2
and baseline.  The chi kernel, the grids and the fits use all six.
"""

import platform

import numpy as np

try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # numpy before 2.0 does not report its dispatch
    opt_func_info = None

SIMD_UFUNCS = ("exp", "expm1", "log", "log1p", "power", "tanh")


def simd_targets() -> dict | None:
    """Ufunc name -> the SIMD target of its float64 loop on this CPU, or None where numpy does not say."""
    if opt_func_info is None:
        return None
    info = opt_func_info(func_name=f"^({'|'.join(SIMD_UFUNCS)})$", signature="float64")
    return {name: next(iter(info[name].values()))["current"] for name in SIMD_UFUNCS}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "simd": simd_targets()}


def _named(simd: dict | None) -> str:
    return "unknown" if simd is None else ", ".join(f"{name} {target}" for name, target in simd.items())


def mismatch(table: dict) -> str:
    """'' when ``table`` records this run's :func:`versions`, else a clause naming both sides."""
    made, here = {k: table.get(k) for k in versions()}, versions()
    if made == here:
        return ""
    return (f"made with python {made['python']} and numpy {made['numpy']}, "
            f"this run has python {here['python']} and numpy {here['numpy']}; "
            f"made with float64 {_named(made['simd'])}, this run has float64 {_named(here['simd'])}")
