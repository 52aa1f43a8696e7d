"""Physical constants shared across the toolkit.

All values are plain SI floats, exposed at module level so tests can pin
them.  Where a constant is a convention of this toolkit rather than a CODATA
value (e.g. the range-curve anchors in :mod:`nvforge.implant`) it lives next
to the code that uses it instead.
"""

# NV ground-state zero-field splitting between m_S = 0 and m_S = +/-1 (Hz).
ZERO_FIELD_SPLITTING_HZ = 2.87e9

# Electron gyromagnetic ratio for the NV center, g ~ 2 (Hz per tesla).
GYROMAGNETIC_RATIO_HZ_PER_T = 2.8024e10

# Carbon number density of diamond (atoms per cubic meter).
CARBON_NUMBER_DENSITY_M3 = 1.76e29

# Elementary charge (coulomb); beam currents are singly-charged ion counts.
ELEMENTARY_CHARGE_C = 1.602176634e-19  # CODATA 2018, exact

