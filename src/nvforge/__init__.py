"""nvforge: desk-scale NV-center ensemble simulation and analysis toolkit."""

__version__ = "0.1.0"
