"""Key-value run-configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Keys use the same names as the CLI flags (dashes or
underscores, unit suffixes included, e.g. ``tau-s = 1e-6``).  Unknown and
duplicate keys are rejected; command-line flags override file values.
"""

from __future__ import annotations

import math
from argparse import ArgumentTypeError
from pathlib import Path


class ConfigError(ValueError):
    """A configuration file or flag set is invalid."""


def parse_config_file(path: Path) -> dict[str, str]:
    """Parse a config file into normalized {key: raw-string-value}."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_").lower()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def resolve_options(
    flag_values: dict,
    file_values: dict[str, str],
    spec: dict[str, tuple],
) -> dict:
    """Merge defaults, config-file values, and explicit flags.

    ``spec`` maps option name -> (type, default), where the type parses a
    raw string and raises ``ValueError`` (or, for :func:`choice` and
    :func:`finite`, ``ArgumentTypeError``) on a bad one.  Precedence: flag over file over
    default.  Unknown file keys and bad values raise :class:`ConfigError`.
    """
    unknown = set(file_values) - set(spec)
    if unknown:
        raise ConfigError(
            f"unknown config key(s): {', '.join(sorted(unknown))}; "
            f"accepted keys: {', '.join(sorted(spec))}"
        )
    resolved = {}
    for name, (typ, default) in spec.items():
        if flag_values.get(name) is not None:
            resolved[name] = flag_values[name]
        elif name in file_values:
            try:
                resolved[name] = typ(file_values[name])
            except (ValueError, ArgumentTypeError) as exc:
                raise ConfigError(f"config key {name!r}: {exc}") from exc
        else:
            resolved[name] = default
    return resolved


def boolean(raw: str) -> bool:
    """Parse a boolean flag or config value (true/false, 1/0, yes/no, on/off)."""
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {raw!r}")


def finite(raw: str) -> float:
    """Parse a float flag or config value that must be finite.

    nan and inf raise ``ArgumentTypeError``, whose message argparse prints
    as is; a value that is no number raises ``ValueError``, as ``float`` does.
    """
    value = float(raw)
    if not math.isfinite(value):
        raise ArgumentTypeError(f"expected a finite number, got {raw!r}")
    return value


def choice(*values: str):
    """Parser for a fixed-value option: one of ``values``, matched case-insensitively.

    ``values`` are lower case; the parser returns the matching one and
    keeps the list in ``.choices``.  Any other value raises
    ``ArgumentTypeError``, whose message argparse prints as is.
    """

    def parse(raw: str) -> str:
        lowered = raw.lower()
        if lowered not in values:
            raise ArgumentTypeError(f"expected one of {', '.join(values)}; got {raw!r}")
        return lowered

    parse.choices = values
    return parse
