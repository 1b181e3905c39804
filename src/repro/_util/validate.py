"""Argument-validation helpers.

These raise early, with messages that name the offending parameter, so
configuration mistakes surface at construction time rather than deep
inside a simulation loop.
"""

from __future__ import annotations

import os

from repro._util.bitops import is_power_of_two


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive power of two."""
    if not isinstance(value, int) or not is_power_of_two(value):
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")


def check_in_range(name: str, value: float, low: float, high: float) -> None:
    """Raise ``ValueError`` unless ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")


def check_fraction(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a probability in [0, 1]."""
    check_in_range(name, value, 0.0, 1.0)


def env_positive_int(name: str, default: int) -> int:
    """A positive integer from environment variable ``name``, if set.

    Unset or blank gives ``default``; any other value that is not a
    positive integer raises ``ValueError`` naming the variable.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value
