"""Internal utilities shared across the :mod:`repro` subpackages.

Nothing in this package is part of the public API; import from the
documented subpackages instead.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "is_power_of_two": ".bitops",
    "ilog2": ".bitops",
    "align_down": ".bitops",
    "align_up": ".bitops",
    "check_positive": ".validate",
    "check_power_of_two": ".validate",
    "check_in_range": ".validate",
    "check_fraction": ".validate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
