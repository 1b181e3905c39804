"""Trap-driven simulation (the Tapeworm II model).

The paper complements its trace-driven results with Tapeworm II, a
simulator that ran *inside* the OS kernel alongside the workload, so
every experimental trial saw the real, different virtual-to-physical
page mapping the OS happened to produce — exposing the run-to-run
performance variability of physically-indexed caches (Figure 5).

This subpackage reproduces the methodology: each trial draws a fresh
random page mapping, translates the workload's references, simulates
the physically-indexed cache, and the harness reports the mean and
standard deviation of CPIinstr across trials.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "TapewormSimulator": ".trapdriven",
    "TrialResult": ".trapdriven",
    "VariabilityResult": ".trapdriven",
    "translate_lines": ".trapdriven",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
