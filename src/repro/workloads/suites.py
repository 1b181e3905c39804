"""Workload suites: the paper's aggregations, as ``(name, os_name)`` pairs.

Pure data over the workload definitions, with no numpy and no trace
machinery behind it, so the CLI can offer suite names as parser
choices without loading the synthesizer.  :mod:`repro.workloads.registry`
re-exports everything here.
"""

from __future__ import annotations

from repro.workloads.ibs import IBS_WORKLOADS
from repro.workloads.os_model import MACH3, ULTRIX
from repro.workloads.spec import (
    SPEC89_FP_WORKLOADS,
    SPEC89_INT_WORKLOADS,
    SPEC92_FP_WORKLOADS,
    SPEC92_INT_WORKLOADS,
)

_SUITES: dict[str, list[tuple[str, str]]] = {
    "ibs-mach3": [(name, MACH3) for name in IBS_WORKLOADS],
    "ibs-ultrix": [(name, ULTRIX) for name in IBS_WORKLOADS],
    "specint92": [(name, "spec92") for name in SPEC92_INT_WORKLOADS],
    "specfp92": [(name, "spec92") for name in SPEC92_FP_WORKLOADS],
    "spec92": [(name, "spec92") for name in SPEC92_INT_WORKLOADS]
    + [(name, "spec92") for name in SPEC92_FP_WORKLOADS],
    "specint89": [(name, "spec89") for name in SPEC89_INT_WORKLOADS],
    "specfp89": [(name, "spec89") for name in SPEC89_FP_WORKLOADS],
}


def list_workloads(os_name: str | None = None) -> list[tuple[str, str]]:
    """All known ``(name, os_name)`` pairs, optionally filtered by OS."""
    pairs: list[tuple[str, str]] = []
    for suite in ("ibs-mach3", "ibs-ultrix", "spec92", "specint89", "specfp89"):
        pairs.extend(_SUITES[suite])
    if os_name is not None:
        pairs = [p for p in pairs if p[1] == os_name]
    return pairs


def suite_names() -> list[str]:
    """Names of the defined workload suites."""
    return sorted(_SUITES)


def suite_workloads(suite: str) -> list[tuple[str, str]]:
    """The ``(name, os_name)`` members of a suite."""
    try:
        return list(_SUITES[suite])
    except KeyError:
        raise KeyError(
            f"unknown suite {suite!r}; available: {sorted(_SUITES)}"
        ) from None
