"""Workload lookup and suites: the paper's aggregations, as
``(name, os_name)`` pairs.

Pure data over the workload definitions, with no numpy and no trace
machinery behind it, so the CLI can offer suite names as parser
choices, and the server can validate and key a request, without
loading the synthesizer.  :mod:`repro.workloads.registry` re-exports
everything here.
"""

from __future__ import annotations

import functools

from repro.workloads.ibs import IBS_WORKLOADS
from repro.workloads.os_model import MACH3, ULTRIX, to_ultrix
from repro.workloads.params import WorkloadParams
from repro.workloads.spec import (
    SPEC89_FP_WORKLOADS,
    SPEC89_INT_WORKLOADS,
    SPEC92_FP_WORKLOADS,
    SPEC92_INT_WORKLOADS,
)

#: Default trace length (instruction fetches) for experiments.  Long
#: enough that 8 KB-cache MPIs are stable to well under the paper's
#: quoted 5% measurement error; short enough that a full table sweep
#: runs in minutes on a laptop.
DEFAULT_TRACE_INSTRUCTIONS = 1_000_000

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


def get_workload(name: str, os_name: str = MACH3) -> WorkloadParams:
    """Look up a workload definition by name and OS/suite.

    ``os_name`` is ``"mach3"`` or ``"ultrix"`` for IBS workloads,
    ``"spec92"`` or ``"spec89"`` for SPEC models.
    """
    if os_name in (MACH3, ULTRIX):
        if name not in IBS_WORKLOADS:
            raise KeyError(
                f"unknown IBS workload {name!r}; available: "
                f"{sorted(IBS_WORKLOADS)}"
            )
        if os_name == ULTRIX:
            return _ultrix_workload(name)
        return IBS_WORKLOADS[name]
    if os_name == "spec92":
        table = {**SPEC92_INT_WORKLOADS, **SPEC92_FP_WORKLOADS}
    elif os_name == "spec89":
        table = {**SPEC89_INT_WORKLOADS, **SPEC89_FP_WORKLOADS}
    else:
        raise KeyError(f"unknown OS/suite {os_name!r}")
    if name not in table:
        raise KeyError(
            f"unknown {os_name} workload {name!r}; available: {sorted(table)}"
        )
    return table[name]


@functools.cache
def _ultrix_workload(name: str) -> WorkloadParams:
    """The Ultrix variant of an IBS workload, derived once per process
    so every lookup returns the same object (its trace-cache
    fingerprint is then computed once)."""
    return to_ultrix(IBS_WORKLOADS[name])
