"""The paper's analysis framework: configurations, metrics, CPI model.

This is the library's primary public surface.  A typical study:

>>> from repro.core import MemorySystemConfig, evaluate
>>> from repro.fetch import ECONOMY_MEMORY
>>> config = MemorySystemConfig.economy()
>>> result = evaluate("groff", "mach3", config)
>>> round(result.cpi_instr, 2)  # doctest: +SKIP
1.9

mirrors the paper's flow: pick a workload, pick a memory-system
configuration, read off the instruction-fetch CPI contribution.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "MemorySystemConfig": ".config",
    "MpiMeasurement": ".metrics",
    "measure_mpi": ".metrics",
    "measure_mpi_lines": ".metrics",
    "measure_three_cs": ".metrics",
    "warmup_cut": ".metrics",
    "DEFAULT_WARMUP_FRACTION": ".config",
    "CpiBreakdown": ".cpi",
    "cpi_instr": ".cpi",
    "evaluate": ".study",
    "StudyResult": ".study",
    "IssueProjection": ".multiissue",
    "project_issue_widths": ".multiissue",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
