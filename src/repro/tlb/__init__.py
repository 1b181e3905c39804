"""TLB simulation.

Models the R2000/R3000 translation hardware the paper's machines used:
a fully-associative, 64-entry TLB over 4 KB pages with software-managed
refill (the miss penalty is the software handler's path length, not a
hardware state machine).
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "Tlb": ".tlb",
    "TlbResult": ".tlb",
    "simulate_tlb": ".tlb",
    "R2000_TLB_ENTRIES": ".tlb",
    "R2000_PAGE_SIZE": ".tlb",
    "DEFAULT_REFILL_CYCLES": ".tlb",
    "MachTlbResult": ".mach_tlb",
    "simulate_mach_tlb": ".mach_tlb",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
