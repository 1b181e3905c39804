"""Memory-system configurations.

Bundles the cache geometries and interface timings that together define
one design point of the paper's study: the fixed 8 KB direct-mapped L1
(cycle-time constrained — the premise of Section 5), an optional on-chip
L2, the L1-L2 interface timing, and the timing of the next level below
the lowest on-chip cache.

The two baselines of Table 5 are provided as constructors:

* :meth:`MemorySystemConfig.economy` — L1 backed directly by main
  memory (30-cycle latency, 4 bytes/cycle).
* :meth:`MemorySystemConfig.high_performance` — L1 backed by an ideal
  off-chip cache (12-cycle latency, 8 bytes/cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.caches.base import CacheGeometry
from repro.fetch.timing import (
    ECONOMY_MEMORY,
    HIGH_PERF_MEMORY,
    L1_L2_INTERFACE,
    MemoryTiming,
)

#: Fraction of instructions excluded from measurement (state still
#: simulated) at the start of every trace; see :mod:`repro.core.metrics`,
#: which re-exports it.  Defined here, numpy-free, because it is part
#: of every experiment's settings and so of every serving-layer job key.
DEFAULT_WARMUP_FRACTION = 0.30

#: The paper's baseline L1: 8 KB, direct-mapped, 32-byte lines.
BASELINE_L1 = CacheGeometry(size_bytes=8192, line_size=32, associativity=1)


@dataclass(frozen=True)
class MemorySystemConfig:
    """One memory-system design point.

    Attributes:
        name: label used in reports ("economy", "high-performance", ...).
        l1: the primary I-cache geometry.
        l2: optional on-chip second-level cache geometry.
        l1_interface: timing between the L1 and the next level (the L2
            when present, otherwise ``memory``); when ``None`` it
            defaults to ``memory`` timing (no L2) or the paper's 6-cycle
            16-byte/cycle on-chip interface (with L2).
        memory: timing of the level below the lowest on-chip cache.
    """

    name: str
    l1: CacheGeometry
    memory: MemoryTiming
    l2: CacheGeometry | None = None
    l1_interface: MemoryTiming | None = None

    @property
    def effective_l1_interface(self) -> MemoryTiming:
        """The timing the L1 actually refills through."""
        if self.l1_interface is not None:
            return self.l1_interface
        if self.l2 is not None:
            return L1_L2_INTERFACE
        return self.memory

    @property
    def l1_miss_penalty(self) -> int:
        """Cycles to refill a full L1 line (the demand-fetch model)."""
        return self.effective_l1_interface.fill_penalty(self.l1.line_size)

    @property
    def l2_miss_penalty(self) -> int:
        """Cycles to refill a full L2 line from memory."""
        if self.l2 is None:
            raise ValueError(f"configuration {self.name!r} has no L2 cache")
        return self.memory.fill_penalty(self.l2.line_size)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def economy(l1: CacheGeometry = BASELINE_L1) -> "MemorySystemConfig":
        """Table 5's economy baseline: L1 straight to main memory."""
        return MemorySystemConfig(name="economy", l1=l1, memory=ECONOMY_MEMORY)

    @staticmethod
    def high_performance(
        l1: CacheGeometry = BASELINE_L1,
    ) -> "MemorySystemConfig":
        """Table 5's high-performance baseline: ideal off-chip cache."""
        return MemorySystemConfig(
            name="high-performance", l1=l1, memory=HIGH_PERF_MEMORY
        )

    # -- derivation --------------------------------------------------------

    def with_l2(
        self,
        l2: CacheGeometry,
        interface: MemoryTiming = L1_L2_INTERFACE,
    ) -> "MemorySystemConfig":
        """Add (or replace) an on-chip L2, keeping the memory behind it."""
        return replace(
            self,
            name=f"{self.name}+L2({l2.describe()})",
            l2=l2,
            l1_interface=interface,
        )

    def with_l1(self, l1: CacheGeometry) -> "MemorySystemConfig":
        """Replace the L1 geometry (line-size sweeps)."""
        return replace(self, l1=l1)

    def with_l1_interface(self, interface: MemoryTiming) -> "MemorySystemConfig":
        """Replace the L1 refill interface (bandwidth sweeps)."""
        return replace(self, l1_interface=interface)

    def describe(self) -> str:
        """One-line human-readable description."""
        parts = [f"L1 {self.l1.describe()}"]
        if self.l2 is not None:
            iface = self.effective_l1_interface
            parts.append(
                f"L2 {self.l2.describe()} via {iface.latency}cyc/"
                f"{iface.bytes_per_cycle}B"
            )
        parts.append(
            f"memory {self.memory.latency}cyc/{self.memory.bytes_per_cycle}B"
        )
        return ", ".join(parts)
