"""Sequential prefetch-on-miss (the paper's Table 6 mechanism).

    "One simple prefetch strategy is sequential prefetch-on-miss, where
    a cache miss is serviced by fetching both the missing line and the
    next N sequential lines into the cache."

Execution model per the Table 6 caption: "the processor must stall
until both the miss and the prefetches are returned to the cache.
Prefetches are not cancelled."  Prefetched lines are installed in the
cache immediately (and may evict useful lines — the cache-pollution
effect the paper discusses for long lines applies here too).
"""

from __future__ import annotations

from repro.caches.base import CacheGeometry
from repro.fetch.engine import FetchEngine
from repro.fetch.timing import MemoryTiming


class PrefetchOnMissEngine(FetchEngine):
    """Demand fetch plus N-line sequential prefetch, stall-until-done."""

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming,
        n_prefetch: int = 1,
    ):
        super().__init__(geometry, timing)
        if n_prefetch < 0:
            raise ValueError(f"n_prefetch must be >= 0, got {n_prefetch}")
        self.n_prefetch = n_prefetch
        # Miss + N prefetched lines all transfer back-to-back; the
        # processor resumes when the last byte arrives.
        self._penalty = timing.fill_penalty(
            geometry.line_size * (n_prefetch + 1)
        )

    def _access(self, line: int, first_offset: int, now: int) -> tuple[int, bool]:
        if self.cache.access_line(line):
            return 0, False
        for distance in range(1, self.n_prefetch + 1):
            self.cache.install_line(line + distance)
        return self._penalty, True

