"""Fully-associative and set-associative TLB models.

Two paths, mirroring the cache simulators:

* :class:`Tlb` — a sequential simulator with LRU, FIFO or random
  replacement (the R2000 hardware used random replacement via its
  ``TLBWR`` index register).
* :func:`simulate_tlb` — a vectorized miss counter over a whole trace's
  page-number column (LRU; exact, and fast enough for the full Table 1
  sweeps).  For the 64-entry sizes modelled here, LRU and random differ
  by only a few percent in miss ratio; the sequential simulator lets
  tests quantify exactly that.

The refill penalty is the software handler cost: the MIPS "uTLB"
fast path for user mappings is about 16 cycles; kernel and nested
misses take substantially longer [Nagle93].  We use a single blended
default, configurable per study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.bitops import ilog2
from repro._util.validate import check_positive, check_power_of_two
from repro.caches.base import ReplacementPolicy
from repro.caches.vectorized import miss_mask_fully_associative
from repro._util.lru import LruSet
from repro._util.rng import make_rng

#: The R2000/R3000 TLB geometry the paper's DECstations had.
R2000_TLB_ENTRIES = 64
R2000_PAGE_SIZE = 4096

#: Blended software-refill cost (cycles per TLB miss).
DEFAULT_REFILL_CYCLES = 24


@dataclass(frozen=True)
class TlbResult:
    """Outcome of a TLB simulation over a reference stream."""

    references: int
    misses: int
    instructions: int

    @property
    def miss_ratio(self) -> float:
        """Misses per reference."""
        if self.references == 0:
            return 0.0
        return self.misses / self.references

    @property
    def mpi(self) -> float:
        """Misses per instruction (all references go through the TLB)."""
        if self.instructions == 0:
            return 0.0
        return self.misses / self.instructions

    def cpi_contribution(self, refill_cycles: float = DEFAULT_REFILL_CYCLES) -> float:
        """CPI lost to TLB refills."""
        return self.mpi * refill_cycles


class Tlb:
    """A sequential TLB simulator (fully associative by default)."""

    def __init__(
        self,
        n_entries: int = R2000_TLB_ENTRIES,
        page_size: int = R2000_PAGE_SIZE,
        policy: ReplacementPolicy = ReplacementPolicy.RANDOM,
        seed: int | None = None,
    ):
        check_positive("n_entries", n_entries)
        check_power_of_two("page_size", page_size)
        self.n_entries = n_entries
        self.page_size = page_size
        self.policy = policy
        self._page_bits = ilog2(page_size)
        self._entries = LruSet(n_entries)
        self._rng = make_rng(seed) if policy is ReplacementPolicy.RANDOM else None
        self.accesses = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Translate one byte address; return ``True`` on a TLB hit."""
        return self.access_page(address >> self._page_bits)

    def access_page(self, page: int) -> bool:
        """Translate a page number; return ``True`` on a TLB hit."""
        self.accesses += 1
        entries = self._entries
        if page in entries:
            if self.policy is ReplacementPolicy.LRU:
                entries.touch(page)
            return True
        self.misses += 1
        if (
            self.policy is ReplacementPolicy.RANDOM
            and len(entries) >= self.n_entries
        ):
            victims = list(entries)
            entries.discard(victims[int(self._rng.integers(0, len(victims)))])
        entries.touch(page)
        return False

    @property
    def miss_ratio(self) -> float:
        """Misses per access so far."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def invalidate_all(self) -> None:
        """Flush the TLB (a context switch on architectures without
        address-space tags; the R2000 had 6-bit ASIDs, so flushes were
        rare — tests use this to model ASID exhaustion)."""
        self._entries.clear()


def simulate_tlb(
    addresses: np.ndarray,
    n_instructions: int,
    n_entries: int = R2000_TLB_ENTRIES,
    page_size: int = R2000_PAGE_SIZE,
    warmup_fraction: float = 0.0,
) -> TlbResult:
    """Vectorized fully-associative LRU TLB miss count over a trace.

    Args:
        addresses: all byte addresses (instruction and data), in order.
        n_instructions: instruction count, the CPI denominator.
        warmup_fraction: fraction of references excluded from counting.
    """
    check_power_of_two("page_size", page_size)
    addresses = np.asarray(addresses, dtype=np.uint64)
    n_references = len(addresses)
    cut_position = int(warmup_fraction * n_references)
    # Collapse consecutive same-page references first: they are
    # guaranteed hits and dominate the stream.  A run is counted when
    # it starts at or after the cut, so the counted misses are the
    # suffix of the run mask after the runs that start before it.
    if n_references:
        pages = addresses >> np.uint64(ilog2(page_size))
        boundary = np.empty(n_references, dtype=bool)
        boundary[0] = True
        np.not_equal(pages[1:], pages[:-1], out=boundary[1:])
        unique_stream = pages[boundary]
        first_counted = int(np.count_nonzero(boundary[:cut_position]))
        # The full-width page and boundary columns are dead before the
        # mask kernel allocates its own.
        del pages, boundary
    else:
        unique_stream = np.zeros(0, dtype=np.uint64)
        first_counted = 0
    mask = miss_mask_fully_associative(unique_stream, n_entries)
    scale = 1.0 - warmup_fraction
    return TlbResult(
        references=int(round(n_references * scale)),
        misses=int(np.count_nonzero(mask[first_counted:])),
        instructions=int(round(n_instructions * scale)),
    )
