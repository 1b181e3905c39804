"""Victim caching (Jouppi 1990).

The same paper the stream buffer comes from proposes a small
fully-associative *victim cache* holding the last few lines evicted from
a direct-mapped cache.  A miss that hits in the victim cache swaps the
line back for a one-cycle-class penalty instead of a full refill —
removing exactly the conflict misses that Figure 1 shows are a
significant share of IBS's 8 KB direct-mapped miss rate.

The paper evaluates associativity and page-allocation remedies for
conflicts; the victim cache is the third classic remedy, available as
the ``victim`` fetch mechanism of :func:`repro.core.evaluate`.
"""

from __future__ import annotations

import numpy as np

from repro._util.lru import LruSet
from repro.caches.base import CacheGeometry
from repro.fetch.engine import FetchEngine
from repro.fetch.timing import MemoryTiming


class VictimCacheEngine(FetchEngine):
    """Direct-mapped L1 with a small fully-associative victim cache."""

    def __init__(
        self,
        geometry: CacheGeometry,
        timing: MemoryTiming,
        n_victims: int = 4,
        swap_penalty: int = 1,
    ):
        super().__init__(geometry, timing)
        if geometry.associativity != 1:
            raise ValueError(
                "a victim cache assists a direct-mapped primary; got "
                f"{geometry.associativity}-way"
            )
        if n_victims < 1:
            raise ValueError(f"n_victims must be >= 1, got {n_victims}")
        if swap_penalty < 0:
            raise ValueError(f"swap_penalty must be >= 0, got {swap_penalty}")
        self.n_victims = n_victims
        self.swap_penalty = swap_penalty
        self._victims = LruSet(n_victims)
        self._penalty = timing.fill_penalty(geometry.line_size)
        self.victim_hits = 0

    def _access(self, line: int, first_offset: int, now: int) -> tuple[int, bool]:
        cache = self.cache
        if cache.contains_line(line):
            return 0, False
        if self._victims.discard(line):
            # Swap: the buffered line returns to the primary; whatever
            # it displaces becomes the newest victim.
            self.victim_hits += 1
            displaced = cache.install_line(line)
            if displaced is not None:
                self._victims.touch(displaced)
            return self.swap_penalty, False
        # Full miss: refill from the next level; the displaced primary
        # line enters the victim cache.
        displaced = cache.install_line(line)
        if displaced is not None:
            self._victims.touch(displaced)
        return self._penalty, True


def victim_classify(
    lines: np.ndarray, n_sets: int, n_victims: int
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every reference of a run stream against this mechanism.

    The state machine above never reads the clock — arrival times only
    ever become stall cycles — so one replay over the line stream fully
    determines which runs hit the primary, which swap from the victim
    cache, and which go to the next level.  Returns ``(victim_hits,
    misses)`` boolean masks; everything else is a primary hit.  The
    vectorized kernel memoizes this per (stream, n_sets, n_victims) and
    derives every timing point's stalls closed-form from the two counts.
    """
    n = len(lines)
    victim_hits = np.zeros(n, dtype=bool)
    misses = np.zeros(n, dtype=bool)
    set_mask = n_sets - 1
    resident: dict[int, int] = {}  # set index -> resident line
    victims: dict[int, None] = {}  # insertion-ordered, oldest first
    for i, line in enumerate(lines.tolist()):
        set_index = line & set_mask
        displaced = resident.get(set_index)
        if displaced == line:
            continue
        resident[set_index] = line
        if line in victims:  # LruSet.discard
            del victims[line]
            victim_hits[i] = True
        else:
            misses[i] = True
        if displaced is not None:  # LruSet.touch on the displaced line
            if displaced in victims:
                del victims[displaced]
            elif len(victims) >= n_victims:
                del victims[next(iter(victims))]
            victims[displaced] = None
    victim_hits.setflags(write=False)
    misses.setflags(write=False)
    return victim_hits, misses
