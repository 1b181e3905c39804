"""Multi-level inclusion checking (Baer & Wang, cited in Section 2).

The paper's related work cites [Baer88], "On the inclusion properties
for multi-level cache hierarchies": an L2 is *inclusive* of an L1 when
every line resident in the L1 is also resident in the L2.  Inclusion is
what lets the paper's methodology measure L1 and L2 contributions
independently (Section 3): with inclusion, the L2's miss count is the
same whether it observes the full reference stream or only the L1 miss
stream.

:func:`check_inclusion` co-simulates both levels on one stream and
counts inclusion violations; Baer & Wang's classic sufficient condition
(same line size, L2 sets >= L1 sets, L2 ways >= L1 ways, both LRU,
no prefetching) is exposed as :func:`inclusion_guaranteed`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caches.base import CacheGeometry
from repro.caches.setassoc import SetAssociativeCache


@dataclass(frozen=True)
class InclusionReport:
    """Result of an inclusion co-simulation.

    Attributes:
        references: stream length.
        violations: references after which some L1-resident line was
            absent from the L2.
        max_orphans: largest number of simultaneously-orphaned lines.
    """

    references: int
    violations: int
    max_orphans: int

    @property
    def inclusive(self) -> bool:
        """Whether inclusion held throughout."""
        return self.violations == 0


def inclusion_guaranteed(l1: CacheGeometry, l2: CacheGeometry) -> bool:
    """Baer & Wang's sufficient condition for LRU inclusion.

    Same line size, L2 at least as many sets, and L2 associativity at
    least the L1's.  (Necessary-and-sufficient conditions are subtler;
    this is the classic designer's rule.)
    """
    return (
        l2.line_size == l1.line_size
        and l2.n_sets >= l1.n_sets
        and l2.ways >= l1.ways
    )


def check_inclusion(
    lines: np.ndarray,
    l1: CacheGeometry,
    l2: CacheGeometry,
    check_every: int = 64,
) -> InclusionReport:
    """Co-simulate L1 and L2 on a line stream; count inclusion breaks.

    Both caches see every reference (the paper's methodology).  The
    L1's resident set is audited against the L2 every ``check_every``
    references (auditing every reference is quadratic and changes
    nothing for LRU caches between accesses).

    ``lines`` must be at the *finer* of the two line granularities;
    only equal line sizes are supported (the interesting regime — with
    unequal line sizes inclusion is line-containment, a different
    relation).
    """
    if l1.line_size != l2.line_size:
        raise ValueError(
            "inclusion checking requires equal line sizes "
            f"({l1.line_size} vs {l2.line_size})"
        )
    if check_every < 1:
        raise ValueError(f"check_every must be >= 1, got {check_every}")
    l1_sim = SetAssociativeCache(l1)
    l2_sim = SetAssociativeCache(l2)
    violations = 0
    max_orphans = 0
    stream = np.asarray(lines).tolist()
    for i, line in enumerate(stream):
        l1_sim.access_line(line)
        l2_sim.access_line(line)
        if (i + 1) % check_every == 0:
            orphans = sum(
                1
                for resident in l1_sim.resident_lines()
                if not l2_sim.contains_line(resident)
            )
            if orphans:
                violations += 1
                max_orphans = max(max_orphans, orphans)
    return InclusionReport(
        references=len(stream), violations=violations, max_orphans=max_orphans
    )
