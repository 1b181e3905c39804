"""One module per table and figure of the paper's evaluation.

Every module exposes:

* ``plan_cells(settings, **axes)`` (plus ``merge`` when it has more
  than one cell) — what the experiment computes, as sweep-plan cells
  (see :mod:`repro.plan.compile`);
* ``run(settings, **axes) -> <Result dataclass>`` — computes the
  experiment through its plan; ``settings`` carries the
  ``n_instructions``/``seed`` knobs so tests can run scaled-down
  versions; and
* ``Result.render() -> str`` — a text table/series mirroring the
  paper's presentation, including the paper's own numbers alongside the
  reproduction for direct comparison.

The mapping to the paper:

========  ==========================================================
module    reproduces
========  ==========================================================
table1    Table 1  — SPEC memory-CPI breakdown on the DECstation 3100
table2    Table 2  — the IBS workload inventory
table3    Table 3  — IBS vs SPEC memory-CPI breakdown
table4    Table 4  — per-workload MPI and component mix (8 KB I-cache)
table5    Table 5  — baseline CPIinstr (economy / high-performance)
table6    Table 6  — sequential prefetch-on-miss
table7    Table 7  — prefetching + bypassing
table8    Table 8  — pipelined memory system with stream buffers
figure1   Figure 1 — capacity/conflict misses vs cache size
figure2   Figure 2 — workload component structure (SPEC vs IBS)
figure3   Figure 3 — total CPIinstr vs L2 line size and cache size
figure4   Figure 4 — CPIinstr vs L2 associativity
figure5   Figure 5 — CPIinstr variability vs size and associativity
figure6   Figure 6 — bandwidth and L1 CPIinstr vs line size
figure7   Figure 7 — cumulative summary of all optimizations
========  ==========================================================

Extension studies (``EXTENSION_EXPERIMENTS``) go beyond the paper:

===============  ====================================================
ext_prefetch     future work: tagged / Markov / hybrid prefetching
ext_branch       future work: branch prediction x fetching (BTB)
ext_conflict     victim cache vs CML vs associativity
ext_context      multiprogramming / context-switch quanta [Mogul91]
ext_placement    profile-guided code placement [McFarling89]
ext_subblock     the Section 5.2 sub-block footnote
ext_components   per-component miss attribution
ext_multiissue   the conclusion's dual/quad-issue projection
ext_methodology  additive vs integrated two-level accounting
ext_area         die-area allocation via the Mulder model [Nagle94]
ext_tlb          software-TLB cost taxonomy [Nagle93]
ext_sampling     time-sampled simulation accuracy/cost frontier
ext_sensitivity  workload-model knob sensitivity (robustness)
ext_bloat        the title's trend, forward-projected
===============  ====================================================
"""

from repro._util.lazy import lazy_exports

#: The paper's tables and figures, in the paper's order.
PAPER_EXPERIMENTS = (
    "table1", "table2", "table3", "table4",
    "table5", "table6", "table7", "table8",
    "figure1", "figure2", "figure3", "figure4",
    "figure5", "figure6", "figure7",
)

#: Studies beyond the paper: its stated future work (non-sequential
#: prefetching), the software methods it cites but does not evaluate
#: (placement, page policies), its Section 5.2 sub-block footnote, and
#: the multi-issue projection behind its conclusion.
EXTENSION_STUDIES = (
    "ext_prefetch", "ext_conflict", "ext_context", "ext_components",
    "ext_sensitivity", "ext_methodology", "ext_branch", "ext_area",
    "ext_tlb", "ext_sampling", "ext_bloat", "ext_placement",
    "ext_subblock", "ext_multiissue",
)

_EXPORTS = {
    "ALL_EXPERIMENTS": ".catalog",
    "EXTENSION_EXPERIMENTS": ".catalog",
    **dict.fromkeys(PAPER_EXPERIMENTS + EXTENSION_STUDIES),
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
