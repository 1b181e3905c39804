"""Instruction-fetch timing models and mechanisms.

This subpackage turns miss behaviour into cycles: the latency/bandwidth
interface model of the paper's Table 5, and the L1-L2 interface
mechanisms of Section 5.2 — demand fetch, sequential and tagged
prefetch-on-miss, prefetch with bypass buffers, a pipelined memory
system with stream buffers, victim caches, and markov prefetching.
All mechanisms are driven by run-length-encoded instruction streams and
account stall cycles to produce CPIinstr; every one has both a
reference per-run engine and a vectorized closed-form kernel
(:mod:`repro.fetch.vectorized`) pinned bit-identical by the
differential tests.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "MemoryTiming": ".timing",
    "ECONOMY_MEMORY": ".timing",
    "HIGH_PERF_MEMORY": ".timing",
    "L1_L2_INTERFACE": ".timing",
    "FetchResult": ".engine",
    "DemandFetchEngine": ".engine",
    "PrefetchOnMissEngine": ".prefetch",
    "TaggedPrefetchEngine": ".prefetch",
    "PrefetchBypassEngine": ".bypass",
    "StreamBufferEngine": ".streambuf",
    "VictimCacheEngine": ".victim",
    "MarkovPrefetchEngine": ".markov",
    "TwoLevelDemandEngine": ".twolevel",
    "TwoLevelResult": ".twolevel",
    "VECTORIZED_MECHANISMS": ".vectorized",
    "run_vectorized": ".vectorized",
    "supports": ".vectorized",
    "unsupported_reason": ".vectorized",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
