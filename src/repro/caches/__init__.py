"""Cache simulators.

Two complementary simulator families, mirroring the paper's dual
methodology:

* Sequential object simulators (:class:`SetAssociativeCache`,
  :class:`SubblockCache`) that model one
  reference at a time and expose full internal state — used by the
  fetch-engine timing models and the trap-driven (Tapeworm-style)
  harness.
* Vectorized miss counters (:mod:`repro.caches.vectorized`) that process
  whole numpy address columns at once — used by the large design-space
  sweeps (Figures 1, 3, 4) where only miss counts matter.

Miss classification (:mod:`repro.caches.classify`) implements the
three-Cs breakdown exactly as the paper's Figure 1 caption describes.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "CacheGeometry": ".base",
    "CacheStats": ".base",
    "ReplacementPolicy": ".base",
    "SetAssociativeCache": ".setassoc",
    "SubblockCache": ".subblock",
    "miss_mask_direct_mapped": ".vectorized",
    "miss_mask_set_associative": ".vectorized",
    "miss_mask_fully_associative": ".vectorized",
    "compulsory_mask": ".vectorized",
    "count_misses": ".vectorized",
    "ThreeCs": ".classify",
    "classify_misses": ".classify",
    "classify_misses_exact": ".classify",
    "InclusionReport": ".inclusion",
    "check_inclusion": ".inclusion",
    "inclusion_guaranteed": ".inclusion",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
