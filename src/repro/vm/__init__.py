"""Virtual-memory substrate: page mapping policies and address-space layout.

The OS's virtual-to-physical page placement determines which sets of a
physically-indexed cache each page occupies.  The paper contrasts the
effectively-random placement of Ultrix/Mach (which causes the run-to-run
variability of Figure 5) with careful page-allocation algorithms such as
page coloring and bin hopping [Kessler92, Bershad94]; all three policies
are implemented here.
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "PageMapper": ".pagemap",
    "IdentityPageMapper": ".pagemap",
    "RandomPageMapper": ".pagemap",
    "PageColoringMapper": ".pagemap",
    "BinHoppingMapper": ".pagemap",
    "AddressSpaceLayout": ".addrspace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
