"""The :class:`Trace` container.

A trace is a columnar, numpy-backed sequence of memory references.  The
columnar layout keeps multi-million-reference traces compact (11 bytes
per reference) and lets the vectorized cache simulators operate on whole
columns without per-record Python overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.trace.record import RefKind, Component


@dataclass(frozen=True)
class Trace:
    """An immutable columnar address trace.

    Attributes:
        addresses: virtual byte addresses, ``uint64``.
        kinds: per-reference :class:`RefKind` values, ``uint8``.
        components: per-reference :class:`Component` values, ``uint8``.
        label: human-readable provenance (workload and OS names).
    """

    addresses: np.ndarray
    kinds: np.ndarray
    components: np.ndarray
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        addresses = np.ascontiguousarray(self.addresses, dtype=np.uint64)
        kinds = np.ascontiguousarray(self.kinds, dtype=np.uint8)
        components = np.ascontiguousarray(self.components, dtype=np.uint8)
        if not (len(addresses) == len(kinds) == len(components)):
            raise ValueError(
                "column length mismatch: "
                f"{len(addresses)} addresses, {len(kinds)} kinds, "
                f"{len(components)} components"
            )
        object.__setattr__(self, "addresses", addresses)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "components", components)
        self.addresses.setflags(write=False)
        self.kinds.setflags(write=False)
        self.components.setflags(write=False)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_columns(
        addresses: np.ndarray,
        kinds: np.ndarray,
        components: np.ndarray,
        label: str = "",
    ) -> "Trace":
        """Build a trace from raw columns (copied/cast as needed)."""
        return Trace(addresses, kinds, components, label)

    @staticmethod
    def empty(label: str = "") -> "Trace":
        """An empty trace."""
        zero = np.zeros(0, dtype=np.uint64)
        return Trace(zero, zero.astype(np.uint8), zero.astype(np.uint8), label)

    # -- basic protocol -----------------------------------------------

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, index: slice) -> "Trace":
        """Slice the trace (slices only; single records have no use here)."""
        if not isinstance(index, slice):
            raise TypeError("Trace supports slice indexing only")
        return Trace(
            self.addresses[index],
            self.kinds[index],
            self.components[index],
            self.label,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(label={self.label!r}, refs={len(self):,}, "
            f"instructions={self.instruction_count:,})"
        )

    # -- derived views -------------------------------------------------

    @property
    def instruction_count(self) -> int:
        """Number of instruction-fetch references (the CPI denominator)."""
        key = "instruction_count"
        if key not in self._cache:
            self._cache[key] = int(
                np.count_nonzero(self.kinds == RefKind.IFETCH)
            )
        return self._cache[key]

    def select(self, mask: np.ndarray) -> "Trace":
        """Return the sub-trace where ``mask`` is true (order preserved)."""
        return Trace(
            self.addresses[mask],
            self.kinds[mask],
            self.components[mask],
            self.label,
        )

    def ifetch_addresses(self) -> np.ndarray:
        """Addresses of instruction fetches only, in program order.

        A fresh selection on every call (one column scan), not memoized:
        the simulators read the stream through :meth:`ifetch_line_runs`,
        and a retained copy would be 8 bytes per instruction that
        nothing reads again once the line runs exist.
        """
        return self.addresses[self.kinds == RefKind.IFETCH]

    def ifetch_line_runs(self, line_size: int) -> "LineRuns":
        """The RLE instruction-fetch stream at ``line_size`` granularity.

        Memoized per line size: every sweep over this trace re-encodes
        the same stream, and the encoding (a sort-free but full-stream
        pass) dominates small-config simulation time.  The address
        selection it encodes from is transient.  See
        :func:`repro.trace.rle.to_line_runs`.
        """
        from repro.trace.rle import to_line_runs

        key = ("ifetch_line_runs", line_size)
        if key not in self._cache:
            self._cache[key] = to_line_runs(self.ifetch_addresses(), line_size)
        return self._cache[key]

    def line_addresses(self, line_size: int) -> np.ndarray:
        """All addresses truncated to ``line_size``-aligned line numbers."""
        if line_size <= 0 or line_size & (line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {line_size}")
        shift = line_size.bit_length() - 1
        return self.addresses >> np.uint64(shift)

    def component_counts(self) -> dict[Component, int]:
        """Reference counts per workload component."""
        counts = np.bincount(self.components, minlength=len(Component))
        return {
            comp: int(counts[comp])
            for comp in Component
            if counts[comp] > 0
        }

    def relabel(self, label: str) -> "Trace":
        """Return the same trace with a new provenance label."""
        return Trace(self.addresses, self.kinds, self.components, label)
