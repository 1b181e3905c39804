"""The DECstation 3100 machine model and CPI measurement.

Reproduces the measurement setup of the paper's Tables 1 and 3:

    "a hardware logic analyzer connected to the CPU pins of a
    DECstation 3100 running Ultrix.  The DECstation 3100 uses a
    16.6-MHz R2000 processor and implements split, direct-mapped,
    64-KB, off-chip I- and D-caches with 4-byte lines.  The miss
    penalty for both the I- and D-caches is 6 cycles.  The R2000 TLB is
    fully-associative and holds 64 mappings of 4-KB pages...  the base
    CPI is 1.0."

The write component reflects the R2000's write-through caches: every
store enters a small write buffer that drains one entry per memory
write time; the processor stalls when the buffer is full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.caches.base import CacheGeometry
from repro.core.cpi import CpiBreakdown
from repro.core.metrics import DEFAULT_WARMUP_FRACTION, measure_mpi
from repro.tlb.tlb import (
    DEFAULT_REFILL_CYCLES,
    R2000_PAGE_SIZE,
    R2000_TLB_ENTRIES,
    simulate_tlb,
)
from repro.trace.record import RefKind
from repro.trace.rle import LineRuns, to_line_runs
from repro.trace.trace import Trace


@dataclass(frozen=True)
class MachineSpec:
    """The measured machine's memory-system parameters."""

    name: str
    icache: CacheGeometry
    dcache: CacheGeometry
    miss_penalty: int
    write_buffer_entries: int
    write_cycles: int
    tlb_entries: int
    page_size: int
    tlb_refill_cycles: int


#: The paper's measurement platform.
DECSTATION_3100 = MachineSpec(
    name="DECstation 3100 (16.6 MHz R2000, Ultrix)",
    icache=CacheGeometry(size_bytes=65536, line_size=4, associativity=1),
    dcache=CacheGeometry(size_bytes=65536, line_size=4, associativity=1),
    miss_penalty=6,
    write_buffer_entries=4,
    write_cycles=6,
    tlb_entries=R2000_TLB_ENTRIES,
    page_size=R2000_PAGE_SIZE,
    tlb_refill_cycles=DEFAULT_REFILL_CYCLES,
)


class HardwareMonitor:
    """Measures a trace's CPI breakdown on a machine model.

    Components are measured independently (as the paper's model does:
    each stall source contributes ``rate x penalty`` to CPI).
    """

    def __init__(self, machine: MachineSpec = DECSTATION_3100):
        self.machine = machine

    def measure(
        self,
        trace: Trace,
        ifetch_runs: LineRuns,
        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    ) -> CpiBreakdown:
        """Measure all memory-CPI components of one trace.

        ``ifetch_runs`` is the trace's instruction-fetch stream at the
        I-cache's line size, as the registry's
        :func:`~repro.workloads.registry.get_line_runs` serves it: a
        plan primes, shares and persists it like any fetch stream, so
        the monitor encodes only the trace's load stream.  The trace's
        columns drive the D-cache, write-buffer and TLB components.
        """
        machine = self.machine
        instructions = trace.instruction_count
        if instructions == 0:
            return CpiBreakdown()

        # I-cache component.
        icache = measure_mpi(ifetch_runs, machine.icache, warmup_fraction)
        cpi_icache = icache.cpi_contribution(machine.miss_penalty)

        # D-cache component, renormalized from loads to instructions.
        measured_instr = int(round(instructions * (1.0 - warmup_fraction)))
        load_mpi = self._load_misses(trace, warmup_fraction) / max(
            measured_instr, 1
        )
        cpi_dcache = load_mpi * machine.miss_penalty

        # Write-buffer component.
        cpi_write = self._write_buffer_stalls(trace, warmup_fraction)

        # TLB component (instruction and data references both translate).
        tlb = simulate_tlb(
            trace.addresses,
            instructions,
            machine.tlb_entries,
            machine.page_size,
            warmup_fraction,
        )
        cpi_tlb = tlb.cpi_contribution(machine.tlb_refill_cycles)

        return CpiBreakdown(
            instr_l1=cpi_icache,
            data=cpi_dcache,
            write=cpi_write,
            tlb=cpi_tlb,
        )

    def _load_misses(self, trace: Trace, warmup_fraction: float) -> int:
        """Post-warm-up D-cache misses of the trace's loads.

        Loads allocate and can miss; stores are write-through (the
        write component) and do not allocate.  The load stream and its
        encoding are dead once this returns.
        """
        load_addrs = trace.addresses[trace.kinds == RefKind.LOAD]
        if not len(load_addrs):
            return 0
        load_runs = to_line_runs(load_addrs, self.machine.dcache.line_size)
        del load_addrs
        dcache = measure_mpi(load_runs, self.machine.dcache, warmup_fraction)
        return dcache.misses

    def _write_buffer_stalls(
        self, trace: Trace, warmup_fraction: float
    ) -> float:
        """Simulate the write buffer; return stall CPI.

        Time advances one cycle per instruction.  Stores enter a
        ``write_buffer_entries``-deep queue that drains serially into
        memory at one write per ``write_cycles`` (one memory port); a
        store issued into a full queue stalls the processor until the
        oldest pending write completes.
        """
        from collections import deque

        machine = self.machine
        kinds = trace.kinds
        ifetch_positions = np.flatnonzero(kinds == RefKind.IFETCH)
        store_positions = np.flatnonzero(kinds == RefKind.STORE)
        if len(store_positions) == 0:
            return 0.0
        # Instruction index of each store = number of fetches before it.
        store_instr = np.searchsorted(ifetch_positions, store_positions)
        instructions = len(ifetch_positions)
        cut = int(warmup_fraction * instructions)

        drain = machine.write_cycles
        depth = machine.write_buffer_entries
        pending: deque[int] = deque()  # completion times, ascending
        port_free = 0
        stall_total = 0
        stall_measured = 0
        for instr_index in store_instr.tolist():
            now = instr_index + stall_total
            while pending and pending[0] <= now:
                pending.popleft()
            stall = 0
            if len(pending) >= depth:
                stall = pending[0] - now
                now = pending.popleft()
            completion = max(now, port_free) + drain
            port_free = completion
            pending.append(completion)
            stall_total += stall
            if instr_index >= cut:
                stall_measured += stall
        measured_instr = max(instructions - cut, 1)
        return stall_measured / measured_instr
