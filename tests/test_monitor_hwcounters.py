"""Unit tests for the DECstation 3100 hardware-monitor model."""

import numpy as np
import pytest

from repro.monitor.hwcounters import DECSTATION_3100, HardwareMonitor
from repro.trace.record import Component, RefKind
from repro.trace.rle import to_line_runs
from repro.trace.trace import Trace


def _trace(addresses, kinds):
    n = len(addresses)
    return Trace(
        np.asarray(addresses, dtype=np.uint64),
        np.asarray(kinds, dtype=np.uint8),
        np.zeros(n, dtype=np.uint8),
    )


def _measure(trace, monitor=None):
    """The monitor's breakdown of ``trace``, given its fetch stream at
    the I-cache's line size (as the registry serves it to a plan)."""
    monitor = monitor or HardwareMonitor()
    runs = to_line_runs(
        trace.ifetch_addresses(), monitor.machine.icache.line_size
    )
    return monitor.measure(trace, runs)


class TestMachineSpec:
    def test_paper_parameters(self):
        spec = DECSTATION_3100
        assert spec.icache.size_bytes == 64 * 1024
        assert spec.icache.line_size == 4
        assert spec.miss_penalty == 6
        assert spec.tlb_entries == 64
        assert spec.page_size == 4096


class TestHardwareMonitor:
    def test_empty_trace(self):
        breakdown = _measure(Trace.empty())
        assert breakdown.memory_cpi == 0.0

    def test_icache_component(self):
        # Loop over a tiny set of instructions: no post-warmup I-misses.
        addresses = [0x1000, 0x1004] * 500
        kinds = [RefKind.IFETCH] * 1000
        breakdown = _measure(_trace(addresses, kinds))
        assert breakdown.instr_l1 == 0.0

    def test_write_buffer_saturation(self):
        # A store every instruction with 6-cycle drain and 4 slots must
        # stall heavily: steady state ~5 stall cycles per store.
        n = 2000
        addresses = []
        kinds = []
        for i in range(n):
            addresses += [0x1000, 0x8000 + (i % 16) * 4]
            kinds += [RefKind.IFETCH, RefKind.STORE]
        breakdown = _measure(_trace(addresses, kinds))
        assert breakdown.write == pytest.approx(5.0, rel=0.1)

    def test_sparse_stores_no_stalls(self):
        # One store every 10 instructions drains without backpressure.
        addresses = []
        kinds = []
        for i in range(300):
            addresses += [0x1000 + (i % 4) * 4] * 9 + [0x8000]
            kinds += [RefKind.IFETCH] * 9 + [RefKind.STORE]
        breakdown = _measure(_trace(addresses, kinds))
        assert breakdown.write == 0.0

    def test_ibs_worse_than_spec(self, medium_trace, spec_trace):
        monitor = HardwareMonitor()
        ibs = _measure(medium_trace, monitor)
        spec = _measure(spec_trace, monitor)
        assert ibs.instr_l1 > spec.instr_l1

    def test_components_all_populated_for_real_trace(self, medium_trace):
        breakdown = _measure(medium_trace)
        assert breakdown.instr_l1 > 0
        assert breakdown.data > 0
        assert breakdown.tlb > 0
        assert breakdown.memory_cpi == pytest.approx(
            breakdown.instr_l1 + breakdown.data + breakdown.write
            + breakdown.tlb
        )
