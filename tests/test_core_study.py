"""Unit and integration tests for the evaluate() entry point."""

import pytest

from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.core.study import (
    ENGINES,
    evaluate,
    evaluate_trace,
    fetch_result,
    make_engine,
)
from repro.fetch import dispatch
from repro.fetch.bypass import PrefetchBypassEngine
from repro.fetch.engine import DemandFetchEngine
from repro.fetch.prefetch import PrefetchOnMissEngine
from repro.fetch.streambuf import StreamBufferEngine
from repro.fetch.timing import MemoryTiming


class TestMakeEngine:
    def test_mechanism_dispatch(self):
        config = MemorySystemConfig.economy()
        assert isinstance(make_engine(config, "demand"), DemandFetchEngine)
        assert isinstance(
            make_engine(config, "prefetch", n_prefetch=1), PrefetchOnMissEngine
        )
        assert isinstance(
            make_engine(config, "prefetch+bypass"), PrefetchBypassEngine
        )

    def test_stream_buffer_needs_matching_line(self):
        config = MemorySystemConfig(
            "p",
            l1=CacheGeometry(8192, 16, 1),
            memory=MemoryTiming(6, 16),
        )
        assert isinstance(
            make_engine(config, "stream-buffer", n_lines=4), StreamBufferEngine
        )

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            make_engine(MemorySystemConfig.economy(), "telepathy")


#: Mechanism names that never existed, then retired ones.
UNKNOWN_MECHANISMS = ("telepathy", "tagged", "victim", "markov")


class TestUnknownMechanism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_refused_on_every_engine(self, engine, small_trace):
        config = MemorySystemConfig.economy()
        runs = small_trace.ifetch_line_runs(config.l1.line_size)
        dispatch.reset_totals()
        for name in UNKNOWN_MECHANISMS:
            with pytest.raises(ValueError, match="unknown mechanism"):
                fetch_result(runs, config, name, engine=engine)
            with pytest.raises(ValueError, match="unknown mechanism"):
                evaluate(
                    "gcc", "mach3", config, name,
                    n_instructions=20_000, engine=engine,
                )
        # A refused mechanism is never counted as dispatched.
        assert dispatch.totals() == {}


class TestEvaluateTrace:
    def test_l1_only(self, medium_trace):
        result = evaluate_trace(medium_trace, MemorySystemConfig.economy())
        assert result.cpi_l2 == 0.0
        assert result.cpi_instr == result.cpi_l1 > 0

    def test_l2_adds_contribution(self, medium_trace):
        config = MemorySystemConfig.economy().with_l2(
            CacheGeometry(65536, 64, 8)
        )
        result = evaluate_trace(medium_trace, config)
        assert result.cpi_l2 > 0
        assert result.l2_mpi > 0
        # The on-chip interface makes L1 misses far cheaper than the
        # baseline's memory round trip.
        baseline = evaluate_trace(medium_trace, MemorySystemConfig.economy())
        assert result.cpi_l1 < baseline.cpi_l1

    def test_workload_label_propagates(self, medium_trace):
        result = evaluate_trace(medium_trace, MemorySystemConfig.economy())
        assert result.workload == medium_trace.label


class TestEvaluate:
    def test_by_name(self):
        result = evaluate(
            "gcc", "mach3", MemorySystemConfig.economy(),
            n_instructions=40_000, seed=3,
        )
        assert result.cpi_instr > 0
        assert "gcc" in result.workload

    def test_deterministic(self):
        a = evaluate(
            "nroff", "mach3", MemorySystemConfig.high_performance(),
            n_instructions=40_000, seed=5,
        )
        b = evaluate(
            "nroff", "mach3", MemorySystemConfig.high_performance(),
            n_instructions=40_000, seed=5,
        )
        assert a.cpi_instr == b.cpi_instr

    def test_mechanism_options_pass_through(self):
        demand = evaluate(
            "verilog", "mach3", MemorySystemConfig.high_performance(),
            n_instructions=40_000,
        )
        prefetch = evaluate(
            "verilog", "mach3", MemorySystemConfig.high_performance(),
            mechanism="prefetch", n_prefetch=1, n_instructions=40_000,
        )
        assert prefetch.cpi_instr != demand.cpi_instr
