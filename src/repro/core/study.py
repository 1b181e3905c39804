"""High-level evaluation entry point.

:func:`evaluate` runs one workload against one memory-system
configuration and returns the instruction-fetch CPI breakdown, following
the paper's methodology exactly:

* the L1 contribution comes from a fetch-engine simulation of the L1
  backed by a perfect next level (choose the mechanism with
  ``mechanism=``);
* the L2 contribution comes from simulating the L2 against the full
  reference stream, backed by main memory ("L2 contribution is
  determined by simulating an L2 cache backed by main memory");
* ``CPIinstr`` is their sum.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.config import MemorySystemConfig
from repro.core.metrics import DEFAULT_WARMUP_FRACTION, measure_mpi
from repro.fetch import dispatch, vectorized
from repro.fetch.bypass import PrefetchBypassEngine
from repro.fetch.dispatch import ENGINES, MECHANISMS
from repro.fetch.engine import DemandFetchEngine, FetchEngine, FetchResult
from repro.fetch.prefetch import PrefetchOnMissEngine
from repro.fetch.streambuf import StreamBufferEngine
from repro.obs import tracing
from repro.runner import timing
from repro.trace.rle import LineRuns
from repro.trace.trace import Trace
from repro.workloads.registry import DEFAULT_TRACE_INSTRUCTIONS, get_line_runs


@dataclass(frozen=True)
class StudyResult:
    """Instruction-fetch performance of one (workload, config) pair.

    Attributes:
        workload: workload label.
        config: the evaluated configuration.
        mechanism: the L1 refill mechanism simulated.
        l1: fetch-engine result for the L1 (stalls, misses).
        cpi_l1: L1 contribution to CPIinstr.
        cpi_l2: L2 contribution to CPIinstr (0 without an L2).
        l2_mpi: L2 misses per instruction (0 without an L2).
    """

    workload: str
    config: MemorySystemConfig
    mechanism: str
    l1: FetchResult
    cpi_l1: float
    cpi_l2: float
    l2_mpi: float

    @property
    def cpi_instr(self) -> float:
        """Total instruction-fetch CPI (L1 + L2 contributions)."""
        return self.cpi_l1 + self.cpi_l2


def make_engine(
    config: MemorySystemConfig,
    mechanism: str = "demand",
    **options,
) -> FetchEngine:
    """Construct the fetch engine for a configuration and mechanism.

    ``options`` are mechanism-specific: ``n_prefetch`` for the prefetch
    mechanisms, ``n_lines``/``refill_on_use``/``move_penalty`` for the
    stream buffer.
    """
    timing = config.effective_l1_interface
    if mechanism == "demand":
        return DemandFetchEngine(config.l1, timing, **options)
    if mechanism == "prefetch":
        return PrefetchOnMissEngine(config.l1, timing, **options)
    if mechanism == "prefetch+bypass":
        return PrefetchBypassEngine(config.l1, timing, **options)
    if mechanism == "stream-buffer":
        return StreamBufferEngine(config.l1, timing, **options)
    raise ValueError(
        f"unknown mechanism {mechanism!r}; expected one of {MECHANISMS}"
    )


def fetch_result(
    runs,
    config: MemorySystemConfig,
    mechanism: str = "demand",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    engine: str = "auto",
    **options,
) -> FetchResult:
    """L1 fetch simulation of one mechanism, on the selected engine.

    The single dispatch point for the ``engine`` knob: ``"auto"`` takes
    the vectorized kernels when they cover the combination and falls
    back to the reference engines otherwise.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    interface = config.effective_l1_interface
    use_vectorized = engine != "reference" and vectorized.supports(
        config.l1, interface, mechanism, options
    )
    if engine == "vectorized" and not use_vectorized:
        # Re-raise through run_vectorized for its precise message,
        # after confirming the mechanism name itself is valid.
        if mechanism not in MECHANISMS:
            raise ValueError(
                f"unknown mechanism {mechanism!r}; "
                f"expected one of {MECHANISMS}"
            )
        return vectorized.run_vectorized(
            runs, config.l1, interface, mechanism, warmup_fraction, **options
        )
    with timing.phase(timing.PHASE_SIMULATE):
        if use_vectorized:
            dispatch.record(mechanism, dispatch.ENGINE_VECTORIZED)
            return vectorized.run_vectorized(
                runs,
                config.l1,
                interface,
                mechanism,
                warmup_fraction,
                **options,
            )
        fetch_engine = make_engine(config, mechanism, **options)
        dispatch.record(mechanism, dispatch.ENGINE_REFERENCE)
        return fetch_engine.run(runs, warmup_fraction)


def evaluate_streams(
    label: str,
    line_runs: Callable[[int], LineRuns],
    config: MemorySystemConfig,
    mechanism: str = "demand",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    engine: str = "auto",
    **options,
) -> StudyResult:
    """Evaluate a configuration against one workload's line-run streams.

    ``line_runs(line_size)`` is the workload's RLE instruction stream
    at one line size; ``label`` names the workload.  The L1 leg reads
    the stream at the L1 line size and the L2 leg at
    ``min(l2.line_size, l1.line_size)``: nothing else of the trace is
    read.  The one evaluator behind :func:`evaluate_trace`,
    :func:`evaluate` and the fetch cells of
    :func:`~repro.experiments.common.trace_fetch_cpi`.
    """
    with tracing.span(
        "evaluate",
        workload=label,
        config=config.name,
        mechanism=mechanism,
        engine=engine,
    ):
        l1_runs = line_runs(config.l1.line_size)
        l1_result = fetch_result(
            l1_runs, config, mechanism, warmup_fraction, engine, **options
        )

        cpi_l2 = 0.0
        l2_mpi = 0.0
        if config.l2 is not None:
            l2_runs = line_runs(min(config.l2.line_size, config.l1.line_size))
            l2_measure = measure_mpi(l2_runs, config.l2, warmup_fraction)
            l2_mpi = l2_measure.mpi
            cpi_l2 = l2_measure.cpi_contribution(config.l2_miss_penalty)

    return StudyResult(
        workload=label,
        config=config,
        mechanism=mechanism,
        l1=l1_result,
        cpi_l1=l1_result.cpi_instr,
        cpi_l2=cpi_l2,
        l2_mpi=l2_mpi,
    )


def evaluate_trace(
    trace: Trace,
    config: MemorySystemConfig,
    mechanism: str = "demand",
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
    engine: str = "auto",
    **options,
) -> StudyResult:
    """Evaluate a configuration against an already-synthesized trace."""
    return evaluate_streams(
        trace.label,
        trace.ifetch_line_runs,
        config,
        mechanism,
        warmup_fraction,
        engine,
        **options,
    )


def evaluate(
    workload: str,
    os_name: str,
    config: MemorySystemConfig,
    mechanism: str = "demand",
    n_instructions: int = DEFAULT_TRACE_INSTRUCTIONS,
    seed: int = 0,
    engine: str = "auto",
    **options,
) -> StudyResult:
    """Evaluate the workload's line-run streams, read through the
    registry (which synthesizes the trace only when no stream is
    cached or persisted)."""
    return evaluate_streams(
        f"{workload}@{os_name}",  # the trace's label
        functools.partial(
            get_line_runs, workload, os_name, n_instructions, seed
        ),
        config,
        mechanism,
        engine=engine,
        **options,
    )
