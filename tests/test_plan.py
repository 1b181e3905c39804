"""Tests for the sweep-plan IR: compile, dedup, priming, execution.

The load-bearing invariants:

* **Byte equality** — an experiment executed through its compiled
  plan renders the pinned golden bytes (``tests/test_golden.py``).
* **Dedup soundness** — identical cells across experiments run once,
  and results fan back to every requester unchanged.
* **Full priming** — the executor primes every declared shared input
  exactly once (``inputs_primed == inputs_total``), and annotations
  only warm memos, never change arithmetic.
* **Phase soundness** — the phases (trace groups) a plan runs in share
  no trace and cover every unique cell, so freeing a phase's traces
  after its last cell never makes a later cell recompute one.
"""

import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    figure2,
    figure3,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from repro.experiments.common import ExperimentSettings, fetch_point
from repro.plan import inputs as plan_inputs
from repro.plan.compile import compile_module, compile_report
from repro.plan.executor import (
    add_plan_observer,
    execute_cells,
    remove_plan_observer,
    run_experiment,
    run_report,
)
from repro.plan.ir import (
    MaskFamily,
    PlanCell,
    TraceKey,
    collect_inputs,
    dedup_cells,
    plan_phases,
)
from repro.obs import tracing
from repro.obs.export import timing_record
from repro.runner.pool import CellExecutionError
from repro.workloads.registry import (
    clear_trace_cache,
    set_trace_cache_backend,
    suite_workloads,
    trace_cache_stats,
)
from tests.test_golden import GOLDEN, digest

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=3)


@pytest.fixture(autouse=True)
def _no_disk_cache():
    from repro.workloads import registry

    saved = registry._disk_cache
    set_trace_cache_backend(None)
    yield
    registry._disk_cache = saved


def _double(x):
    return 2 * x


def _key(workload="groff", os_name="mach3"):
    return TraceKey(
        workload=workload,
        os_name=os_name,
        n_instructions=SETTINGS.n_instructions,
        seed=SETTINGS.seed,
    )


class TestCompile:
    def test_native_plan_module(self):
        compiled = compile_module(table5, SETTINGS)
        assert compiled.name == "table5"
        assert len(compiled.cells) == len(table5.plan_cells(SETTINGS))
        # Keys are namespaced by experiment name.
        assert all(cell.key[0] == "table5" for cell in compiled.cells)
        # Annotations survive the namespacing pass.
        assert any(cell.traces for cell in compiled.cells)
        assert any(cell.masks for cell in compiled.cells)

    def test_every_shipped_experiment_has_a_plan(self):
        from repro import experiments

        registry = {
            **experiments.ALL_EXPERIMENTS,
            **experiments.EXTENSION_EXPERIMENTS,
        }
        for name, module in registry.items():
            compiled = compile_module(module, SETTINGS, name=name)
            # Every key is the name plus the key plan_cells emitted.
            assert [cell.key for cell in compiled.cells] == [
                (name, *cell.key) for cell in module.plan_cells(SETTINGS)
            ], name

    def test_compile_report_concatenates(self):
        plan = compile_report(
            {"table5": table5, "table4": table4}, SETTINGS
        )
        assert plan.cells_total == len(table5.plan_cells(SETTINGS)) + len(
            table4.plan_cells(SETTINGS)
        )
        names = [experiment.name for experiment in plan.experiments]
        assert names == ["table5", "table4"]

    def test_equal_points_share_one_set_of_annotations(self):
        from repro.experiments.common import trace_fetch_cpi

        cells = [
            cell
            for cell in compile_report(dict(ALL_EXPERIMENTS), SETTINGS).cells
            if cell.fn is trace_fetch_cpi
        ]
        groups: dict = {}
        for cell in cells:
            groups.setdefault(cell.args[2], []).append(cell)
        # Each column's workloads sweep one point tuple, so the
        # annotations are derived once per column, not once per cell.
        assert len(groups) < len(cells) / 5
        for points, members in groups.items():
            streams = plan_inputs.point_streams(points)
            masks = plan_inputs.mask_families(points, SETTINGS.engine)
            assert members[0].streams == streams
            assert members[0].masks == masks
            assert all(cell.streams is members[0].streams for cell in members)
            assert all(cell.masks is members[0].masks for cell in members)


class TestDedup:
    def test_identical_cells_collapse(self):
        cells = [
            PlanCell(key=("a", i), fn=_double, args=(7,)) for i in range(3)
        ] + [PlanCell(key=("b",), fn=_double, args=(8,))]
        unique, index_map = dedup_cells(cells)
        assert len(unique) == 2
        assert index_map == [0, 0, 0, 1]

    def test_key_is_not_part_of_identity(self):
        a = PlanCell(key=("x",), fn=_double, args=(1,))
        b = PlanCell(key=("y",), fn=_double, args=(1,))
        assert a.identity() == b.identity()

    def test_unhashable_args_never_dedup(self):
        cells = [
            PlanCell(key=("a",), fn=_double, args=([1],)),
            PlanCell(key=("b",), fn=_double, args=([1],)),
        ]
        unique, index_map = dedup_cells(cells)
        assert len(unique) == 2
        assert index_map == [0, 1]

    def test_cross_experiment_dedup(self):
        # The same module compiled twice in one report plan: every cell
        # of the second copy is identical work.
        plan = compile_report({"a": table5, "b": table5}, SETTINGS)
        unique, index_map = dedup_cells(plan.cells)
        assert plan.cells_total == 2 * len(unique)
        half = len(unique)
        assert index_map[half:] == index_map[:half]


def _watch_fetch_encodes(monkeypatch) -> Counter:
    """Count encodings of trace fetch streams by (trace label, line size).

    A fetch stream is an array ``Trace.ifetch_addresses`` returned, so
    an encoding of another column (the machine model's loads) is not
    counted.  Every ``repro`` module's binding of ``to_line_runs`` is
    wrapped.
    """
    import sys

    from repro.trace import rle
    from repro.trace.trace import Trace

    encoded: Counter = Counter()
    selected: dict[int, tuple] = {}  # id -> (label, array held alive)
    select, encode = Trace.ifetch_addresses, rle.to_line_runs

    def selecting(trace):
        addresses = select(trace)
        selected[id(addresses)] = (trace.label, addresses)
        return addresses

    def encoding(addresses, line_size):
        label, fetched = selected.get(id(addresses), (None, None))
        if fetched is addresses:
            encoded[(label, line_size)] += 1
        return encode(addresses, line_size)

    monkeypatch.setattr(Trace, "ifetch_addresses", selecting)
    for name, module in list(sys.modules.items()):
        if (
            name.split(".")[0] == "repro"
            and vars(module).get("to_line_runs") is encode
        ):
            monkeypatch.setattr(module, "to_line_runs", encoding)
    return encoded


class TestMachineModelSharing:
    """Tables 1 and 3 build their cells from one machine-model function,
    so a report measures each workload on the DECstation model once.
    The cells declare the model's 4 B fetch stream, so a plan primes,
    shares and persists it like any other stream."""

    MODULES = {"table1": table1, "table3": table3}

    def _workloads(self):
        return {
            pair
            for module in self.MODULES.values()
            for suite in module.PAPER
            for pair in suite_workloads(suite)
        }

    def test_one_unique_cell_per_workload(self):
        plan = compile_report(self.MODULES, SETTINGS)
        unique, _ = dedup_cells(plan.cells)
        workloads = self._workloads()
        assert len(unique) == len(workloads)
        assert {cell.args[:2] for cell in unique} == workloads
        # The tables share workloads, so the plan has more cells than
        # it runs.
        assert plan.cells_total > len(unique)

    def test_report_measures_each_workload_once(self, monkeypatch):
        from repro.monitor.hwcounters import HardwareMonitor

        measured = []
        original = HardwareMonitor.measure

        def counting(self, trace, *args, **kwargs):
            measured.append(trace.label)
            return original(self, trace, *args, **kwargs)

        monkeypatch.setattr(HardwareMonitor, "measure", counting)
        planned, _ = run_report(self.MODULES, SETTINGS, jobs=1)
        assert len(measured) == len(set(measured))
        assert len(measured) == len(self._workloads())
        # Sharing the cells leaves both renderings byte-identical.
        assert [(name, digest(text)) for name, text in planned] == [
            (name, GOLDEN[name]) for name in self.MODULES
        ]

    def test_ibs_mach3_fetch_stream_is_encoded_once(self, monkeypatch):
        # Table 3's machine model and Figure 6's 4 B column read one
        # stream per IBS-Mach3 trace, encoded once for both.
        from repro.experiments import figure6

        encoded = _watch_fetch_encodes(monkeypatch)
        clear_trace_cache()
        run_report({"table3": table3, "figure6": figure6}, SETTINGS, jobs=1)
        clear_trace_cache()
        for name, os_name in suite_workloads("ibs-mach3"):
            assert encoded[(f"{name}@{os_name}", 4)] == 1, name
        assert {key: n for key, n in encoded.items() if n != 1} == {}

    def test_warm_report_reads_machine_streams_from_disk(
        self, monkeypatch, tmp_path
    ):
        # A cache filled from the plan's inputs holds every
        # machine-model fetch stream, so a report over it encodes none.
        from repro.experiments.common import machine_breakdown
        from repro.runner.cache import TraceDiskCache
        from repro.workloads import registry

        backend = TraceDiskCache(str(tmp_path))
        set_trace_cache_backend(backend)
        plan = compile_report(self.MODULES, SETTINGS)
        inputs = collect_inputs(plan.cells)
        clear_trace_cache()
        for trace in inputs.traces:
            registry.get_trace(*_registry_key(trace))
        for trace, line_size in inputs.streams:
            registry.get_line_runs(*_registry_key(trace), line_size)
        clear_trace_cache()

        hits: set = set()
        load = backend.load_line_runs

        def loading(params, n_instructions, seed, line_size):
            runs = load(params, n_instructions, seed, line_size)
            if runs is not None and line_size == 4:
                hits.add((params.name, params.os_name))
            return runs

        monkeypatch.setattr(backend, "load_line_runs", loading)
        encoded = _watch_fetch_encodes(monkeypatch)
        try:
            planned, _ = run_report(self.MODULES, SETTINGS, jobs=1)
        finally:
            clear_trace_cache()
        unique, _ = dedup_cells(plan.cells)
        assert hits == {
            cell.args[:2] for cell in unique if cell.fn is machine_breakdown
        }
        assert [key for key in encoded if key[1] == 4] == []
        assert [(name, digest(text)) for name, text in planned] == [
            (name, GOLDEN[name]) for name in self.MODULES
        ]


class TestCollectInputs:
    def test_demand_counts_and_union(self):
        family = MaskFamily(
            encode_line_size=32, mask_line_size=32, shapes=((64, 2),)
        )
        wider = MaskFamily(
            encode_line_size=32, mask_line_size=32, shapes=((64, 4),)
        )
        cells = [
            PlanCell(key=("a",), fn=_double, traces=(_key(),),
                     masks=(family,)),
            PlanCell(key=("b",), fn=_double, traces=(_key(),),
                     masks=(wider,)),
            PlanCell(key=("c",), fn=_double,
                     traces=(_key("sdet"),), streams=(16,)),
        ]
        inputs = collect_inputs(cells)
        assert inputs.traces == {_key(): 2, _key("sdet"): 1}
        # Mask families imply their encode stream; shapes union per
        # (trace, encode, mask) stream.
        assert inputs.streams == {(_key(), 32): 2, (_key("sdet"), 16): 1}
        shapes, count = inputs.masks[(_key(), 32, 32)]
        assert shapes == {(64, 2), (64, 4)}
        assert count == 2
        # 2 traces + 2 streams + 1 mask family.
        assert inputs.total == 5
        assert inputs.shared == 3  # groff trace, its stream, its masks

    def test_stream_sizes_include_mask_implied(self):
        cell = PlanCell(
            key=("a",), fn=_double, streams=(16,),
            masks=(MaskFamily(32, 128, ((64, 2),)),),
        )
        assert cell.stream_sizes == (16, 32)


class TestExecuteCells:
    def test_results_align_with_dedup(self):
        cells = [
            PlanCell(key=("x", i), fn=_double, args=(i % 2,))
            for i in range(4)
        ]
        results, timing = execute_cells(cells, jobs=1, label="unit")
        assert results == [0, 2, 0, 2]
        assert timing["plan"]["cells_total"] == 4
        assert timing["plan"]["cells_unique"] == 2
        assert len(timing["cells"]) == 2  # timing is per unique cell

    def test_primes_every_declared_input(self):
        clear_trace_cache()  # the priming below must synthesize
        cells = [
            PlanCell(
                key=("p", i), fn=_double, args=(i,),
                traces=(_key(),), streams=(32,),
                masks=(MaskFamily(32, 32, ((64, 2),)),),
            )
            for i in range(2)
        ]
        results, timing = execute_cells(cells, jobs=1, label="unit")
        assert results == [0, 2]
        stats = timing["plan"]
        assert stats["inputs_total"] == 3  # trace + stream + mask family
        assert stats["inputs_shared"] == 3  # all demanded by both cells
        assert stats["inputs_primed"] == stats["inputs_total"]
        assert stats["prime_seconds"] > 0.0
        # Priming synthesized the trace in the parent; the work shows
        # up in the plan's phase block and in phase_totals.
        assert stats["prime_phases"].get("synthesize", 0.0) > 0.0
        totals = timing_record(timing)["phase_totals"]
        assert totals.get("synthesize", 0.0) > 0.0

    def test_observer_add_remove(self):
        seen = []
        add_plan_observer(seen.append)
        try:
            execute_cells(
                [PlanCell(key=("o",), fn=_double, args=(1,))],
                jobs=1, label="observed",
            )
        finally:
            remove_plan_observer(seen.append)
        assert len(seen) == 1
        assert seen[0]["label"] == "observed"
        assert seen[0]["cells_total"] == 1
        execute_cells(
            [PlanCell(key=("o",), fn=_double, args=(1,))], jobs=1
        )
        assert len(seen) == 1  # removed observers stay silent


def _traces(cells, members) -> set:
    return {key for index in members for key in cells[index].traces}


class TestPhases:
    """Phases are the unit of input lifetime: a phase's traces are
    primed before its first cell and freed after its last.  A phase is
    one trace group: the cells that read one connected set of traces."""

    def _report_cells(self):
        plan = compile_report(dict(ALL_EXPERIMENTS), SETTINGS)
        return dedup_cells(plan.cells)[0]

    def test_phases_are_disjoint_and_cover_every_unique_cell(self):
        unique = self._report_cells()
        phases = plan_phases(unique)
        assert sorted(
            index for members in phases for index in members
        ) == list(range(len(unique)))
        assert all(members == sorted(members) for members in phases)
        seen: set = set()
        for members in phases:
            traces = _traces(unique, members)
            assert not traces & seen
            seen |= traces

    def test_report_plan_phases(self):
        unique = self._report_cells()
        # Every report cell reads at most one trace, so every phase is
        # one trace with all of its cells (or one trace-free cell).
        assert all(len(cell.traces) <= 1 for cell in unique)
        phases = plan_phases(unique)
        assert [len(_traces(unique, members)) for members in phases] == [
            1 if unique[members[0]].traces else 0 for members in phases
        ]
        trace_free = [cell for cell in unique if not cell.traces]
        assert len(phases) == (
            len(collect_inputs(unique).traces) + len(trace_free)
        )

    def test_phases_are_trace_components(self):
        def cell(name, *workloads):
            return PlanCell(
                key=(name,), fn=_double, args=(name,),
                traces=tuple(_key(workload) for workload in workloads),
            )

        cells = [
            cell("a", "w1"),
            cell("b", "w2"),
            cell("c", "w3", "w4", "w5"),
            cell("d", "w6"),
            cell("e"),
            cell("f", "w7"),
            cell("g", "w8"),
            cell("h", "w2"),
            cell("i", "w4"),
            cell("j", "w10"),
        ]
        # No packing: each connected set of traces is a phase, in order
        # of first appearance, and so is each trace-free cell.
        assert plan_phases(cells) == [
            [0], [1, 7], [2, 8], [3], [4], [5], [6], [9],
        ]

    def test_trace_free_cells_are_phases_of_their_own(self):
        cells = [
            PlanCell(key=("x", i), fn=_double, args=(i,)) for i in range(4)
        ]
        assert plan_phases(cells) == [[0], [1], [2], [3]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_phase_primes_and_frees_its_inputs(self, jobs):
        clear_trace_cache()
        modules = {"table5": table5, "figure2": figure2}
        with tracing.run("phased") as recorder:
            planned, timing = run_report(modules, SETTINGS, jobs=jobs)
        assert [(name, digest(text)) for name, text in planned] == [
            (name, GOLDEN[name]) for name in modules
        ]
        stats = timing["plan"]
        traces = [
            workload
            for suite in ("spec92", "ibs-mach3", "ibs-ultrix")
            for workload in suite_workloads(suite)
        ]
        # One phase per trace, in plan order.
        assert stats["phases"] == len(traces)
        assert stats["inputs_primed"] == stats["inputs_total"]
        primes = [
            span["attrs"] for span in recorder.spans
            if span["name"] == "plan-prime"
        ]
        # One span per stage that primes or releases, phase by phase
        # and stage by stage; each phase releases all it primed.
        unique, _ = dedup_cells(compile_report(modules, SETTINGS).cells)
        by_phase: dict = {}
        for attrs in primes:
            by_phase.setdefault(attrs["phase"], []).append(attrs)
        assert sorted(by_phase) == list(range(len(traces)))
        for number, members in enumerate(plan_phases(unique)):
            spans = by_phase[number]
            stages = [attrs["stage"] for attrs in spans]
            assert stages == sorted(set(stages))
            total = collect_inputs([unique[i] for i in members]).total
            assert sum(attrs["primed"] for attrs in spans) == total
            assert sum(attrs["released"] for attrs in spans) == total
        # Every cell span was adopted into this run, pool or not.
        cell_spans = [
            span for span in recorder.spans if span["name"] == "cell"
        ]
        assert len(cell_spans) == stats["cells_unique"]
        assert trace_cache_stats()["entries"] == 0
        # Timings stay aligned with the unique cells, in cell order.
        assert [cell["key"] for cell in timing["cells"]] == [
            cell.key for cell in unique
        ]

    def test_pooled_phases_fold_dispatch_into_the_parent(self):
        from repro.fetch import dispatch

        totals = {}
        for jobs in (1, 2):
            clear_trace_cache()
            dispatch.reset_totals()
            run_experiment(table5, SETTINGS, jobs=jobs)
            totals[jobs] = dispatch.totals()
        assert totals[1] and totals[2] == totals[1]

    @pytest.mark.parametrize("keep_inputs", [False, True])
    def test_workers_ship_spans_only_to_a_traced_run(
        self, keep_inputs, monkeypatch
    ):
        """Pool workers return rollups always and span records only when
        this process is traced; a traced run adopts every record.

        Without ``keep_inputs`` the cells are phases of their own, which
        go to the pool whole; with it they are one phase whose cells go
        to the pool one by one (:func:`~repro.runner.pool.run_cells`).
        """
        from repro.plan import executor
        from repro.runner import pool

        shipped: list = []

        def spy(run_in_pool):
            def spying(tasks, jobs):
                for item in run_in_pool(tasks, jobs):
                    shipped.append(item[-1])
                    yield item
            return spying

        monkeypatch.setattr(executor, "run_in_pool", spy(pool.run_in_pool))
        monkeypatch.setattr(pool, "run_in_pool", spy(pool.run_in_pool))
        cells = [
            PlanCell(key=("w", i), fn=_double, args=(i,)) for i in range(4)
        ]
        results, timing = execute_cells(
            cells, jobs=2, keep_inputs=keep_inputs
        )
        assert results == [0, 2, 4, 6]
        assert [cell["key"] for cell in timing["cells"]] == [
            cell.key for cell in cells
        ]
        assert len(shipped) == 4
        assert shipped == [None] * 4
        shipped.clear()
        with tracing.run("traced") as recorder:
            execute_cells(cells, jobs=2, keep_inputs=keep_inputs)
        assert len(shipped) == 4
        assert all(shipped)
        adopted = {span["span_id"] for span in recorder.spans}
        assert {
            record["span_id"] for records in shipped for record in records
        } <= adopted
        assert sorted(
            tuple(span["attrs"]["key"]) for span in recorder.spans
            if span["name"] == "cell"
        ) == [cell.key for cell in cells]

    def test_dead_worker_names_a_cell(self):
        from tests.test_runner_pool import _kill_own_worker, _nap

        # Two trace-free cells: two phases, so they go to one pool.
        cells = [
            PlanCell(key=("killed",), fn=_kill_own_worker),
            PlanCell(key=("napping",), fn=_nap),
        ]
        raised = []

        def call():
            try:
                execute_cells(cells, jobs=2)
            except CellExecutionError as exc:
                raised.append(exc)

        # A daemon thread, so a hung pool fails the test instead of
        # stalling the suite.
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "execute_cells hung after a worker died"
        [error] = raised
        assert error.key == ("killed",)
        assert "a worker process died" in str(error)

    def test_kept_inputs_stay_in_the_registry(self):
        from repro.workloads import registry

        clear_trace_cache()
        cells = [
            PlanCell(
                key=("k", workload), fn=_double, args=(workload,),
                traces=(_key(workload),), streams=(32,),
            )
            for workload in ("groff", "sdet")
        ]
        _, timing = execute_cells(cells, jobs=1, keep_inputs=True)
        assert timing["plan"]["phases"] == 1
        # Both traces' streams are kept; their columns are not.
        stats = trace_cache_stats()
        assert (stats["entries"], stats["resident_bytes"]) == (0, 0)
        assert stats["stream_entries"] == 2
        assert stats["stream_bytes"] > 0
        events: list = []
        registry.add_trace_cache_observer(events.append)
        try:
            _, timing = execute_cells(cells, jobs=1)
        finally:
            registry.remove_trace_cache_observer(events.append)
        # No component reads more than one trace: a phase per trace.
        assert timing["plan"]["phases"] == 2
        # The kept streams answered the priming: no trace was loaded,
        # and a releasing plan leaves kept streams alone.
        assert events == [registry.TRACE_CACHE_MEMORY_HIT] * 2
        stats = timing["plan"]
        assert stats["inputs_primed"] == stats["inputs_total"]
        assert trace_cache_stats()["entries"] == 0
        assert trace_cache_stats()["stream_entries"] == 2
        clear_trace_cache()


class TestFetchCellCoverage:
    """Sweep cells read only inputs the plan primed for them.

    :func:`~repro.experiments.common.fetch_cells` derives each cell's
    streams and mask families from its points.  If it under-declares,
    the cell encodes a stream, builds an LRU miss mask, or loads a
    trace itself: the answer is the same, but the work is neither
    shared nor freed with its phase.  A fetch cell reads streams only,
    so it loads no trace at all.  Prefetch kernels also build an
    install-aware mask per depth, which is not a plan input and is not
    counted here.  Each sweep is also checked alone, where no other
    experiment's declarations can hide a missing one.
    """

    def _unprimed(self, monkeypatch, modules, watched=None):
        """Run ``modules`` as a report; return what watched cells built.

        ``watched`` is the cell function to watch (default: the fetch
        evaluator).  Every ``repro`` module's binding of the encoder
        and of ``get_trace`` is wrapped, so a name imported with
        ``from`` is counted too.
        """
        import sys

        from repro.caches import vectorized
        from repro.caches.vectorized import LineOrderCache
        from repro.experiments.common import trace_fetch_cpi
        from repro.runner import pool
        from repro.trace import rle
        from repro.workloads import registry

        watched = watched or trace_fetch_cpi
        running: list = []  # the watched cell executing, or None
        watched_keys: list = []
        unprimed: list = []
        execute = pool._execute_cell
        encode = rle.to_line_runs
        load = registry.get_trace
        bounded = LineOrderCache._bounded_masks
        direct = vectorized.miss_mask_direct_mapped

        def cell(key, fn, args):
            if fn is watched:
                watched_keys.append(key)
            running.append(key if fn is watched else None)
            try:
                return execute(key, fn, args)
            finally:
                running.pop()

        def noting(what):
            if running and running[-1] is not None:
                unprimed.append((running[-1], *what))

        def encoding(addresses, line_size):
            noting(("stream", line_size))
            return encode(addresses, line_size)

        def loading(name, *args):
            noting(("trace", name))
            return load(name, *args)

        def masking(cache, n_sets, bounds):
            noting(("lru-mask", n_sets, tuple(bounds)))
            return bounded(cache, n_sets, bounds)

        def direct_masking(lines, n_sets):
            noting(("direct-mapped-mask", n_sets))
            return direct(lines, n_sets)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro":
                continue
            for original, wrapper in ((encode, encoding), (load, loading)):
                for attr in ("to_line_runs", "get_trace"):
                    if vars(module).get(attr) is original:
                        monkeypatch.setattr(module, attr, wrapper)
        monkeypatch.setattr(pool, "_execute_cell", cell)
        monkeypatch.setattr(LineOrderCache, "_bounded_masks", masking)
        monkeypatch.setattr(
            vectorized, "miss_mask_direct_mapped", direct_masking
        )
        clear_trace_cache()
        run_report(modules, SETTINGS, jobs=1)
        assert watched_keys
        return unprimed

    def test_report_fetch_cells_encode_and_mask_nothing(self, monkeypatch):
        # Nor do they load a trace.
        assert self._unprimed(monkeypatch, dict(ALL_EXPERIMENTS)) == []

    @pytest.mark.parametrize("name", ["table6", "table7"])
    def test_prefetch_sweep_alone_encodes_and_masks_nothing(
        self, monkeypatch, name
    ):
        # Depth-0 prefetch reads the plain demand mask.
        modules = {name: dict(ALL_EXPERIMENTS)[name]}
        assert self._unprimed(monkeypatch, modules) == []

    def test_figure5_alone_encodes_nothing(self, monkeypatch):
        # Its cells read the 32-byte stream the fetch sweeps share.  The
        # masks of its trials' page-mapped streams are private to the
        # cell, so only encodings and trace loads count here.
        from repro.experiments import figure5

        unprimed = self._unprimed(
            monkeypatch, {"figure5": figure5}, figure5._sweep_workload
        )
        assert [
            what for what in unprimed if what[1] in ("stream", "trace")
        ] == []


def _registry_key(trace: TraceKey) -> tuple:
    return trace.workload, trace.os_name, trace.n_instructions, trace.seed


@pytest.fixture(scope="class")
def staged_report():
    """A small-scale ``--jobs 1`` report, watched cell by cell.

    Records, at every cell start, which traces' columns and which
    streams the registry holds; every ``get_trace`` a cell makes for a
    trace whose columns the registry does not hold; every synthesis
    and encoding; every selection of a trace's fetch addresses the
    registry makes, with the encodings made from each; and, for each
    stage, the traces it encodes streams of.  Every
    ``repro`` module's binding of the watched functions is wrapped, so
    a name imported with ``from`` is counted too.
    """
    import sys
    import weakref

    from repro.plan import executor
    from repro.runner import pool
    from repro.trace import rle
    from repro.trace.trace import Trace
    from repro.workloads import registry

    record = SimpleNamespace(
        started=[], held=[], late_loads=[], synthesized=Counter(),
        encoded=0, selections=[], encoded_from=Counter(), stage_streams=[],
    )
    running: list = []
    execute = pool._execute_cell

    def cell(key, fn, args):
        record.started.append(key)
        record.held.append({
            trace: (entry.trace is not None, frozenset(entry.streams))
            for trace, entry in registry._trace_cache._entries.items()
        })
        running.append(key)
        try:
            return execute(key, fn, args)
        finally:
            running.pop()

    def loading(name, os_name, n_instructions, seed):
        entry = registry._trace_cache._entries.get(
            (name, os_name, n_instructions, seed)
        )
        if running and (entry is None or entry.trace is None):
            record.late_loads.append((running[-1], name, os_name))
        return load(name, os_name, n_instructions, seed)

    def encoding(addresses, line_size):
        record.encoded += 1
        for index, (_, selected) in enumerate(record.selections):
            if selected() is addresses:
                record.encoded_from[index] += 1
        return encode(addresses, line_size)

    def priming(step, inputs):
        record.stage_streams.append(
            {f"{trace.workload}@{trace.os_name}" for trace, _ in step.streams}
        )
        return prime(step, inputs)

    def selecting(trace):
        addresses = select(trace)
        if sys._getframe(1).f_globals.get("__name__") == registry.__name__:
            record.selections.append((trace.label, weakref.ref(addresses)))
        return addresses

    def synthesizing(params, n_instructions, seed=0):
        record.synthesized[(params.name, params.os_name)] += 1
        return synthesize(params, n_instructions, seed=seed)

    load, encode = registry.get_trace, rle.to_line_runs
    synthesize = registry.synthesize_trace
    select = Trace.ifetch_addresses
    prime = executor._prime_and_release
    wrappers = {
        "get_trace": (load, loading),
        "to_line_runs": (encode, encoding),
        "synthesize_trace": (synthesize, synthesizing),
    }
    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attr, (original, wrapper) in wrappers.items():
            if vars(module).get(attr) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    saved = registry._disk_cache
    registry.set_trace_cache_backend(None)
    pool._execute_cell = cell
    Trace.ifetch_addresses = selecting
    executor._prime_and_release = priming
    clear_trace_cache()
    try:
        run_report(dict(ALL_EXPERIMENTS), SETTINGS, jobs=1)
    finally:
        executor._prime_and_release = prime
        Trace.ifetch_addresses = select
        pool._execute_cell = execute
        for module, attr, original in patched:
            setattr(module, attr, original)
        registry._disk_cache = saved
    record.unique, _ = dedup_cells(
        compile_report(dict(ALL_EXPERIMENTS), SETTINGS).cells
    )
    yield record
    clear_trace_cache()


class TestStages:
    """Within a phase, every input lives from its first reader to its
    last.

    The executor runs a phase's column readers first, then encodes its
    streams and drops the trace's columns, then runs the stream-only
    cells by their finest line size.  A stream a stream-only cell reads
    first is encoded just before the columns go (the last moment it can
    be encoded without loading the trace again); every other input is
    primed for its first reader, and each is released after its last.
    A cell that reads columns without declaring them finds them gone,
    and is named here.
    """

    def test_inputs_live_from_first_reader_to_last(self, staged_report):
        unique = staged_report.unique
        by_key = {cell.key: cell for cell in unique}
        phase_of = {}
        for number, members in enumerate(plan_phases(unique)):
            for index in members:
                phase_of[unique[index].key] = number
        position: dict = {}
        first: dict = {}
        last: dict = {}
        column_last: dict = {}
        started = Counter()
        for key in staged_report.started:
            at = position[key] = started[phase_of[key]]
            started[phase_of[key]] += 1
            cell = by_key[key]
            for trace in cell.traces:
                if cell.columns:
                    column_last[trace] = at
                for size in cell.stream_sizes:
                    first.setdefault((trace, size), at)
                    last[(trace, size)] = at
        assert len(staged_report.started) == len(by_key)
        assert set(position) == set(by_key)
        wrong = []
        for key, held in zip(staged_report.started, staged_report.held):
            cell, at = by_key[key], position[key]
            mine = {_registry_key(trace): trace for trace in cell.traces}
            for registry_key, (columns, sizes) in held.items():
                trace = mine.get(registry_key)
                if trace is None:
                    wrong.append((key, "holds another phase's", registry_key))
                    continue
                if columns and at > column_last.get(trace, -1):
                    wrong.append((key, "columns after their last reader"))
                for size in sizes:
                    stream = (trace, size)
                    if stream not in last or at > last[stream]:
                        wrong.append((key, "stream after last reader", size))
                    elif at < first[stream] and at <= column_last.get(
                        trace, -1
                    ):
                        wrong.append((key, "stream before first reader", size))
            for trace in cell.traces:
                columns, sizes = held.get(_registry_key(trace), (False, ()))
                if cell.columns and not columns:
                    wrong.append((key, "columns not primed"))
                missing = set(cell.stream_sizes) - set(sizes)
                if missing:
                    wrong.append((key, "streams not primed", sorted(missing)))
        assert wrong == []

    def test_each_trace_is_synthesized_and_each_stream_encoded_once(
        self, staged_report
    ):
        from repro.experiments.common import machine_breakdown

        inputs = collect_inputs(staged_report.unique)
        assert staged_report.synthesized == Counter(
            (trace.workload, trace.os_name) for trace in inputs.traces
        )
        # The machine model reads its fetch stream as a plan input and
        # encodes only its load stream.
        models = sum(
            cell.fn is machine_breakdown for cell in staged_report.unique
        )
        assert models > 0
        assert staged_report.encoded == len(inputs.streams) + models

    def test_each_trace_is_selected_once_per_stage(self, staged_report):
        # A stage hands all of its streams of one trace to the registry
        # together, and the registry selects the trace's fetch
        # addresses once for them all (at 20k instructions: 77
        # selections for 109 streams of 39 traces, which encoding each
        # stream from a selection of its own made 109).
        inputs = collect_inputs(staged_report.unique)
        staged = Counter(
            label for labels in staged_report.stage_streams for label in labels
        )
        selected = Counter(label for label, _ in staged_report.selections)
        assert selected == staged
        assert len(staged_report.selections) < len(inputs.streams)
        assert sorted(staged_report.encoded_from) == list(
            range(len(staged_report.selections))
        )
        assert sum(staged_report.encoded_from.values()) == len(
            inputs.streams
        )

    def test_no_cell_reads_columns_after_they_are_dropped(
        self, staged_report
    ):
        assert staged_report.started
        assert staged_report.late_loads == []

    def test_largest_phase_peak_is_a_small_multiple_of_its_inputs(self):
        # Measured: 3.8x the bytes of the phase's trace columns and
        # streams (gs's 87 cells at 20k instructions), with streams
        # counted at 13 bytes a run, the width they were held at when
        # the bound was set; streams held narrower must not raise the
        # absolute peak.  The walk this replaced held every input of
        # the phase at once and peaked at 4.8x; the bound leaves 12%
        # headroom.
        import tracemalloc

        from repro.workloads.registry import BoundedTraceCache

        unique, _ = dedup_cells(
            compile_report(dict(ALL_EXPERIMENTS), SETTINGS).cells
        )
        members = max(plan_phases(unique), key=len)
        released = [0]
        release = BoundedTraceCache.release

        def releasing(self, key, **what):
            trace, streams = release(self, key, **what)
            if trace is not None:
                released[0] += (
                    trace.addresses.nbytes + trace.kinds.nbytes
                    + trace.components.nbytes
                )
            released[0] += sum(13 * len(runs) for runs in streams)
            return trace, streams

        clear_trace_cache()
        BoundedTraceCache.release = releasing
        tracemalloc.start()
        try:
            execute_cells([unique[index] for index in members], jobs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            BoundedTraceCache.release = release
        assert released[0] > 0
        assert peak <= 4.25 * released[0], peak / released[0]


class TestGoldenEquivalence:
    """Plan-executed output must match the pinned golden renderings.

    ``tests/test_golden.py`` checks all experiments through one report
    plan; these run single experiments through their own plans (sweeps
    with masks, per-workload cells, machine-model cells, a single-cell
    module).
    """

    @pytest.mark.parametrize(
        "module", [table5, table4, figure3, table3, figure2, table2]
    )
    def test_experiment_byte_identical(self, module):
        result, timing = run_experiment(module, SETTINGS, jobs=1)
        name = module.__name__.rsplit(".", 1)[-1]
        assert digest(result.render()) == GOLDEN[name]
        stats = timing["plan"]
        assert stats["inputs_primed"] == stats["inputs_total"]

    def test_report_byte_identical(self):
        modules = {"table5": table5, "table4": table4}
        planned, timing = run_report(modules, SETTINGS, jobs=1)
        assert [(name, digest(text)) for name, text in planned] == [
            (name, GOLDEN[name]) for name in modules
        ]
        # The report plan shares trace/stream/mask inputs across the
        # two experiments.
        assert timing["plan"]["inputs_shared"] > 0


class TestSchedulerGroupCells:
    def test_group_cells_annotated(self):
        from repro.service.scheduler import (
            EvaluateRequest,
            evaluate_group_cells,
        )

        requests = [
            EvaluateRequest(
                workload="groff", os_name="mach3",
                config_name="economy", mechanism="demand",
                settings=SETTINGS,
            ),
            EvaluateRequest(
                workload="groff", os_name="mach3",
                config_name="high-performance", mechanism="demand",
                settings=SETTINGS,
            ),
            EvaluateRequest(
                workload="sdet", os_name="mach3",
                config_name="economy", mechanism="demand",
                settings=SETTINGS,
            ),
        ]
        groups, cells = evaluate_group_cells(requests)
        assert list(groups.values()) == [[0, 1], [2]]
        assert len(cells) == 2
        first = cells[0]
        assert first.key == ("groff", "mach3", SETTINGS.engine)
        assert first.traces == plan_inputs.workload_trace_keys(
            [("groff", "mach3")], SETTINGS
        )
        # Both configs' points contribute streams and demand-mask
        # geometries to the one cell.
        assert first.streams
        assert first.masks

    def test_repeated_point_evaluates_once(self):
        # `repro warm --config economy --config economy` repeats every
        # point; the group cell sweeps it once and both requests get
        # its payload.
        from repro.service.scheduler import (
            EvaluateRequest,
            evaluate_group_cells,
            evaluate_payloads,
        )

        request = EvaluateRequest(
            workload="groff", os_name="mach3",
            config_name="economy", mechanism="demand",
            settings=SETTINGS,
        )
        groups, [cell] = evaluate_group_cells([request, request])
        assert [point.key for point in cell.args[2]] == [
            ("economy", "demand")
        ]
        payloads = dict(evaluate_payloads(
            [request, request], groups, [cell.fn(*cell.args)]
        ))
        assert list(payloads) == [0, 1]
        assert payloads[0] == payloads[1]
        assert payloads[0]["metrics"]["cpi_instr"] > 0

    def test_group_cell_masks_match_point_derivation(self):
        from repro.service.scheduler import (
            EvaluateRequest,
            _named_config,
            evaluate_group_cells,
        )

        request = EvaluateRequest(
            workload="groff", os_name="mach3",
            config_name="economy", mechanism="demand",
            settings=SETTINGS,
        )
        _, cells = evaluate_group_cells([request])
        point = fetch_point(
            ("economy", "demand"), _named_config("economy"), "demand"
        )
        assert cells[0].masks == plan_inputs.mask_families(
            [point], SETTINGS.engine
        )
