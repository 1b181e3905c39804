"""Tests for the sweep-plan IR: compile, dedup, priming, execution.

The load-bearing invariants:

* **Byte equality** — an experiment executed through its compiled
  plan renders the pinned golden bytes (``tests/test_golden.py``).
* **Dedup soundness** — identical cells across experiments run once,
  and results fan back to every requester unchanged.
* **Full priming** — the executor primes every declared shared input
  exactly once (``inputs_primed == inputs_total``), and annotations
  only warm memos, never change arithmetic.
"""

import pytest

from repro.experiments import figure3, table3, table4, table5
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
)
from repro.runner.timing import TimingReport
from repro.workloads.registry import (
    clear_trace_cache,
    set_trace_cache_backend,
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
        results, report = execute_cells(cells, jobs=1, label="unit")
        assert results == [0, 2, 0, 2]
        assert report.plan["cells_total"] == 4
        assert report.plan["cells_unique"] == 2
        assert len(report.cells) == 2  # timing is per unique cell

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
        results, report = execute_cells(cells, jobs=1, label="unit")
        assert results == [0, 2]
        stats = report.plan
        assert stats["inputs_total"] == 3  # trace + stream + mask family
        assert stats["inputs_shared"] == 3  # all demanded by both cells
        assert stats["inputs_primed"] == stats["inputs_total"]
        assert stats["prime_seconds"] > 0.0
        # Priming synthesized the trace in the parent; the work shows
        # up in the plan's phase block and in phase_totals.
        assert stats["prime_phases"].get("synthesize", 0.0) > 0.0
        assert report.phase_totals.get("synthesize", 0.0) > 0.0

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


class TestGoldenEquivalence:
    """Plan-executed output must match the pinned golden renderings.

    ``tests/test_golden.py`` checks all experiments through one report
    plan; these run single experiments through their own plans (sweeps
    with masks, per-workload cells, a single-cell module).
    """

    @pytest.mark.parametrize("module", [table5, table4, figure3, table3])
    def test_experiment_byte_identical(self, module):
        result, report = run_experiment(module, SETTINGS, jobs=1)
        name = module.__name__.rsplit(".", 1)[-1]
        assert digest(result.render()) == GOLDEN[name]
        assert report.plan["inputs_primed"] == report.plan["inputs_total"]

    def test_report_byte_identical(self):
        modules = {"table5": table5, "table4": table4}
        planned, report = run_report(modules, SETTINGS, jobs=1)
        assert [(name, digest(text)) for name, text in planned] == [
            (name, GOLDEN[name]) for name in modules
        ]
        # The report plan shares trace/stream/mask inputs across the
        # two experiments.
        assert report.plan["inputs_shared"] > 0


class TestTimingReportPlan:
    def test_plan_block_round_trips(self):
        report = TimingReport(
            label="x", jobs=1, wall_seconds=1.0, cells=(),
            plan={
                "cells_total": 3,
                "inputs_primed": 2,
                "prime_phases": {"synthesize": 0.5},
            },
        )
        clone = TimingReport.from_dict(report.to_dict())
        assert clone.plan == report.plan
        assert clone.phase_totals == {"synthesize": 0.5}

    def test_no_plan_block_for_raw_pool_runs(self):
        report = TimingReport(
            label="x", jobs=1, wall_seconds=1.0, cells=()
        )
        assert "plan" not in report.to_dict()
        assert TimingReport.from_dict(report.to_dict()).plan is None


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
