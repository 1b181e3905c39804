"""Tests for the warm tier (``repro warm``): pre-populating the store."""

import asyncio

from repro.experiments.common import ExperimentSettings
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import JobScheduler
from repro.service.store import ResultStore
from repro.service.warm import warm_plan, warm_store
from repro.workloads.registry import suite_workloads

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=0)


class TestWarmPlan:
    def test_plan_covers_the_requested_grid(self):
        plan = warm_plan(
            suite="ibs-mach3",
            configs=("economy",),
            mechanisms=("demand", "stream-buffer"),
            settings=SETTINGS,
        )
        expected = len(suite_workloads("ibs-mach3")) * 1 * 2
        assert len(plan) == expected
        assert len({request.key() for request in plan}) == expected

    def test_plan_defaults_to_the_whole_registry(self):
        plan = warm_plan(settings=SETTINGS)
        narrowed = warm_plan(suite="ibs-mach3", settings=SETTINGS)
        assert len(plan) > len(narrowed)


class TestWarmStore:
    def test_warm_fills_store_and_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "results")
        plan = warm_plan(
            suite="ibs-mach3",
            configs=("economy",),
            mechanisms=("demand",),
            settings=SETTINGS,
        )
        tally = warm_store(store, plan)
        assert tally["stored"] == len(plan)
        assert tally["skipped"] == 0
        assert len(store) == len(plan)
        for request in plan:
            assert store.get(request.key())["kind"] == "evaluate"
        again = warm_store(store, plan)
        assert again["stored"] == 0
        assert again["skipped"] == len(plan)

    def test_server_answers_warmed_cells_from_store(self, tmp_path):
        """The warm/serve key contract: a warmed cell never recomputes."""
        store = ResultStore(tmp_path / "results")
        plan = warm_plan(
            suite="ibs-mach3",
            configs=("economy",),
            mechanisms=("demand",),
            settings=SETTINGS,
        )
        warm_store(store, plan)
        scheduler = JobScheduler(
            ResultStore(tmp_path / "results"), ServiceMetrics()
        )
        try:
            async def body():
                job = await scheduler.submit_evaluate(plan[0])
                await job.wait()
                return job

            job = asyncio.run(body())
            assert job.status == "done"
            assert job.source == "store"
            assert scheduler.metrics.counter_value(
                "jobs_executed_total", {"kind": "evaluate"}) == 0
        finally:
            scheduler.close()
