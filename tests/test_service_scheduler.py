"""Unit tests for the coalescing/batching job scheduler."""

import asyncio
import errno
import os
import shutil

import pytest

from repro.experiments.common import ExperimentSettings
from repro.obs.manifest import load_manifest
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import EvaluateRequest, JobScheduler
from repro.service.store import ResultStore

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=0)


def _run(coroutine):
    return asyncio.run(coroutine)


def _evaluate_request(workload="gcc", config="economy", mechanism="demand"):
    return EvaluateRequest(
        workload=workload,
        os_name="mach3",
        config_name=config,
        mechanism=mechanism,
        settings=SETTINGS,
    )


@pytest.fixture
def make_scheduler(tmp_path):
    """Factory building schedulers that share one persistent store."""
    created = []

    def build(**kwargs):
        store = ResultStore(tmp_path / "results")
        scheduler = JobScheduler(store, ServiceMetrics(), **kwargs)
        created.append(scheduler)
        return scheduler

    yield build
    for scheduler in created:
        scheduler.close()


class TestExperimentJobs:
    def test_coalesced_single_flight(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            first, second = await asyncio.gather(
                scheduler.submit_experiment("table2", SETTINGS),
                scheduler.submit_experiment("table2", SETTINGS),
            )
            await asyncio.gather(first.wait(), second.wait())
            return first, second

        first, second = _run(body())
        assert first is second  # one job served both callers
        assert first.status == "done"
        assert first.coalesced == 1
        assert first.source == "executed"
        assert "Table 2" in first.rendering
        metrics = scheduler.metrics
        assert metrics.counter_value(
            "jobs_executed_total", {"kind": "experiment"}) == 1
        assert metrics.counter_value("jobs_coalesced_total") == 1
        assert metrics.counter_value(
            "jobs_submitted_total", {"kind": "experiment"}) == 1

    def test_store_hit_after_restart(self, make_scheduler):
        warm = make_scheduler()

        async def run_once(scheduler):
            job = await scheduler.submit_experiment("table2", SETTINGS)
            await job.wait()
            return job

        executed = _run(run_once(warm))
        assert executed.source == "executed"

        # A fresh scheduler + store instance over the same directory
        # simulates a cold server restart.
        cold = make_scheduler()
        replayed = _run(run_once(cold))
        assert replayed.status == "done"
        assert replayed.source == "store"
        assert replayed.rendering == executed.rendering
        assert cold.metrics.counter_value("result_store_hits_total") == 1
        assert cold.metrics.counter_value(
            "jobs_executed_total", {"kind": "experiment"}) == 0

    def test_store_hit_reads_the_entry_once(self, make_scheduler, monkeypatch):
        from repro.runner import entrystore as store_module

        async def run_once(scheduler):
            job = await scheduler.submit_experiment("table2", SETTINGS)
            await job.wait()
            return job

        executed = _run(run_once(make_scheduler()))
        cold = make_scheduler()
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(store_module, "open", counting_open, raising=False)
        replayed = _run(run_once(cold))
        assert replayed.source == "store"
        assert replayed.rendering == executed.rendering
        assert opened.count("meta.json") == 1

    def test_entry_evicted_after_the_read_still_answers_whole(
        self, make_scheduler
    ):
        """Another process evicting the entry right after this one read
        it cannot leave an experiment hit without its rendering."""

        async def run_once(scheduler):
            job = await scheduler.submit_experiment("table2", SETTINGS)
            await job.wait()
            return job

        executed = _run(run_once(make_scheduler()))
        cold = make_scheduler()
        store = cold.store
        read = store._load

        def read_then_evicted(key):
            record = read(key)
            shutil.rmtree(os.path.join(store.root, key), ignore_errors=True)
            return record

        store._load = read_then_evicted
        replayed = _run(run_once(cold))
        assert replayed.source == "store"
        assert replayed.rendering == executed.rendering
        assert replayed.result == executed.result

    def test_job_lookup_and_queue_depth(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_experiment("table2", SETTINGS)
            assert scheduler.get_job(job.id) is job
            assert scheduler.get_job("nope") is None
            await job.wait()
            return job

        _run(body())
        assert scheduler.queue_depth == 0

    def test_phase_histograms_fed(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_evaluate(_evaluate_request("nroff"))
            await job.wait()

        _run(body())
        histograms = scheduler.metrics.to_dict()["histograms"]
        assert "job_seconds" in histograms
        # Every evaluation runs the simulator under a timing phase, so
        # the job's spans must have carried it into the histograms.
        assert any(
            series["labels"] == {"phase": "simulate"} and series["count"] > 0
            for series in histograms.get("phase_seconds", [])
        )


class TestEvaluateJobs:
    def test_compatible_requests_batch(self, make_scheduler):
        scheduler = make_scheduler()
        requests = [
            _evaluate_request("gcc"),
            _evaluate_request("sdet"),
            _evaluate_request("gcc", config="high-performance"),
        ]

        async def body():
            jobs = await asyncio.gather(
                *(scheduler.submit_evaluate(r) for r in requests)
            )
            await asyncio.gather(*(job.wait() for job in jobs))
            return jobs

        jobs = _run(body())
        assert all(job.status == "done" for job in jobs)
        assert len({job.key for job in jobs}) == 3
        metrics = scheduler.metrics
        # Same batch signature → one run_cells dispatch for all three.
        assert metrics.counter_value("eval_batches_total") == 1
        assert metrics.counter_value(
            "jobs_executed_total", {"kind": "evaluate"}) == 3
        cpi = jobs[0].result["metrics"]["cpi_instr"]
        assert cpi > 1.0

    def test_batched_matches_direct_evaluate(self, make_scheduler):
        from repro.core.config import MemorySystemConfig
        from repro.core.study import evaluate

        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_evaluate(_evaluate_request("gcc"))
            await job.wait()
            return job

        job = _run(body())
        direct = evaluate(
            "gcc", "mach3", MemorySystemConfig.economy(),
            n_instructions=SETTINGS.n_instructions, seed=SETTINGS.seed,
            warmup_fraction=SETTINGS.warmup_fraction,
        )
        assert job.result["metrics"]["cpi_instr"] == pytest.approx(
            direct.cpi_instr
        )

    def test_identical_evaluates_coalesce(self, make_scheduler):
        scheduler = make_scheduler()

        async def body():
            first, second = await asyncio.gather(
                scheduler.submit_evaluate(_evaluate_request("gcc")),
                scheduler.submit_evaluate(_evaluate_request("gcc")),
            )
            await first.wait()
            return first, second

        first, second = _run(body())
        assert first is second
        assert scheduler.metrics.counter_value(
            "jobs_executed_total", {"kind": "evaluate"}) == 1

    def test_failure_names_cell(self, make_scheduler):
        scheduler = make_scheduler()
        bad = EvaluateRequest(
            workload="no-such-workload",
            os_name="mach3",
            config_name="economy",
            mechanism="demand",
            settings=SETTINGS,
        )

        async def body():
            job = await scheduler.submit_evaluate(bad)
            await job.wait()
            return job

        job = _run(body())
        assert job.status == "failed"
        # The CellExecutionError wrap names the failing cell identity.
        assert "no-such-workload" in job.error
        assert scheduler.metrics.counter_value(
            "jobs_failed_total", {"kind": "evaluate"}) == 1
        assert scheduler.queue_depth == 0


class TestDispatchMetrics:
    def test_engine_dispatch_counted(self, make_scheduler):
        """Fetch simulations land in engine_dispatch_total — and a
        mechanism that used to fall back to the reference engines now
        counts as vectorized (full kernel coverage)."""
        scheduler = make_scheduler()

        async def body():
            job = await scheduler.submit_evaluate(
                _evaluate_request(mechanism="victim")
            )
            await job.wait()
            return job

        job = _run(body())
        assert job.status == "done"
        assert scheduler.metrics.counter_value(
            "engine_dispatch_total",
            {"mechanism": "victim", "engine": "vectorized"},
        ) >= 1
        assert scheduler.metrics.counter_value(
            "engine_dispatch_total",
            {"mechanism": "victim", "engine": "reference"},
        ) == 0


def _counter_series(metrics, name):
    return {
        tuple(sorted(series["labels"].items())): series["value"]
        for series in metrics.to_dict()["counters"].get(name, [])
    }


class TestSpanDerivedMetrics:
    """``/metrics`` phase, dispatch and trace-cache series come from the
    finished spans of the scheduler's own jobs."""

    def test_idle_scheduler_counts_nothing(self, make_scheduler):
        busy = make_scheduler()
        idle = make_scheduler()

        async def body():
            job = await busy.submit_evaluate(_evaluate_request("nroff"))
            await job.wait()
            return job

        assert _run(body()).status == "done"
        assert _counter_series(busy.metrics, "engine_dispatch_total")
        assert _counter_series(busy.metrics, "trace_cache_lookups_total")
        # A second live scheduler in the same process ran no job, so
        # none of the other scheduler's work may land in its series.
        assert _counter_series(idle.metrics, "engine_dispatch_total") == {}
        assert _counter_series(idle.metrics, "trace_cache_lookups_total") == {}
        histograms = idle.metrics.to_dict()["histograms"]
        assert histograms.get("phase_seconds", []) == []

    def test_pool_worker_events_reach_metrics(self, make_scheduler, tmp_path):
        scheduler = make_scheduler(jobs=2, obs_dir=str(tmp_path / "obs"))
        requests = [
            _evaluate_request(workload, mechanism=mechanism)
            for workload in ("gcc", "sdet", "nroff")
            for mechanism in ("demand", "victim")
        ]

        async def body():
            jobs = await asyncio.gather(
                *(scheduler.submit_evaluate(r) for r in requests)
            )
            await asyncio.gather(*(job.wait() for job in jobs))
            return jobs

        jobs = _run(body())
        assert all(job.status == "done" for job in jobs)
        lookups: dict = {}
        dispatches: dict = {}
        for path in {job.manifest for job in jobs}:
            for span in load_manifest(path)["spans"]:
                for event, count in span["trace_cache"].items():
                    key = (("result", event),)
                    lookups[key] = lookups.get(key, 0) + count
                for engine, mechanisms in span["engine_dispatch"].items():
                    for mechanism, count in mechanisms.items():
                        key = (("engine", engine), ("mechanism", mechanism))
                        dispatches[key] = dispatches.get(key, 0) + count
        # Three workloads make three pool cells, so most lookups and all
        # dispatches happen in worker processes.
        assert sum(lookups.values()) >= 3
        assert sum(dispatches.values()) == len(requests)
        assert _counter_series(
            scheduler.metrics, "trace_cache_lookups_total"
        ) == lookups
        assert _counter_series(
            scheduler.metrics, "engine_dispatch_total"
        ) == dispatches


class _FullDiskStore(ResultStore):
    """A store whose every publish fails as a full disk would."""

    def put(self, key, payload, rendering=None):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestPublishFailure:
    """A result the store cannot publish still completes its job."""

    @pytest.mark.parametrize("kind", ["experiment", "evaluate"])
    def test_job_completes_and_failure_is_counted(self, tmp_path, kind):
        scheduler = JobScheduler(
            _FullDiskStore(tmp_path / "results"), ServiceMetrics()
        )

        async def submit():
            if kind == "experiment":
                job = await scheduler.submit_experiment("table2", SETTINGS)
            else:
                job = await scheduler.submit_evaluate(_evaluate_request())
            await asyncio.wait_for(job.wait(), 120)
            return job

        async def body():
            first = await submit()
            # An identical request after it runs afresh instead of
            # coalescing onto a job that never finishes.
            return first, await submit()

        try:
            first, second = _run(body())
        finally:
            scheduler.close()
        assert first is not second
        for job in (first, second):
            assert job.status == "done"
            assert job.source == "executed"
        assert first.rendering == second.rendering
        assert first.result["name"] == second.result["name"]
        assert scheduler.metrics.counter_value(
            "result_store_publish_failures_total"
        ) == 2


def _batch(scheduler, requests):
    """Submit ``requests`` as one evaluate batch; the finished jobs."""

    async def body():
        jobs = await asyncio.gather(
            *(scheduler.submit_evaluate(request) for request in requests)
        )
        await asyncio.gather(
            *(asyncio.wait_for(job.wait(), 120) for job in jobs)
        )
        return jobs

    jobs = _run(body())
    assert [job.status for job in jobs] == ["done"] * len(jobs)
    assert {job.source for job in jobs} == {"executed"}
    return jobs


#: Points of a later batch, none of them in the first one.
_LATER_POINTS = (
    ("economy", "prefetch"),
    ("high-performance", "stream-buffer"),
    ("high-performance", "victim"),
    ("economy", "markov"),
)

#: Prints the evaluate payloads for gcc at every :data:`_LATER_POINTS`
#: point, per engine, from a fresh interpreter: the group cells of
#: ``evaluate_group_cells`` called directly (no plan, no priming, no
#: kept streams), formatted by ``evaluate_payloads``.
_COLD_PAYLOADS = """
import json, sys
from repro.experiments.settings import ExperimentSettings
from repro.service.scheduler import (
    EvaluateRequest, evaluate_group_cells, evaluate_payloads,
)
points = tuple(tuple(point) for point in json.loads(sys.argv[1]))
payloads = {}
for engine in ("auto", "reference"):
    settings = ExperimentSettings(
        n_instructions=20_000, seed=0,
        warmup_fraction=float(sys.argv[2]), engine=engine,
    )
    requests = [
        EvaluateRequest("gcc", "mach3", config, mechanism, settings)
        for config, mechanism in points
    ]
    groups, cells = evaluate_group_cells(requests)
    results = [cell.fn(*cell.args) for cell in cells]
    payloads[engine] = [
        payload
        for _, payload in evaluate_payloads(requests, groups, results)
    ]
print(json.dumps(payloads))
"""


class TestKeptStreams:
    """The server keeps each workload's line-run streams (and their
    miss masks) across evaluate batches, not its trace's columns."""

    @pytest.fixture(autouse=True)
    def _fresh_registry(self, tmp_path):
        from repro.caches.vectorized import clear_order_caches
        from repro.runner.cache import TraceDiskCache
        from repro.workloads import registry

        saved = registry._disk_cache
        stats = registry.trace_cache_stats()
        registry.set_trace_cache_backend(TraceDiskCache(tmp_path / "cache"))
        registry.clear_trace_cache()
        clear_order_caches()
        yield
        registry.configure_trace_cache(
            stats["max_entries"], stats["max_bytes"]
        )
        registry.clear_trace_cache()
        registry.set_trace_cache_backend(saved)

    def test_later_batch_loads_and_encodes_nothing(
        self, make_scheduler, monkeypatch
    ):
        from repro.runner.cache import TraceDiskCache
        from repro.trace import rle
        from repro.workloads import registry

        scheduler = make_scheduler()
        _batch(scheduler, [_evaluate_request("gcc")])
        stats = registry.trace_cache_stats()
        assert (stats["entries"], stats["resident_bytes"]) == (0, 0)
        assert stats["stream_entries"] == 1
        assert stats["stream_bytes"] > 0

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            registry, "synthesize_trace",
            counted("synthesize_trace", registry.synthesize_trace),
        )
        monkeypatch.setattr(
            TraceDiskCache, "load", counted("load", TraceDiskCache.load)
        )
        monkeypatch.setattr(
            rle, "to_line_runs", counted("to_line_runs", rle.to_line_runs)
        )
        _batch(scheduler, [
            _evaluate_request("gcc", config, mechanism)
            for config, mechanism in _LATER_POINTS
        ])
        assert calls == []
        assert registry.trace_cache_stats()["entries"] == 0
        # The kept streams answered, and count as memory hits.
        series = _counter_series(scheduler.metrics, "trace_cache_lookups_total")
        assert series[(("result", "memory-hit"),)] > 0
        assert series[(("result", "synthesized"),)] == 1

    def test_entry_bound_evicts_kept_streams_and_their_masks(
        self, make_scheduler
    ):
        import weakref

        from repro.caches.vectorized import order_cache_stats
        from repro.workloads import registry

        registry.configure_trace_cache(max_entries=2)
        scheduler = make_scheduler()
        memo_entries = []
        for workload in ("gcc", "sdet", "nroff"):
            _batch(scheduler, [_evaluate_request(workload)])
            memo_entries.append(order_cache_stats()["entries"])
            if workload == "gcc":
                first = weakref.ref(registry.get_line_runs(
                    "gcc", "mach3", SETTINGS.n_instructions, SETTINGS.seed
                ))
        stats = registry.trace_cache_stats()
        assert (stats["entries"], stats["stream_entries"]) == (0, 2)
        # gcc's streams were evicted, and their memos and masks with them.
        assert first() is None
        one = memo_entries[0]
        assert one > 0
        assert memo_entries == [one, 2 * one, 2 * one]

    def test_kept_stream_payloads_match_a_cold_process(self, tmp_path):
        import json
        import subprocess
        import sys

        from repro.workloads import registry

        served = {}
        for engine in ("auto", "reference"):
            settings = ExperimentSettings(
                n_instructions=20_000, seed=0, engine=engine
            )
            scheduler = JobScheduler(
                ResultStore(tmp_path / f"results-{engine}"), ServiceMetrics()
            )
            try:
                registry.clear_trace_cache()
                _batch(scheduler, [EvaluateRequest(
                    "gcc", "mach3", "economy", "demand", settings
                )])
                assert registry.trace_cache_stats()["entries"] == 0
                jobs = _batch(scheduler, [
                    EvaluateRequest("gcc", "mach3", config, mechanism, settings)
                    for config, mechanism in _LATER_POINTS
                ])
            finally:
                scheduler.close()
            served[engine] = [job.result for job in jobs]
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_CACHE_DIR", None)
        cold = subprocess.run(
            [
                sys.executable, "-c", _COLD_PAYLOADS,
                json.dumps(_LATER_POINTS), repr(SETTINGS.warmup_fraction),
            ],
            capture_output=True, text=True, check=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert json.loads(cold.stdout) == served
