"""Admission control, graceful drain, and overload behaviour.

The overload contract: a burst beyond capacity keeps the server
responsive — the queue stays bounded, excess requests get an immediate
429 with a Retry-After hint (never a hang, never a dropped socket),
``/healthz`` reports the shed state, and the server-side admission
counters agree exactly with what the clients observed.
"""

import asyncio
import threading
import time

import pytest

from repro.experiments.common import ExperimentSettings
from repro.loadgen.driver import LoadConfig, run_load_async
from repro.loadgen.stats import OK, SHED
from repro.loadgen.workload import Workload
from repro.service.app import _graceful_shutdown
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import AdmissionError, JobScheduler
from repro.service.store import ResultStore

from tests.test_service_http import _json_request, _request_full, _Server

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=0)


class _FakeResult:
    def render(self):
        return "fake rendering"


class _FakeReport:
    wall_seconds = 0.0
    phase_totals = {}


def _block_executor(scheduler, release: threading.Event):
    """Replace the experiment executor body with an event-gated stall.

    Keeps the real started/settled bookkeeping so occupancy gauges and
    Retry-After see the stalled job exactly like a slow real one.
    """

    def stalled(job, name, settings):
        scheduler._jobs_started([job.created_at])
        try:
            release.wait(30)
        finally:
            scheduler._jobs_settled(1, 0.05)
        return _FakeResult(), _FakeReport(), None

    scheduler._execute_experiment = stalled


class TestAdmissionBurst:
    def test_closed_loop_burst_sheds_and_loses_nothing(self, tmp_path):
        """ISSUE acceptance: closed-loop burst against a 1-worker server
        with a tiny queue — bounded occupancy, 429s with Retry-After,
        zero requests dropped without a response, and server counters
        consistent with client-observed outcomes."""
        max_requests = 18

        async def body():
            async with _Server(
                tmp_path / "results", max_inflight=1, max_queue=1
            ) as served:
                scheduler = served.app.scheduler
                workload = Workload.grid(
                    skew="uniform",
                    seed=3,
                    n_instructions=SETTINGS.n_instructions,
                    suite_pairs=[("gcc", "mach3")],
                )
                config = LoadConfig(
                    host="127.0.0.1",
                    port=served.port,
                    mode="closed",
                    clients=6,
                    max_requests=max_requests,
                    duration_seconds=60.0,
                )
                peak = 0
                done = asyncio.Event()

                async def monitor():
                    nonlocal peak
                    while not done.is_set():
                        peak = max(peak, scheduler.queue_depth)
                        await asyncio.sleep(0.002)

                watcher = asyncio.ensure_future(monitor())
                result = await run_load_async(workload, config)
                done.set()
                await watcher
                return result, peak, served.app.metrics

        result, peak, metrics = asyncio.run(body())
        samples = result.recorder.samples
        assert len(samples) == max_requests
        # Zero dropped-without-response: every request got a real HTTP
        # status, and nothing but 200/202/429 ever came back.
        assert all(s.status in (200, 202, 429) for s in samples)
        sheds = [s for s in samples if s.outcome == SHED]
        oks = [s for s in samples if s.outcome == OK]
        assert len(sheds) + len(oks) == max_requests
        # 6 clients racing a 1-worker, 1-deep queue must shed.
        assert sheds
        for sample in sheds:
            assert sample.status == 429
            assert sample.retry_after is not None
            assert sample.retry_after >= 1
        # The queue never grew past the admission bound.
        assert peak <= 1 + 1  # max_queue + max_inflight
        # Server-side decisions match the client-observed outcomes.
        shed_count = metrics.counter_value(
            "admission_total", {"decision": "shed"})
        admitted = sum(
            metrics.counter_value("admission_total", {"decision": d})
            for d in ("accepted", "coalesced", "store-hit")
        )
        assert shed_count == len(sheds)
        assert admitted == len(oks)


class TestHealthzOverload:
    def test_healthz_reflects_shedding_and_recovery(self, tmp_path):
        async def body():
            async with _Server(
                tmp_path / "results", max_inflight=1, max_queue=0
            ) as served:
                release = threading.Event()
                _block_executor(served.app.scheduler, release)
                status, job = await _json_request(
                    served.port, "POST", "/v1/experiments",
                    {"experiment": "table2", "instructions": 20_000,
                     "wait": False},
                )
                assert status == 202
                # Wait for the stalled body to occupy the worker.
                for _ in range(200):
                    if served.app.scheduler.inflight_count:
                        break
                    await asyncio.sleep(0.01)
                status, health = await _json_request(
                    served.port, "GET", "/healthz"
                )
                assert status == 200
                # status is pure liveness — it must NOT flap to
                # "shedding" (external checks match "status": "ok");
                # the admission object carries the overload state.
                assert health["status"] == "ok"
                assert health["admission"]["state"] == "shedding"
                assert health["admission"]["inflight"] == 1
                assert health["admission"]["queued"] == 0
                assert health["admission"]["max_inflight"] == 1
                assert health["admission"]["max_queue"] == 0
                assert health["queue_depth"] == 1
                # New distinct work is shed with a Retry-After hint.
                status, headers, _raw = await _request_full(
                    served.port, "POST", "/v1/experiments",
                    {"experiment": "table3", "instructions": 20_000,
                     "wait": False},
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                # Polling the running job is always admitted.
                status, record = await _json_request(
                    served.port, "GET", f"/v1/jobs/{job['id']}"
                )
                assert status == 202 and record["status"] == "running"
                release.set()
                for _ in range(500):
                    status, record = await _json_request(
                        served.port, "GET", f"/v1/jobs/{job['id']}"
                    )
                    if record["status"] != "running":
                        break
                    await asyncio.sleep(0.01)
                assert record["status"] == "done"
                status, health = await _json_request(
                    served.port, "GET", "/healthz"
                )
                assert health["status"] == "ok"
                assert health["admission"]["state"] == "accepting"
                assert health["queue_depth"] == 0

        asyncio.run(body())


@pytest.fixture
def make_scheduler(tmp_path):
    created = []

    def build(**kwargs):
        scheduler = JobScheduler(
            ResultStore(tmp_path / "results"), ServiceMetrics(), **kwargs
        )
        created.append(scheduler)
        return scheduler

    yield build
    for scheduler in created:
        scheduler.close()


class TestSchedulerAdmission:
    def test_store_hits_admitted_while_shedding(self, make_scheduler):
        """A request answerable from the store costs no compute, so it
        is served even when the queue is full."""
        warm = make_scheduler()

        async def fill(scheduler):
            job = await scheduler.submit_experiment("table2", SETTINGS)
            await job.wait()
            return job

        asyncio.run(fill(warm))

        cold = make_scheduler(max_inflight=1, max_queue=0)
        release = threading.Event()
        _block_executor(cold, release)

        async def body():
            other = ExperimentSettings(n_instructions=40_000, seed=0)
            blocked = await cold.submit_experiment("table2", other)
            for _ in range(200):
                if cold.inflight_count:
                    break
                await asyncio.sleep(0.01)
            assert cold.admission_state == "shedding"
            # The warmed key sails through the full queue...
            hit = await cold.submit_experiment("table2", SETTINGS)
            assert hit.status == "done" and hit.source == "store"
            # ...while fresh compute sheds.
            third = ExperimentSettings(n_instructions=60_000, seed=0)
            with pytest.raises(AdmissionError) as excinfo:
                await cold.submit_experiment("table2", third)
            assert excinfo.value.retry_after >= 1
            release.set()
            await blocked.wait()
            return hit

        asyncio.run(body())
        assert cold.metrics.counter_value(
            "admission_total", {"decision": "store-hit"}) == 1
        assert cold.metrics.counter_value(
            "admission_total", {"decision": "shed"}) == 1

    def test_shed_job_leaves_no_ghost(self, make_scheduler):
        scheduler = make_scheduler(max_inflight=1, max_queue=0)
        release = threading.Event()
        _block_executor(scheduler, release)

        async def body():
            blocked = await scheduler.submit_experiment("table2", SETTINGS)
            other = ExperimentSettings(n_instructions=40_000, seed=0)
            with pytest.raises(AdmissionError):
                await scheduler.submit_experiment("table2", other)
            # The shed submission left no job behind to poll forever.
            shed_ids = [
                job_id for job_id, job in scheduler._jobs.items()
                if job is not blocked
            ]
            assert shed_ids == []
            release.set()
            await blocked.wait()

        asyncio.run(body())


class TestGracefulDrain:
    def test_drain_waits_for_fast_jobs(self, make_scheduler):
        scheduler = make_scheduler(max_inflight=1)

        async def body():
            job = await scheduler.submit_experiment("table2", SETTINGS)
            tally = await scheduler.drain(timeout=120)
            return job, tally

        job, tally = asyncio.run(body())
        assert tally == {"finished": 1, "cancelled": 0}
        assert job.status == "done"
        assert scheduler.queue_depth == 0
        assert scheduler.admission_state == "draining"

    def test_drain_cancels_stragglers_and_stops_workers(self, make_scheduler):
        scheduler = make_scheduler(max_inflight=1, max_queue=4)
        release = threading.Event()
        _block_executor(scheduler, release)

        async def body():
            running = await scheduler.submit_experiment("table2", SETTINGS)
            queued = await scheduler.submit_experiment(
                "table2",
                ExperimentSettings(n_instructions=40_000, seed=0),
            )
            for _ in range(200):
                if scheduler.inflight_count:
                    break
                await asyncio.sleep(0.01)
            tally = await scheduler.drain(timeout=0.2)
            # Draining sheds new work immediately.
            with pytest.raises(AdmissionError):
                await scheduler.submit_experiment(
                    "table2",
                    ExperimentSettings(n_instructions=60_000, seed=0),
                )
            return running, queued, tally

        running, queued, tally = asyncio.run(body())
        assert tally == {"finished": 0, "cancelled": 2}
        assert running.status == "cancelled"
        assert queued.status == "cancelled"
        assert "cancelled" in running.error
        assert scheduler.queue_depth == 0
        # Releasing the stalled body must not resurrect the job (the
        # terminal-state guard discards the late completion) and the
        # worker threads exit — no orphans.
        release.set()
        deadline = time.time() + 5
        while time.time() < deadline:
            threads = list(scheduler._executor._threads)
            if all(not t.is_alive() for t in threads):
                break
            time.sleep(0.02)
        assert all(not t.is_alive() for t in scheduler._executor._threads)
        assert running.status == "cancelled"


class TestGracefulShutdown:
    def test_shutdown_cannot_hang_on_open_connections(self, tmp_path):
        """The SIGTERM path with live clients must terminate.

        On Python >= 3.12.1 ``Server.wait_closed()`` waits for every
        connection handler — a client blocked in a ``wait`` request or
        an idle keep-alive connection would deadlock a shutdown that
        called it before the drain.  The fixed ordering (drain, then
        close idle transports, then a bounded ``wait_closed``) must
        finish promptly, deliver the blocked waiter its ``cancelled``
        verdict, and EOF the idle client.
        """

        async def body():
            async with _Server(
                tmp_path / "results", max_inflight=1, max_queue=1
            ) as served:
                release = threading.Event()
                _block_executor(served.app.scheduler, release)
                try:
                    # An idle keep-alive client holding a connection.
                    idle_reader, idle_writer = await asyncio.open_connection(
                        "127.0.0.1", served.port
                    )
                    # A client blocked in `await job.wait()` on a job
                    # whose executor body is stalled.
                    waiter = asyncio.ensure_future(_json_request(
                        served.port, "POST", "/v1/experiments",
                        {"experiment": "table2", "instructions": 20_000,
                         "wait": True},
                    ))
                    for _ in range(500):
                        if served.app.scheduler.inflight_count:
                            break
                        await asyncio.sleep(0.01)
                    assert served.app.scheduler.inflight_count == 1
                    tally = await asyncio.wait_for(
                        _graceful_shutdown(
                            [served.server], served.app, drain_timeout=0.2
                        ),
                        timeout=10.0,
                    )
                    assert tally == {"finished": 0, "cancelled": 1}
                    # The blocked waiter was answered, not cut off.
                    status, record = await asyncio.wait_for(waiter, 10.0)
                    assert status == 200
                    assert record["status"] == "cancelled"
                    # The idle connection got a clean EOF.
                    eof = await asyncio.wait_for(idle_reader.read(), 10.0)
                    assert eof == b""
                    idle_writer.close()
                finally:
                    release.set()

        asyncio.run(body())

    def test_app_shutdown_reports_the_tally(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                status, _job = await _json_request(
                    served.port, "POST", "/v1/experiments",
                    {"experiment": "table2", "instructions": 20_000,
                     "wait": True},
                )
                assert status == 200
                tally = await served.app.shutdown(timeout=30)
                assert tally == {"finished": 0, "cancelled": 0}
                # Shutdown is idempotent.
                again = await served.app.shutdown(timeout=1)
                assert again == {"finished": 0, "cancelled": 0}

        asyncio.run(body())
