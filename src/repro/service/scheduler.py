"""Job scheduling for the simulation server.

Three responsibilities sit between the HTTP layer and the compute layer
(:mod:`repro.runner.pool`):

* **Single-flight coalescing** — identical requests (same canonical
  content key) arriving while a job is in flight attach to the existing
  job instead of re-running it; both callers get the same result and
  the experiment executes exactly once.
* **Batching** — compatible ``evaluate`` requests (same OS/trace-length/
  seed signature, i.e. same synthesized traces) submitted before the
  event loop's next turn compile into one sweep plan (see
  :func:`evaluate_group_cells`) executed by
  :func:`repro.plan.executor.execute_cells`, so a burst of point
  queries shares trace synthesis, primed miss masks, and the process
  pool.
* **Non-blocking dispatch** — simulation work runs on a small thread
  pool (which itself fans out over the process pool when ``jobs > 1``),
  keeping the asyncio event loop free to accept and answer requests.

Completed results are written to the content-addressed
:class:`~repro.service.store.ResultStore`; a request whose key is
already stored completes immediately as a recorded hit.
"""

from __future__ import annotations

import asyncio
import importlib
import itertools
import json
import os
import threading
import time
import uuid
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

# Only numpy-free modules at the top: a store hit is keyed and answered
# with these alone.  The compute layers (core.study, plan.executor,
# plan.inputs, the workload registry) load on the first miss, inside an
# executor-thread body, so the event loop never waits on that import.
from repro.core.config import MemorySystemConfig
from repro.experiments.settings import (
    ExperimentSettings,
    canonical_job_key,
    settings_record,
)
from repro.obs import tracing
from repro.obs.export import timing_record
from repro.obs.logs import log_event
from repro.obs.manifest import build_manifest, write_manifest
from repro.plan.ir import PlanCell

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Named memory-system configurations accepted by evaluate requests.
CONFIGS = ("economy", "high-performance")

#: Admission states reported on ``/healthz``.
ACCEPTING = "accepting"
SHEDDING = "shedding"
DRAINING = "draining"

_job_counter = itertools.count(1)


class AdmissionError(Exception):
    """The scheduler refused new work (queue full or draining).

    Carries the ``Retry-After`` hint the HTTP layer sends with the 429:
    a service-time estimate of when a slot is likely to free up.
    """

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = retry_after


def _named_config(config_name: str) -> MemorySystemConfig:
    if config_name == "economy":
        return MemorySystemConfig.economy()
    if config_name == "high-performance":
        return MemorySystemConfig.high_performance()
    raise ValueError(
        f"unknown config {config_name!r}; expected one of {CONFIGS}"
    )


@dataclass(frozen=True)
class EvaluateRequest:
    """One point query: a workload against a named configuration."""

    workload: str
    os_name: str
    config_name: str
    mechanism: str
    settings: ExperimentSettings

    @property
    def batch_signature(self) -> tuple:
        """Requests sharing this signature share synthesized traces."""
        return (
            self.settings.n_instructions,
            self.settings.seed,
            self.settings.warmup_fraction,
        )

    @property
    def group_key(self) -> tuple:
        """Requests sharing this key run as one cell over one trace.

        Grouping by workload/OS (and engine) lets a flush evaluate all
        of a workload's requested points against a single loaded trace,
        sharing its RLE streams and memoized miss masks.
        """
        return (self.workload, self.os_name, self.settings.engine)

    def key(self) -> str:
        # settings_record (inside canonical_job_key) omits the engine:
        # the differential tests pin both engines bit-identical, so
        # requests differing only in engine coalesce and share stored
        # results.
        return canonical_job_key(
            "evaluate",
            self.workload,
            self.settings,
            extra={
                "os": self.os_name,
                "config": self.config_name,
                "mechanism": self.mechanism,
            },
        )


class Job:
    """One unit of served work, shared by every coalesced caller."""

    def __init__(
        self, key: str, kind: str, name: str, trace_id: str | None = None
    ):
        self.id = f"job-{next(_job_counter):06d}-{uuid.uuid4().hex[:8]}"
        self.key = key
        self.kind = kind
        self.name = name
        self.trace_id = trace_id or tracing.new_trace_id()
        self.manifest: str | None = None
        self.status = PENDING
        self.created_at = time.time()
        self.finished_at: float | None = None
        self.coalesced = 0
        self.source: str | None = None  # "executed" | "store"
        #: The result payload as the text the store holds (see
        #: :meth:`ResultStore.put`): responses splice it in verbatim,
        #: and the job ledger keeps no decoded copy of it.
        self.result_json: str | None = None
        self.rendering: str | None = None
        self.error: str | None = None
        self._event = asyncio.Event()

    async def wait(self) -> None:
        """Block until the job reaches a terminal state."""
        await self._event.wait()

    @property
    def finished(self) -> bool:
        return self.status in (DONE, FAILED, CANCELLED)

    @property
    def result(self) -> dict | None:
        """The result payload, decoded afresh on every access."""
        if self.result_json is None:
            return None
        return json.loads(self.result_json)

    def _complete(
        self, result_json: str, rendering: str | None, source: str
    ) -> None:
        if self.finished:
            return  # a drain already cancelled this job; keep that verdict
        self.result_json = result_json
        self.rendering = rendering
        self.source = source
        self.status = DONE
        self.finished_at = time.time()
        self._event.set()

    def _fail(self, error: str) -> None:
        if self.finished:
            return
        self.error = error
        self.status = FAILED
        self.finished_at = time.time()
        self._event.set()

    def _cancel(self) -> None:
        """Terminal 'cancelled' state: shutdown arrived before the work."""
        if self.finished:
            return
        self.error = "cancelled by server shutdown"
        self.status = CANCELLED
        self.finished_at = time.time()
        self._event.set()

    def to_dict(self) -> dict:
        """The job record without its result (see :attr:`result_json`)."""
        return {
            "id": self.id,
            "key": self.key,
            "kind": self.kind,
            "name": self.name,
            "trace_id": self.trace_id,
            "manifest": self.manifest,
            "status": self.status,
            "coalesced": self.coalesced,
            "source": self.source,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }


def evaluate_group_cells(
    requests: list[EvaluateRequest],
) -> tuple[dict[tuple, list[int]], list[PlanCell]]:
    """Compile point requests into annotated plan cells.

    One :func:`~repro.experiments.common.fetch_cell` per ``(workload,
    OS, engine)`` group, keyed by the group: all of a workload's
    requested points evaluate against one trace's streams, and the
    cell declares the streams and demand-mask families its points
    consult, so the plan executor primes them before the cell runs.
    Returns the group-to-request-indices mapping (in first-seen order,
    matching the cell list) alongside the cells; both the scheduler's
    evaluate flush and ``repro warm`` build their batches here and
    format the cells' values with :func:`evaluate_payloads`.
    """
    from repro.experiments.common import fetch_cell, fetch_point

    groups: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(request.group_key, []).append(index)
    cells = []
    for group_key, indices in groups.items():
        workload, os_name, _engine = group_key
        points = {}
        for index in indices:
            request = requests[index]
            key = (request.config_name, request.mechanism)
            if key not in points:
                points[key] = fetch_point(
                    key, _named_config(request.config_name), request.mechanism
                )
        cells.append(fetch_cell(
            group_key, workload, os_name, tuple(points.values()),
            requests[indices[0]].settings,
        ))
    return groups, cells


def evaluate_payloads(
    requests: list[EvaluateRequest],
    groups: dict[tuple, list[int]],
    results: list,
) -> Iterator[tuple[int, dict]]:
    """Yield ``(request index, payload)`` in group order.

    ``groups`` and ``results`` are :func:`evaluate_group_cells`'s
    groups and its cells' values (``{point key: FetchMetrics}``),
    aligned.
    """
    for indices, values in zip(groups.values(), results):
        for index in indices:
            request = requests[index]
            settings = request.settings
            # The payload format is engine-independent on purpose:
            # results are bit-identical across engines and may be
            # served from the store to a request that asked for the
            # other engine.
            yield index, {
                "kind": "evaluate",
                "name": request.workload,
                "os": request.os_name,
                "config": request.config_name,
                "mechanism": request.mechanism,
                "settings": {
                    "n_instructions": settings.n_instructions,
                    "seed": settings.seed,
                    "warmup_fraction": settings.warmup_fraction,
                },
                "metrics": values[
                    (request.config_name, request.mechanism)
                ]._asdict(),
            }


class JobScheduler:
    """Coalescing, batching dispatcher onto the pool runner."""

    def __init__(
        self,
        store,
        metrics,
        *,
        jobs: int = 1,
        max_inflight: int = 4,
        max_queue: int | None = None,
        max_finished_jobs: int = 1024,
        obs_dir: str | None = None,
    ):
        self.store = store
        self.metrics = metrics
        self.jobs = jobs
        self.obs_dir = obs_dir
        if max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if max_queue is not None and max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        #: Executor threads concurrently executing jobs.
        self.max_inflight = max_inflight
        #: Admitted-but-not-finished jobs allowed beyond ``max_inflight``
        #: (``None`` = unbounded, the pre-admission-control behaviour).
        self.max_queue = max_queue
        self._draining = False
        self._executing = 0
        self._counters_lock = threading.Lock()
        # Decayed mean job latency, feeding the Retry-After estimate.
        self._avg_job_seconds = 0.0
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-job"
        )
        self._inflight: dict[str, Job] = {}
        self._jobs: dict[str, Job] = {}
        self._pending_eval: dict[tuple, list[tuple[EvaluateRequest, Job]]] = {}
        self._max_finished_jobs = max_finished_jobs

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop the worker threads.

        Idempotent; safe after :meth:`drain`.  Does not wait for
        in-flight work — the graceful path is ``await drain()`` first.
        """
        self._draining = True
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def drain(self, timeout: float | None = None) -> dict:
        """Stop admitting, flush batches, and settle every in-flight job.

        New submissions shed with 503-style :class:`AdmissionError`
        immediately.  Pending evaluate batches flush now rather than
        on the event loop's next turn.  Jobs still unfinished after
        ``timeout`` seconds are marked ``cancelled`` (their executor
        futures are cancelled where still queued; a body already on a
        thread runs to completion but its result is discarded by the
        terminal-state guard).  Returns ``{"finished": n, "cancelled": n}``.
        """
        self._draining = True
        for signature in list(self._pending_eval):
            self._schedule_flush(signature)
        pending = [job for job in self._inflight.values() if not job.finished]
        if pending:
            waiters = [
                asyncio.ensure_future(job.wait()) for job in pending
            ]
            _done, not_done = await asyncio.wait(waiters, timeout=timeout)
            for waiter in not_done:
                waiter.cancel()
        cancelled = 0
        for job in list(self._inflight.values()):
            if not job.finished:
                job._cancel()
                cancelled += 1
                log_event(
                    "job_finished",
                    trace_id=job.trace_id,
                    job=job.id,
                    kind=job.kind,
                    name=job.name,
                    status=job.status,
                )
            self._inflight.pop(job.key, None)
        self._executor.shutdown(wait=False, cancel_futures=True)
        return {"finished": len(pending) - cancelled, "cancelled": cancelled}

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs submitted but not yet finished."""
        return len(self._inflight)

    @property
    def inflight_count(self) -> int:
        """Jobs currently executing on the worker threads."""
        return self._executing

    @property
    def queued_count(self) -> int:
        """Admitted jobs waiting for a worker thread."""
        return max(0, len(self._inflight) - self._executing)

    @property
    def admission_state(self) -> str:
        """``accepting`` | ``shedding`` | ``draining`` (for /healthz)."""
        if self._draining:
            return DRAINING
        if self._over_capacity():
            return SHEDDING
        return ACCEPTING

    def _over_capacity(self) -> bool:
        if self.max_queue is None:
            return False
        return len(self._inflight) >= self.max_queue + self.max_inflight

    def _retry_after(self) -> int:
        """Seconds until a queue slot plausibly frees up, clamped [1, 60].

        Little's-law flavoured estimate: occupancy times the decayed
        mean job latency, divided by the worker width.
        """
        if self._avg_job_seconds <= 0:
            return 1
        estimate = (
            len(self._inflight) * self._avg_job_seconds / self.max_inflight
        )
        return max(1, min(60, int(estimate + 0.5)))

    def _admit(self, kind: str) -> None:
        """Gate one new-work submission; raises when over capacity."""
        if self._draining:
            self.metrics.inc("admission_total", {"decision": "shed"})
            raise AdmissionError("server is draining", self._retry_after())
        if self._over_capacity():
            self.metrics.inc("admission_total", {"decision": "shed"})
            raise AdmissionError(
                f"queue full ({len(self._inflight)} jobs in flight, "
                f"max_queue={self.max_queue}, "
                f"max_inflight={self.max_inflight})",
                self._retry_after(),
            )
        self.metrics.inc("admission_total", {"decision": "accepted"})

    def _jobs_started(self, created_ats: list[float]) -> None:
        """Executor-thread entry bookkeeping: queue wait + inflight."""
        now = time.time()
        with self._counters_lock:
            self._executing += len(created_ats)
        for created_at in created_ats:
            self.metrics.observe(
                "queue_wait_seconds", max(0.0, now - created_at)
            )

    def _jobs_settled(self, jobs_settled: int, job_seconds: float) -> None:
        with self._counters_lock:
            self._executing = max(0, self._executing - jobs_settled)
            # EWMA with a 0.2 step: responsive to load shifts, stable
            # under jitter; feeds the Retry-After estimate only.
            if self._avg_job_seconds == 0.0:
                self._avg_job_seconds = job_seconds
            else:
                self._avg_job_seconds += 0.2 * (
                    job_seconds - self._avg_job_seconds
                )

    def get_job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        # Bound the finished-job ledger so a long-lived server doesn't
        # accumulate every job ever answered.
        if len(self._jobs) > self._max_finished_jobs:
            for stale_id, stale in list(self._jobs.items()):
                if stale.finished:
                    del self._jobs[stale_id]
                if len(self._jobs) <= self._max_finished_jobs:
                    break

    # -- submission ----------------------------------------------------

    def _coalesce(self, key: str) -> Job | None:
        job = self._inflight.get(key)
        if job is not None:
            job.coalesced += 1
            self.metrics.inc("jobs_coalesced_total")
            self.metrics.inc("admission_total", {"decision": "coalesced"})
        return job

    def _check_store(self, job: Job) -> bool:
        """Complete ``job`` from the result store if its key is present.

        Payload and rendering come from one read of the entry, so an
        entry evicted meanwhile by another process is a plain miss, never
        a payload without its rendering.
        """
        stored = self.store.lookup(job.key)
        if stored is None:
            self.metrics.inc("result_store_misses_total")
            return False
        self.metrics.inc("result_store_hits_total")
        # A store hit costs no compute, so it is always admitted — even
        # while shedding; that is what makes a warmed tier ride out
        # overload.
        self.metrics.inc("admission_total", {"decision": "store-hit"})
        job._complete(stored.payload_json, stored.rendering, "store")
        return True

    async def submit_experiment(
        self,
        name: str,
        settings: ExperimentSettings,
        trace_id: str | None = None,
    ) -> Job:
        """Submit one run of ``repro.experiments.<name>`` (single-flight
        per key).

        The module, and the simulator under it, is imported by a miss's
        executor thread, never for a store hit.
        """
        key = canonical_job_key("experiment", name, settings)
        existing = self._coalesce(key)
        if existing is not None:
            return existing
        job = Job(key, "experiment", name, trace_id=trace_id)
        self._register(job)
        self.metrics.inc("jobs_submitted_total", {"kind": "experiment"})
        if self._check_store(job):
            return job
        try:
            self._admit("experiment")
        except AdmissionError:
            # Shed before the job ever entered the queue; drop it from
            # the ledger so the 429'd request leaves no pending ghost.
            self._jobs.pop(job.id, None)
            raise
        self._inflight[key] = job
        job.status = RUNNING
        asyncio.ensure_future(self._run_experiment_job(job, name, settings))
        return job

    def _finish_manifest(self, recorder, extra: dict) -> str | None:
        """Write one run manifest under ``obs_dir`` (if configured)."""
        if self.obs_dir is None:
            return None
        # The serving process's pid keeps a job traceable to the server
        # that ran it when several share one obs directory.
        extra = {**extra, "pid": os.getpid()}
        manifest = build_manifest(recorder, extra=extra)
        return write_manifest(manifest, self.obs_dir)

    def _observe_span(self, record: dict) -> None:
        """Fold one finished span of a job this scheduler ran into ``/metrics``.

        Every job runs under :func:`repro.obs.tracing.run` with this as
        its ``on_span`` callback, and pool-worker spans arrive through
        :meth:`~repro.obs.tracing.RunRecorder.adopt`, so the span,
        phase, engine-dispatch and trace-cache series all count exactly
        this scheduler's work.
        """
        metrics = self.metrics
        metrics.observe(
            "span_seconds", record["wall_seconds"], {"span": record["name"]}
        )
        for name, seconds in record["phases"].items():
            metrics.observe("phase_seconds", seconds, {"phase": name})
        for engine, mechanisms in record["engine_dispatch"].items():
            for mechanism, count in mechanisms.items():
                metrics.inc(
                    "engine_dispatch_total",
                    {"mechanism": mechanism, "engine": engine},
                    count,
                )
        for event, count in record["trace_cache"].items():
            metrics.inc("trace_cache_lookups_total", {"result": event}, count)

    def _record_plan_stats(self, stats: dict | None) -> None:
        """Fold one executed plan's dedup counters into ``/metrics``."""
        if not stats:
            return
        self.metrics.inc("plan_cells_total", amount=stats["cells_total"])
        self.metrics.inc(
            "plan_cells_deduped_total",
            amount=stats["cells_total"] - stats["cells_unique"],
        )
        self.metrics.inc(
            "plan_inputs_shared_total", amount=stats["inputs_shared"]
        )
        self.metrics.inc(
            "plan_inputs_primed_total", amount=stats["inputs_primed"]
        )

    def _execute_experiment(
        self, job: Job, name: str, settings: ExperimentSettings
    ):
        """Executor-thread body of one experiment job, traced end to end.

        Runs on a worker thread (thread-locals do not cross
        ``run_in_executor``), so the recorder must be bound *here*, not
        on the event loop.
        """
        from repro.plan.executor import run_experiment

        self._jobs_started([job.created_at])
        started = time.perf_counter()
        try:
            module = importlib.import_module(f"repro.experiments.{name}")
            with tracing.run(
                name,
                trace_id=job.trace_id,
                on_span=self._observe_span,
                job=job.id,
                kind="experiment",
            ) as recorder:
                # Phase by phase, as ``repro experiment`` runs it: the
                # result is a store entry, so a repeat is a store hit.
                result, timing = run_experiment(
                    module, settings, self.jobs, name
                )
            self._record_plan_stats(timing["plan"])
        finally:
            self._jobs_settled(1, time.perf_counter() - started)
        manifest_path = self._finish_manifest(
            recorder,
            extra={
                "command": "serve",
                "kind": "experiment",
                "job": job.id,
                "key": job.key,
                "settings": settings_record(settings),
                "jobs": self.jobs,
            },
        )
        return result, timing, manifest_path

    def _publish(
        self, job: Job, payload: dict, rendering: str | None = None
    ) -> str:
        """Store a computed result; returns its JSON text either way.

        A store that cannot publish (a full disk, say) must not strand
        the job: its callers still get the result they waited for, and
        the failure is counted and logged.
        """
        try:
            return self.store.put(job.key, payload, rendering)
        except OSError as exc:
            self.metrics.inc("result_store_publish_failures_total")
            log_event(
                "result_publish_failed",
                trace_id=job.trace_id,
                job=job.id,
                error=str(exc),
            )
            return json.dumps(payload, sort_keys=True)

    async def _run_experiment_job(
        self, job: Job, name: str, settings: ExperimentSettings
    ) -> None:
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        try:
            result, timing, manifest_path = await loop.run_in_executor(
                self._executor, self._execute_experiment,
                job, name, settings,
            )
            payload = {
                "kind": "experiment",
                "name": name,
                "trace_id": job.trace_id,
                "settings": settings_record(settings),
                "wall_seconds": timing["wall_seconds"],
                "phase_totals": timing_record(timing)["phase_totals"],
            }
            rendering = result.render()
        except asyncio.CancelledError:
            # Shutdown cancelled the executor future before (or while)
            # the body ran; report the job cancelled, never silent.
            job._cancel()
            self._inflight.pop(job.key, None)
            return
        except Exception as exc:
            self.metrics.inc("jobs_failed_total", {"kind": "experiment"})
            job._fail(str(exc))
        else:
            job.manifest = manifest_path
            payload_json = self._publish(job, payload, rendering)
            self.metrics.inc("jobs_executed_total", {"kind": "experiment"})
            self.metrics.observe(
                "job_seconds",
                time.perf_counter() - start,
                {"kind": "experiment"},
            )
            job._complete(payload_json, rendering, "executed")
        finally:
            self._inflight.pop(job.key, None)
            log_event(
                "job_finished",
                trace_id=job.trace_id,
                job=job.id,
                kind="experiment",
                name=name,
                status=job.status,
                seconds=round(time.perf_counter() - start, 6),
                manifest=job.manifest,
            )

    async def submit_evaluate(
        self, request: EvaluateRequest, trace_id: str | None = None
    ) -> Job:
        """Submit one point evaluation (coalesced, then batched)."""
        key = request.key()
        existing = self._coalesce(key)
        if existing is not None:
            return existing
        job = Job(key, "evaluate", request.workload, trace_id=trace_id)
        self._register(job)
        self.metrics.inc("jobs_submitted_total", {"kind": "evaluate"})
        if self._check_store(job):
            return job
        try:
            self._admit("evaluate")
        except AdmissionError:
            self._jobs.pop(job.id, None)
            raise
        self._inflight[key] = job
        job.status = RUNNING
        signature = request.batch_signature
        pending = self._pending_eval.get(signature)
        if pending is None:
            # First request of this signature opens a batch; every
            # compatible request landing before the flush joins it.
            self._pending_eval[signature] = [(request, job)]
            asyncio.get_running_loop().call_soon(
                self._schedule_flush, signature
            )
        else:
            pending.append((request, job))
        return job

    def _schedule_flush(self, signature: tuple) -> None:
        asyncio.ensure_future(self._flush_evaluates(signature))

    async def _flush_evaluates(self, signature: tuple) -> None:
        batch = self._pending_eval.pop(signature, [])
        if not batch:
            return
        self.metrics.inc("eval_batches_total")
        self.metrics.observe("eval_batch_size", len(batch))
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        # The flush is one traced run: its trace id is the first job's
        # (a one-request batch — the common case — therefore carries the
        # requesting client's id), and the manifest's extra block lists
        # every coalesced request with its own trace id and key.
        requests_meta = [
            {"job": job.id, "trace_id": job.trace_id, "key": job.key}
            for _, job in batch
        ]
        requests = [request for request, _job in batch]
        try:
            groups, results, manifest_path = await loop.run_in_executor(
                self._executor, self._execute_eval_batch,
                requests,
                batch[0][1].trace_id, requests_meta,
                [job.created_at for _, job in batch],
            )
        except asyncio.CancelledError:
            for _, job in batch:
                job._cancel()
                self._inflight.pop(job.key, None)
            return
        except Exception as exc:
            for _, job in batch:
                self.metrics.inc("jobs_failed_total", {"kind": "evaluate"})
                job._fail(str(exc))
                self._inflight.pop(job.key, None)
                log_event(
                    "job_finished",
                    trace_id=job.trace_id,
                    job=job.id,
                    kind="evaluate",
                    name=job.name,
                    status=job.status,
                    error=str(exc),
                )
            return
        elapsed = time.perf_counter() - start
        for index, payload in evaluate_payloads(requests, groups, results):
            _, job = batch[index]
            job.manifest = manifest_path
            payload_json = self._publish(job, payload)
            self.metrics.inc("jobs_executed_total", {"kind": "evaluate"})
            job._complete(payload_json, None, "executed")
            self._inflight.pop(job.key, None)
            log_event(
                "job_finished",
                trace_id=job.trace_id,
                job=job.id,
                kind="evaluate",
                name=job.name,
                status=job.status,
                seconds=round(elapsed, 6),
                manifest=job.manifest,
            )
        self.metrics.observe("job_seconds", elapsed, {"kind": "evaluate"})

    def _execute_eval_batch(
        self,
        requests: list[EvaluateRequest],
        trace_id: str,
        requests_meta: list,
        created_ats: list[float],
    ):
        """Executor-thread body of one evaluate flush, traced end to end.

        Returns the request groups, one group cell's values per group,
        and the manifest path.
        """
        from repro.plan.executor import execute_cells

        self._jobs_started(created_ats)
        started = time.perf_counter()
        try:
            with tracing.run(
                "evaluate-batch",
                trace_id=trace_id,
                on_span=self._observe_span,
                batch_size=len(requests_meta),
            ) as recorder:
                # One cell per (workload, OS, engine): all of a workload's
                # requested points share one trace's streams and their
                # memoized masks, which stay cached for the next batch
                # (the trace's columns do not).
                groups, cells = evaluate_group_cells(requests)
                results, timing = execute_cells(
                    cells, self.jobs, label="evaluate-batch",
                    keep_inputs=True,
                )
            self._record_plan_stats(timing["plan"])
        finally:
            self._jobs_settled(
                len(created_ats), time.perf_counter() - started
            )
        manifest_path = self._finish_manifest(
            recorder,
            extra={
                "command": "serve",
                "kind": "evaluate",
                "requests": requests_meta,
                "jobs": self.jobs,
            },
        )
        return groups, results, manifest_path
