"""The simulation server: routing, lifecycle, and the serve loop.

``python -m repro serve --port N`` turns the library into a long-running
HTTP/JSON service.  Request flow::

    client ──HTTP──▶ ServiceApp ──▶ JobScheduler ──▶ runner.pool
                        │               │
                        │               ├── single-flight coalescing
                        │               └── ResultStore (content-addressed)
                        └── ServiceMetrics (/metrics, /healthz)

Endpoints:

* ``POST /v1/experiments`` — body ``{"experiment": "table5",
  "instructions"?, "seed"?, "wait"?}``; returns the job record (``202``
  while running, ``200`` when done with ``"wait": true``).
* ``POST /v1/evaluate`` — body ``{"workload", "os"?, "config"?,
  "mechanism"?, "instructions"?, "seed"?, "engine"?, "wait"?}``
  (``engine``: ``auto`` | ``reference`` | ``vectorized``).
* ``GET /v1/jobs/<id>`` — poll a job; ``GET /v1/jobs/<id>/result`` —
  the rendered table (experiments) or result JSON (evaluations).
* ``GET /v1/results`` — result-store inventory.
* ``GET /metrics`` — Prometheus text (``?format=json`` for JSON).
* ``GET /healthz`` — liveness, versions, pid, store/queue state.

One process serves; ``--jobs`` widens the pool its misses run on.  The
result store is safe to share with ``repro warm`` or a second server
over the same directory (see :mod:`repro.service.store`).
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from http import HTTPStatus

# The server answers /healthz, /metrics and store hits from numpy-free
# modules alone; the simulator loads on the first miss, on an executor
# thread (see repro.service.scheduler).
from repro import package_version
from repro.experiments import EXTENSION_STUDIES, PAPER_EXPERIMENTS
from repro.experiments.settings import MODEL_VERSION, ExperimentSettings
from repro.fetch.dispatch import ENGINES, MECHANISMS
from repro.obs.logs import log_event
from repro.service.http import (
    HttpError,
    Request,
    Response,
    read_request,
    request_trace_id,
)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    CONFIGS,
    AdmissionError,
    EvaluateRequest,
    JobScheduler,
)
from repro.service.store import ResultStore
from repro.workloads.params import GENERATOR_VERSION
from repro.workloads.suites import DEFAULT_TRACE_INSTRUCTIONS, get_workload

#: Default bind for ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765


def _loaded_cache_stats() -> tuple[dict, dict]:
    """Trace-cache and line-order-cache stats, without loading either.

    A cache module that never loaded has cached nothing, so it reports
    zeros instead of being imported (with numpy) just to say so.
    """
    # A module another thread is still importing sits in sys.modules
    # before its body has run, so the stats function may not exist yet;
    # such a module has cached nothing either.
    trace_cache_stats = getattr(
        sys.modules.get("repro.workloads.registry"), "trace_cache_stats", None
    )
    order_cache_stats = getattr(
        sys.modules.get("repro.caches.vectorized"), "order_cache_stats", None
    )
    traces = (
        trace_cache_stats() if trace_cache_stats is not None
        else {"entries": 0, "resident_bytes": 0}
    )
    order = (
        order_cache_stats() if order_cache_stats is not None
        else {"entries": 0, "bytes": 0, "evictions": 0}
    )
    return traces, order


def _endpoint_label(method: str, path: str) -> str:
    """Collapse per-job paths so metrics cardinality stays bounded."""
    if path.startswith("/v1/jobs/"):
        path = "/v1/jobs/*" + ("/result" if path.endswith("/result") else "")
    return f"{method} {path}"


class ServiceApp:
    """Routes requests onto the scheduler, store, and metrics registry."""

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        metrics: ServiceMetrics | None = None,
        scheduler: JobScheduler | None = None,
        jobs: int = 1,
        max_inflight: int = 4,
        max_queue: int | None = None,
        obs_dir: str | None = None,
    ):
        self.metrics = metrics or ServiceMetrics()
        self.store = store if store is not None else ResultStore(None)
        self.scheduler = scheduler or JobScheduler(
            self.store, self.metrics, jobs=jobs,
            max_inflight=max_inflight, max_queue=max_queue, obs_dir=obs_dir,
        )
        self.started_at = time.time()
        #: Open client transports (writer -> mid-request flag), so
        #: shutdown can unblock idle keep-alive handlers without
        #: cutting off an in-flight response
        #: (see :func:`_graceful_shutdown`).
        self._connections: dict = {}
        self._closing = False

    def close(self) -> None:
        self.scheduler.close()

    def abort_connections(self) -> None:
        """Unblock every connection handler so they all exit.

        Handlers parked in ``read_request`` on an idle keep-alive
        connection only wake on EOF, so their transports are closed
        outright.  A handler mid-request keeps its transport — its
        response (e.g. the ``cancelled`` verdict of a drained job)
        must still reach the client — and exits after writing it, via
        the ``_closing`` flag, instead of looping back to read.
        """
        self._closing = True
        for writer, busy in list(self._connections.items()):
            if not busy:
                writer.close()

    async def shutdown(self, timeout: float | None = 30.0) -> dict:
        """Graceful stop: drain the scheduler, then release resources.

        In-flight jobs get ``timeout`` seconds to finish; stragglers are
        reported ``cancelled``.  Returns the drain tally.
        """
        tally = await self.scheduler.drain(timeout=timeout)
        self.scheduler.close()
        return tally

    # -- connection handling -------------------------------------------

    async def handle_connection(self, reader, writer) -> None:
        """Serve one client connection (keep-alive loop)."""
        self._connections[writer] = False
        try:
            while True:
                try:
                    request = await read_request(reader)
                except asyncio.CancelledError:
                    # Shutdown cancels a handler idle between requests.
                    # There is nothing to answer, so the handler ends
                    # normally (the finally clause closes the writer)
                    # instead of re-raising: on Python 3.11 the done
                    # callback asyncio.start_server puts on this task
                    # calls task.exception(), which raises for a
                    # cancelled task and is logged as an ERROR.  A
                    # handler mid-request is not waiting here; it
                    # keeps the drain behaviour.
                    break
                except HttpError as exc:
                    writer.write(Response.error(exc.status, exc.message).encode())
                    await writer.drain()
                    break
                if request is None:
                    break
                self._connections[writer] = True
                response = await self.dispatch(request)
                writer.write(response.encode())
                await writer.drain()
                self._connections[writer] = False
                if self._closing or not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def dispatch(self, request: Request) -> Response:
        """Route one request, recording request/response metrics.

        Every request gets a trace id — the inbound
        ``X-Repro-Trace-Id`` header when the client sent a sane one,
        server-assigned otherwise — which is echoed on the response,
        threaded into any job the request starts, and keyed into the
        structured request log line.
        """
        trace_id = request_trace_id(request.headers)
        self.metrics.inc(
            "requests_total",
            {"endpoint": _endpoint_label(request.method, request.path)},
        )
        start = time.perf_counter()
        try:
            response = await self._route(request, trace_id)
        except HttpError as exc:
            response = Response.error(exc.status, exc.message)
        except AdmissionError as exc:
            # Overload is answered, not dropped: 429 plus a Retry-After
            # hint derived from the scheduler's service-time estimate.
            response = Response.error(
                HTTPStatus.TOO_MANY_REQUESTS, str(exc)
            )
            response.headers = response.headers + (
                ("Retry-After", str(exc.retry_after)),
            )
        except Exception as exc:  # noqa: BLE001 - the server must answer
            response = Response.error(
                HTTPStatus.INTERNAL_SERVER_ERROR,
                f"{type(exc).__name__}: {exc}",
            )
        elapsed = time.perf_counter() - start
        response.headers = response.headers + (
            ("X-Repro-Trace-Id", trace_id),
        )
        self.metrics.inc("responses_total", {"status": str(response.status)})
        self.metrics.observe("request_seconds", elapsed)
        log_event(
            "http_request",
            trace_id=trace_id,
            method=request.method,
            path=request.path,
            status=response.status,
            seconds=round(elapsed, 6),
        )
        return response

    async def _route(self, request: Request, trace_id: str) -> Response:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return self._healthz()
        if path == "/metrics" and method == "GET":
            return self._metrics(request)
        if path == "/v1/experiments" and method == "POST":
            return await self._post_experiment(request, trace_id)
        if path == "/v1/evaluate" and method == "POST":
            return await self._post_evaluate(request, trace_id)
        if path == "/v1/results" and method == "GET":
            return Response.from_json(self.store.describe())
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._get_job(path)
        raise HttpError(HTTPStatus.NOT_FOUND, f"no route for {method} {path}")

    # -- endpoints -----------------------------------------------------

    def _healthz(self) -> Response:
        """Liveness plus admission state, so a load generator (or CI)
        can detect overload without inferring it from 429 rates.

        ``status`` is pure liveness and stays ``ok`` even while
        shedding or draining — external health checks matching
        ``"status": "ok"`` must not flap under transient overload.
        The admission state lives in the ``admission`` object.
        """
        scheduler = self.scheduler
        return Response.from_json({
            "status": "ok",
            "version": package_version(),
            "generator_version": GENERATOR_VERSION,
            "model_version": MODEL_VERSION,
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": scheduler.queue_depth,
            "pid": os.getpid(),
            "admission": {
                "state": scheduler.admission_state,
                "queued": scheduler.queued_count,
                "inflight": scheduler.inflight_count,
                "max_queue": scheduler.max_queue,
                "max_inflight": scheduler.max_inflight,
            },
            "store": {
                "persistent": self.store.persistent,
                "root": self.store.root,
                "entries": len(self.store),
                "bytes": self.store.current_bytes,
            },
        })

    def _metrics(self, request: Request) -> Response:
        self.metrics.set_gauge("queue_depth", self.scheduler.queue_depth)
        self.metrics.set_gauge("inflight_jobs", self.scheduler.inflight_count)
        self.metrics.set_gauge("queued_jobs", self.scheduler.queued_count)
        self.metrics.set_gauge("result_store_entries", len(self.store))
        self.metrics.set_gauge("result_store_bytes", self.store.current_bytes)
        self.metrics.set_gauge("result_store_dropped", self.store.dropped)
        traces, order = _loaded_cache_stats()
        self.metrics.set_gauge("trace_cache_entries", traces["entries"])
        self.metrics.set_gauge(
            "trace_cache_resident_bytes", traces["resident_bytes"]
        )
        # The line-run streams kept across evaluate batches; a registry
        # not loaded yet reports only the trace figures (all zero).
        self.metrics.set_gauge(
            "trace_cache_stream_entries", traces.get("stream_entries", 0)
        )
        self.metrics.set_gauge(
            "trace_cache_stream_bytes", traces.get("stream_bytes", 0)
        )
        # The process-global line-order memo (caches/vectorized):
        # bounded, but worth watching on a long-lived server.
        self.metrics.set_gauge("line_order_cache_entries", order["entries"])
        self.metrics.set_gauge("line_order_cache_bytes", order["bytes"])
        self.metrics.set_gauge(
            "line_order_cache_evictions", order["evictions"]
        )
        if request.query.get("format") == "json":
            return Response.from_json(self.metrics.to_dict())
        return Response.from_text(
            self.metrics.render_prometheus(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def _settings_from(self, payload: dict) -> ExperimentSettings:
        try:
            n_instructions = int(
                payload.get("instructions", DEFAULT_TRACE_INSTRUCTIONS)
            )
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise HttpError(
                HTTPStatus.BAD_REQUEST, f"bad settings: {exc}"
            ) from exc
        if n_instructions <= 0:
            raise HttpError(
                HTTPStatus.BAD_REQUEST, "instructions must be positive"
            )
        engine = payload.get("engine", "auto")
        if engine not in ENGINES:
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                f"unknown engine {engine!r}; expected one of {ENGINES}",
            )
        return ExperimentSettings(
            n_instructions=n_instructions, seed=seed, engine=engine
        )

    @staticmethod
    def _job_response(job, wait: bool) -> Response:
        status = HTTPStatus.OK if job.finished else HTTPStatus.ACCEPTED
        if job.status == "failed":
            status = HTTPStatus.INTERNAL_SERVER_ERROR
        if job.result_json is None:
            return Response.from_json(job.to_dict(), status)
        # The stored result text goes in verbatim.
        return Response.from_json(
            job.to_dict(), status, splice=("result", job.result_json)
        )

    async def _post_experiment(
        self, request: Request, trace_id: str
    ) -> Response:
        payload = request.json()
        name = payload.get("experiment")
        names = PAPER_EXPERIMENTS + EXTENSION_STUDIES
        if not name or name not in names:
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                f"unknown experiment {name!r}; available: "
                f"{', '.join(names)}",
            )
        settings = self._settings_from(payload)
        job = await self.scheduler.submit_experiment(
            name, settings, trace_id=trace_id
        )
        if payload.get("wait"):
            await job.wait()
        return self._job_response(job, bool(payload.get("wait")))

    async def _post_evaluate(
        self, request: Request, trace_id: str
    ) -> Response:
        payload = request.json()
        workload = payload.get("workload")
        os_name = payload.get("os", "mach3")
        config_name = payload.get("config", "economy")
        mechanism = payload.get("mechanism", "demand")
        if not workload:
            raise HttpError(HTTPStatus.BAD_REQUEST, "workload is required")
        try:
            get_workload(workload, os_name)
        except KeyError as exc:
            raise HttpError(HTTPStatus.BAD_REQUEST, str(exc)) from exc
        if config_name not in CONFIGS:
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                f"unknown config {config_name!r}; expected one of {CONFIGS}",
            )
        if mechanism not in MECHANISMS:
            raise HttpError(
                HTTPStatus.BAD_REQUEST,
                f"unknown mechanism {mechanism!r}; expected one of "
                f"{MECHANISMS}",
            )
        job = await self.scheduler.submit_evaluate(
            EvaluateRequest(
                workload=workload,
                os_name=os_name,
                config_name=config_name,
                mechanism=mechanism,
                settings=self._settings_from(payload),
            ),
            trace_id=trace_id,
        )
        if payload.get("wait"):
            await job.wait()
        return self._job_response(job, bool(payload.get("wait")))

    def _get_job(self, path: str) -> Response:
        remainder = path[len("/v1/jobs/"):]
        want_result = remainder.endswith("/result")
        job_id = remainder[: -len("/result")] if want_result else remainder
        job = self.scheduler.get_job(job_id)
        if job is None:
            raise HttpError(HTTPStatus.NOT_FOUND, f"unknown job {job_id!r}")
        if not want_result:
            return self._job_response(job, wait=False)
        if not job.finished:
            return Response.from_json(job.to_dict(), HTTPStatus.ACCEPTED)
        if job.status == "failed":
            raise HttpError(HTTPStatus.INTERNAL_SERVER_ERROR, job.error or "")
        if job.rendering is not None:
            return Response.from_text(job.rendering)
        return Response.from_json_text(job.result_json)


async def start_service(
    app: ServiceApp,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
):
    """Bind and return the asyncio server (``port=0`` → ephemeral)."""
    return await asyncio.start_server(app.handle_connection, host, port)


async def _graceful_shutdown(
    servers, app: ServiceApp, drain_timeout: float | None = 30.0
) -> dict:
    """Stop accepting, drain the scheduler, then settle connections.

    Ordering matters on Python >= 3.12.1, where ``Server.wait_closed``
    waits for every connection *handler* to finish: handlers blocked in
    ``await job.wait()`` only unblock when the drain settles their
    jobs, and idle keep-alive handlers only unblock when their
    transports close.  So the drain runs *before* ``wait_closed``, the
    remaining transports are closed, and the final wait is bounded —
    the shutdown path can never hang past its timeouts.
    """
    for server in servers:  # no new connections; handlers keep running
        server.close()
    tally = await app.shutdown(timeout=drain_timeout)
    app.abort_connections()
    for server in servers:
        try:
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:  # pragma: no cover - defensive bound
            pass
    return tally


async def _serve_forever(
    app: ServiceApp,
    host: str,
    port: int,
    drain_timeout: float = 30.0,
) -> None:
    """Serve until SIGINT/SIGTERM, then drain before exiting.

    The stop signal closes the listening socket first (no new
    connections), then drains the scheduler: in-flight jobs get
    ``drain_timeout`` seconds to finish; stragglers report
    ``cancelled``.  ``/healthz`` shows ``draining`` for the duration.
    """
    import signal

    server = await start_service(app, host, port)
    bound = server.sockets[0].getsockname()
    pid = os.getpid()
    print(
        f"repro serve: listening on http://{bound[0]}:{bound[1]} "
        f"(pid {pid})",
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix event loop: KeyboardInterrupt path below
    try:
        serve_task = asyncio.ensure_future(server.serve_forever())
        await stop.wait()
        print(f"repro serve: draining (pid {pid})", flush=True)
        serve_task.cancel()
        tally = await _graceful_shutdown([server], app, drain_timeout)
        print(
            f"repro serve: drained ({tally['finished']} finished, "
            f"{tally['cancelled']} cancelled)",
            flush=True,
        )
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


def run_service(
    *,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    store: ResultStore | None = None,
    jobs: int = 1,
    max_inflight: int = 4,
    max_queue: int | None = None,
    drain_timeout: float = 30.0,
    obs_dir: str | None = None,
) -> int:
    """Blocking entry point behind ``repro serve``."""
    app = ServiceApp(
        store=store, jobs=jobs,
        max_inflight=max_inflight, max_queue=max_queue, obs_dir=obs_dir,
    )
    try:
        asyncio.run(_serve_forever(app, host, port, drain_timeout))
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        app.close()
    return 0
