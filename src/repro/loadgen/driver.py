"""A closed-loop load driver over the serving tier's HTTP API.

``clients`` concurrent clients each issue the next request of the
shared stream as soon as their previous one completes.  Offered load
adapts to service rate; this is the throughput-measuring shape (and
the burst shape the admission-control tests use: many clients against
one executor thread).

Every request is recorded into a :class:`~repro.loadgen.stats.
LatencyRecorder` with its phase (warmup/measure), status, and
client-observed outcome, and carries the stream-derived
``X-Repro-Trace-Id`` so each generated request is traceable through the
server's logs, manifests and metrics.

The HTTP client is the same stdlib-asyncio framing the server speaks:
one keep-alive connection per client.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass

from repro.loadgen.stats import (
    ERROR,
    OK,
    SHED,
    LatencyRecorder,
    Sample,
    summarize,
)
from repro.loadgen.workload import Request, Workload

__all__ = ["LoadConfig", "LoadResult", "run_load"]


@dataclass(frozen=True)
class LoadConfig:
    """One load run's shape."""

    host: str = "127.0.0.1"
    port: int = 8765
    clients: int = 4              # concurrent clients
    warmup_seconds: float = 0.0
    duration_seconds: float = 5.0
    max_requests: int | None = None  # count-bounded run (tests/CI)
    timeout_seconds: float = 60.0


@dataclass
class LoadResult:
    """Recorder plus the wall-clock bounds of the measure phase."""

    recorder: LatencyRecorder
    measure_seconds: float

    def summary(self) -> dict:
        return summarize(self.recorder, self.measure_seconds)


class _Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def roundtrip(
        self, request: Request
    ) -> tuple[int, dict[str, str], bytes]:
        """One exchange; reconnects once on a stale keep-alive socket."""
        try:
            return await self._exchange(request)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await self.close()
            return await self._exchange(request)

    async def _exchange(
        self, request: Request
    ) -> tuple[int, dict[str, str], bytes]:
        await self._ensure()
        payload = json.dumps(request.body).encode("utf-8")
        head = (
            f"{request.method} {request.path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"X-Repro-Trace-Id: {request.trace_id}\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("ascii") + payload)
        await asyncio.wait_for(self._writer.drain(), self.timeout)
        status_line = await asyncio.wait_for(
            self._reader.readline(), self.timeout
        )
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(self._reader.readline(), self.timeout)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = (
            await asyncio.wait_for(self._reader.readexactly(length),
                                   self.timeout)
            if length else b""
        )
        return status, headers, body


def _classify(status: int) -> str:
    if status in (200, 202):
        return OK
    if status == 429:
        return SHED
    return ERROR


async def _issue(
    connection: _Connection,
    request: Request,
    recorder: LatencyRecorder,
    phase: str,
) -> None:
    start = time.perf_counter()
    try:
        status, headers, _body = await connection.roundtrip(request)
        retry_after = None
        if "retry-after" in headers:
            try:
                retry_after = float(headers["retry-after"])
            except ValueError:
                retry_after = None
        outcome = _classify(status)
    except (ConnectionError, OSError, asyncio.TimeoutError,
            asyncio.IncompleteReadError, ValueError, IndexError):
        status, retry_after, outcome = 0, None, ERROR
    recorder.record(
        Sample(
            index=request.index,
            started_at=start,
            latency=time.perf_counter() - start,
            status=status,
            outcome=outcome,
            phase=phase,
            retry_after=retry_after,
        )
    )


async def run_load_async(workload: Workload, config: LoadConfig) -> LoadResult:
    """Drive one load run on the current event loop."""
    recorder = LatencyRecorder()
    started = time.perf_counter()
    measure_start = started + config.warmup_seconds
    deadline = measure_start + config.duration_seconds
    issued = itertools.count()

    async def client() -> None:
        connection = _Connection(
            config.host, config.port, config.timeout_seconds
        )
        try:
            while True:
                now = time.perf_counter()
                if config.max_requests is not None:
                    if next(issued) >= config.max_requests:
                        break
                elif now >= deadline:
                    break
                request = workload.next_request()
                phase = "warmup" if now < measure_start else "measure"
                await _issue(connection, request, recorder, phase)
        finally:
            await connection.close()

    await asyncio.gather(
        *(client() for _ in range(max(1, config.clients)))
    )
    return LoadResult(
        recorder=recorder,
        measure_seconds=time.perf_counter() - measure_start,
    )


def run_load(workload: Workload, config: LoadConfig) -> LoadResult:
    """Blocking wrapper: drive one load run to completion."""
    return asyncio.run(run_load_async(workload, config))
