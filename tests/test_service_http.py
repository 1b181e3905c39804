"""End-to-end tests of the simulation server over real sockets.

The acceptance bar for the serving tier: submit the same experiment
twice concurrently — both callers get identical results while the
experiment executes exactly once (single-flight coalescing) — then
restart the server over the same store directory and observe the
repeat request answered from the persistent result store, with the hit
recorded in ``/metrics``.
"""

import asyncio
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import logs
from repro.obs.manifest import load_manifest
from repro.service.app import ServiceApp, start_service
from repro.service.http import Response, request_trace_id
from repro.service.store import ResultStore

EXPERIMENT_BODY = {"experiment": "table2", "instructions": 20_000, "wait": True}


async def _request(port, method, path, body=None, extra_headers=""):
    """One HTTP exchange against localhost:port; returns (status, bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Connection: close\r\nContent-Length: {len(payload)}\r\n"
        f"{extra_headers}\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    return int(head_part.split()[1]), body_part


async def _json_request(port, method, path, body=None):
    status, raw = await _request(port, method, path, body)
    return status, json.loads(raw)


class _Server:
    """One in-process server bound to an ephemeral port."""

    def __init__(self, store_root, **app_kwargs):
        self.app = ServiceApp(store=ResultStore(store_root), **app_kwargs)
        self.server = None
        self.port = None

    async def __aenter__(self):
        self.server = await start_service(self.app, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()
        self.app.close()


class TestEndToEnd:
    def test_coalescing_then_restart_hits_store(self, tmp_path):
        """The ISSUE's acceptance scenario, wire to wire."""
        store_root = tmp_path / "results"

        async def first_generation():
            async with _Server(store_root) as served:
                (s1, job1), (s2, job2) = await asyncio.gather(
                    _json_request(
                        served.port, "POST", "/v1/experiments", EXPERIMENT_BODY
                    ),
                    _json_request(
                        served.port, "POST", "/v1/experiments", EXPERIMENT_BODY
                    ),
                )
                assert s1 == 200 and s2 == 200
                # Both callers saw the same job and identical results.
                assert job1["id"] == job2["id"]
                assert job1["key"] == job2["key"]
                assert job1["result"] == job2["result"]
                assert job1["source"] == "executed"
                metrics = served.app.metrics
                assert metrics.counter_value(
                    "jobs_executed_total", {"kind": "experiment"}) == 1
                assert metrics.counter_value("jobs_coalesced_total") == 1
                _, rendering = await _request(
                    served.port, "GET", f"/v1/jobs/{job1['id']}/result"
                )
                return job1, rendering

        async def second_generation(first_job, first_rendering):
            # Fresh app + store over the same directory = cold restart.
            async with _Server(store_root) as served:
                status, job = await _json_request(
                    served.port, "POST", "/v1/experiments", EXPERIMENT_BODY
                )
                assert status == 200
                assert job["status"] == "done"
                assert job["source"] == "store"
                assert job["key"] == first_job["key"]
                _, rendering = await _request(
                    served.port, "GET", f"/v1/jobs/{job['id']}/result"
                )
                assert rendering == first_rendering
                # The hit is visible on the metrics endpoint.
                _, metrics_text = await _request(
                    served.port, "GET", "/metrics"
                )
                assert (
                    b"repro_result_store_hits_total 1" in metrics_text
                )
                assert served.app.metrics.counter_value(
                    "jobs_executed_total", {"kind": "experiment"}) == 0

        job, rendering = asyncio.run(first_generation())
        assert b"Table 2" in rendering
        asyncio.run(second_generation(job, rendering))

    def test_store_hits_serve_the_stored_bytes(self, tmp_path):
        """A hit splices the stored result text into its response, and
        the body is byte for byte what encoding the decoded job record
        gives."""
        store_root = tmp_path / "results"
        evaluate_body = {"workload": "gcc", "instructions": 20_000,
                         "wait": True}
        posts = [
            ("/v1/experiments", EXPERIMENT_BODY),
            ("/v1/evaluate", evaluate_body),
        ]

        async def fill():
            async with _Server(store_root) as served:
                for path, body in posts:
                    status, job = await _json_request(
                        served.port, "POST", path, body
                    )
                    assert status == 200 and job["source"] == "executed"

        async def hit():
            async with _Server(store_root) as served:
                answers = []
                for path, body in posts:
                    status, raw = await _request(
                        served.port, "POST", path, body
                    )
                    job = json.loads(raw)
                    _, result = await _request(
                        served.port, "GET", f"/v1/jobs/{job['id']}/result"
                    )
                    answers.append((status, raw, job, result))
                return answers

        asyncio.run(fill())
        (_, experiment_raw, experiment, rendering), (
            _, evaluate_raw, evaluate, result
        ) = asyncio.run(hit())
        for raw, job in ((experiment_raw, experiment),
                         (evaluate_raw, evaluate)):
            assert job["source"] == "store"
            assert raw == (json.dumps(job, sort_keys=True) + "\n").encode()
            stored = (store_root / job["key"] / "meta.json").read_bytes()
            assert b'"result": ' + stored + b", " in raw
        assert b"Table 2" in rendering
        stored = (store_root / evaluate["key"] / "meta.json").read_bytes()
        assert result == stored + b"\n"
        assert json.loads(result) == evaluate["result"]

    def test_evaluate_and_poll(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                status, job = await _json_request(
                    served.port, "POST", "/v1/evaluate",
                    {"workload": "gcc", "instructions": 20_000},
                )
                assert status in (200, 202)
                job_id = job["id"]
                for _ in range(600):
                    status, job = await _json_request(
                        served.port, "GET", f"/v1/jobs/{job_id}"
                    )
                    if job["status"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.05)
                assert job["status"] == "done"
                assert job["result"]["metrics"]["cpi_instr"] > 1.0
                status, record = await _json_request(
                    served.port, "GET", f"/v1/jobs/{job_id}/result"
                )
                assert status == 200
                assert record["kind"] == "evaluate"

        asyncio.run(body())

    def test_healthz_reports_versions(self, tmp_path):
        import os

        from repro import package_version
        from repro.experiments.settings import MODEL_VERSION
        from repro.workloads.generator import GENERATOR_VERSION

        async def body():
            async with _Server(tmp_path / "results") as served:
                status, record = await _json_request(
                    served.port, "GET", "/healthz"
                )
                assert status == 200
                assert record["status"] == "ok"
                assert record["version"] == package_version()
                assert record["generator_version"] == GENERATOR_VERSION
                assert record["model_version"] == MODEL_VERSION
                assert record["pid"] == os.getpid()
                assert record["store"]["persistent"] is True
                assert record["queue_depth"] == 0

        asyncio.run(body())

    def test_results_inventory_endpoint(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                await _json_request(
                    served.port, "POST", "/v1/experiments", EXPERIMENT_BODY
                )
                status, record = await _json_request(
                    served.port, "GET", "/v1/results"
                )
                assert status == 200
                assert record["entry_count"] == 1
                assert record["entries"][0]["kind"] == "experiment"

        asyncio.run(body())

    def test_trace_cache_and_synthesis_observability(self, tmp_path):
        """A cold evaluate shows up as a synthesized trace-cache lookup,
        a synthesis-phase latency observation, and the cache-size gauges
        on ``/metrics``."""
        from repro.workloads.registry import clear_trace_cache

        async def body():
            async with _Server(tmp_path / "results") as served:
                clear_trace_cache()
                status, _ = await _json_request(
                    served.port, "POST", "/v1/evaluate",
                    {"workload": "gcc", "instructions": 20_000, "wait": True},
                )
                assert status == 200
                metrics = served.app.metrics
                assert metrics.counter_value(
                    "trace_cache_lookups_total", {"result": "synthesized"}
                ) >= 1
                histograms = metrics.to_dict()["histograms"]
                synthesis = [
                    series
                    for series in histograms.get("phase_seconds", [])
                    if series["labels"].get("phase") == "synthesize"
                ]
                assert synthesis and synthesis[0]["count"] >= 1
                _, text = await _request(served.port, "GET", "/metrics")
                assert b"repro_trace_cache_lookups_total" in text
                assert b"repro_trace_cache_entries" in text
                assert b"repro_line_order_cache_entries" in text
                assert b"repro_line_order_cache_bytes" in text
                assert b"repro_line_order_cache_evictions" in text
                # The evaluate's fetch simulation is dispatched to an
                # engine, and that decision is a labelled counter.
                assert b"repro_engine_dispatch_total" in text
                assert b'engine="vectorized"' in text

        asyncio.run(body())

    def test_metrics_json_format(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                await _request(served.port, "GET", "/healthz")
                status, record = await _json_request(
                    served.port, "GET", "/metrics?format=json"
                )
                assert status == 200
                assert "counters" in record and "gauges" in record

        asyncio.run(body())


async def _request_full(port, method, path, body=None, extra_headers=""):
    """Like ``_request`` but also returns the parsed response headers."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Connection: close\r\nContent-Length: {len(payload)}\r\n"
        f"{extra_headers}\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head_part, _, body_part = raw.partition(b"\r\n\r\n")
    lines = head_part.decode().split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body_part


class TestSplicedJson:
    @settings(max_examples=200, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(max_size=6),
            st.recursive(
                st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=8),
                lambda children: st.lists(children, max_size=3)
                | st.dictionaries(st.text(max_size=4), children, max_size=3),
                max_leaves=8,
            ),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_splice_encodes_like_the_whole_record(self, payload, data):
        name = data.draw(st.sampled_from(sorted(payload)))
        rest = {key: value for key, value in payload.items() if key != name}
        spliced = Response.from_json(
            rest, splice=(name, json.dumps(payload[name], sort_keys=True))
        )
        assert spliced.body == Response.from_json(payload).body


class TestTraceIds:
    def test_request_trace_id_sanitization(self):
        assert request_trace_id({"x-repro-trace-id": "client-abc_123"}) == \
            "client-abc_123"
        # Malformed or oversized inbound ids are replaced, not honored.
        for bad in ("bad\nid", "a b", "x" * 200, ""):
            assigned = request_trace_id({"x-repro-trace-id": bad})
            assert assigned != bad
            assert len(assigned) == 32
        assert len(request_trace_id({})) == 32

    def test_trace_id_propagates_to_job_log_and_manifest(self, tmp_path):
        """A served request's trace id shows up on the response header,
        the job record, the structured log lines, and the job's run
        manifest (the ISSUE's serving-tier acceptance)."""
        obs_dir = tmp_path / "obs"
        stream = io.StringIO()
        logs.configure(stream)
        try:
            async def body():
                async with _Server(
                    tmp_path / "results", obs_dir=str(obs_dir)
                ) as served:
                    status, headers, raw = await _request_full(
                        served.port, "POST", "/v1/experiments",
                        EXPERIMENT_BODY,
                        extra_headers="X-Repro-Trace-Id: client-abc-123\r\n",
                    )
                    assert status == 200
                    assert headers["x-repro-trace-id"] == "client-abc-123"
                    return json.loads(raw)

            job = asyncio.run(body())
        finally:
            logs.configure(None)
        assert job["trace_id"] == "client-abc-123"
        # The scheduler wrote the job's manifest under obs_dir, keyed by
        # the same trace id, with the executed cells re-parented into it.
        manifest = load_manifest(job["manifest"])
        assert manifest["trace_id"] == "client-abc-123"
        assert manifest["cells"]
        span_ids = {span["span_id"] for span in manifest["spans"]}
        for span in manifest["spans"]:
            assert span["trace_id"] == "client-abc-123"
            if span["parent_id"] is not None:
                assert span["parent_id"] in span_ids
        # Structured log lines for the request and the job share the id.
        events = [json.loads(line) for line in
                  stream.getvalue().splitlines()]
        by_event = {record["event"]: record for record in events}
        assert by_event["http_request"]["trace_id"] == "client-abc-123"
        assert by_event["http_request"]["path"] == "/v1/experiments"
        assert by_event["job_finished"]["trace_id"] == "client-abc-123"
        assert by_event["job_finished"]["status"] == "done"

    def test_malformed_inbound_id_is_replaced(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                status, headers, _ = await _request_full(
                    served.port, "GET", "/healthz",
                    extra_headers="X-Repro-Trace-Id: bad id!\r\n",
                )
                assert status == 200
                assigned = headers["x-repro-trace-id"]
                assert assigned != "bad id!"
                assert len(assigned) == 32

        asyncio.run(body())

    def test_span_latency_exported_on_metrics(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                await _json_request(
                    served.port, "POST", "/v1/experiments", EXPERIMENT_BODY
                )
                _, text = await _request(served.port, "GET", "/metrics")
                assert b"# HELP repro_span_seconds " in text
                assert b"# TYPE repro_span_seconds histogram" in text
                assert b'repro_span_seconds_bucket{span="cell"' in text

        asyncio.run(body())


class TestErrorPaths:
    def test_errors(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                port = served.port
                status, record = await _json_request(port, "GET", "/nope")
                assert status == 404

                for name in ("table99", "ext_prefetch"):
                    status, record = await _json_request(
                        port, "POST", "/v1/experiments", {"experiment": name}
                    )
                    assert status == 400
                    assert "unknown experiment" in record["error"]

                status, record = await _json_request(
                    port, "POST", "/v1/evaluate", {"workload": "zzz"}
                )
                assert status == 400

                status, record = await _json_request(
                    port, "POST", "/v1/evaluate",
                    {"workload": "gcc", "config": "turbo"},
                )
                assert status == 400
                assert "unknown config" in record["error"]

                status, record = await _json_request(
                    port, "POST", "/v1/experiments",
                    {"experiment": "table2", "instructions": -5},
                )
                assert status == 400

                status, record = await _json_request(
                    port, "GET", "/v1/jobs/not-a-job"
                )
                assert status == 404

                # Malformed JSON body.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b"POST /v1/experiments HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\nContent-Length: 5\r\n\r\n{oops"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b" 400 " in raw.split(b"\r\n", 1)[0]

        asyncio.run(body())

    def test_keep_alive_serves_two_requests(self, tmp_path):
        async def body():
            async with _Server(tmp_path / "results") as served:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", served.port
                )
                one = (
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 0\r\n\r\n"
                )
                writer.write(one + one)
                await writer.drain()
                # Two complete responses arrive on the one connection.
                data = b""
                while data.count(b'"status": "ok"') < 2:
                    chunk = await asyncio.wait_for(reader.read(4096), 5)
                    if not chunk:
                        break
                    data += chunk
                assert data.count(b'"status": "ok"') == 2
                writer.close()

        asyncio.run(body())
