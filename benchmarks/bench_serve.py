"""Serving-tier throughput benchmark (the ``BENCH_serve.json`` gate).

End-to-end shape of the serving story:

1. **Warm** — pre-compute the evaluate grid for one suite into the
   result store (:mod:`repro.service.warm`), so the measured traffic is
   the steady-state store-hit path, not simulation.
2. **Serve** — launch ``python -m repro serve`` as a real subprocess
   over the same cache directory and wait for ``/healthz``.
3. **Drive** — run a single-client *reference* pass, then the seeded
   closed-loop Zipf stream over that grid (:mod:`repro.loadgen`), and
   record throughput + p50/p95/p99/p999 plus the concurrency speedup
   (concurrent ÷ single-client req/s) to the ``BENCH_serve.json``
   trajectory.
4. **Stop** — SIGTERM the server and require a clean graceful-drain
   exit; a hung or crashed shutdown fails the benchmark.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_serve.py
        [--suite ibs-mach3] [--instructions 20000] [--clients 4]
        [--requests 200] [--out BENCH_serve.json] [--min-speedup 0.8]

``--min-speedup`` gates the fresh ``concurrency_speedup`` against a
fixed floor (default 0.8x: concurrency must never collapse throughput
below 80% of the serial reference).  Both sides of the ratio are
measured within this run on this machine, so the gate holds on any
runner hardware — unlike absolute req/s, which is machine-dependent and
is recorded for trend-reading only, never gated across machines.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.loadgen import report as lg_report
from repro.loadgen.driver import LoadConfig, run_load
from repro.loadgen.workload import Workload
from repro.experiments.common import ExperimentSettings
from repro.service.store import ResultStore
from repro.service.warm import warm_plan, warm_store
from repro.workloads.registry import suite_workloads

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_healthy(port: int, timeout: float = 30.0) -> None:
    deadline = time.time() + timeout
    url = f"http://127.0.0.1:{port}/healthz"
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=2) as response:
                if response.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.1)
    raise RuntimeError(f"server on port {port} never became healthy")


def _launch_server(args, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro",
            "--instructions", str(args.instructions),
            "--seed", str(args.seed),
            "--cache-dir", str(args.cache_dir),
            "serve", "--port", str(port),
            "--max-inflight", "4", "--max-queue", "256",
        ],
        env=env,
    )


def _stop_server(server: subprocess.Popen) -> bool:
    """SIGTERM and require a clean drain; True when the stop was clean."""
    server.send_signal(signal.SIGTERM)
    try:
        returncode = server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        print("server did not drain within 30s of SIGTERM", file=sys.stderr)
        return False
    if returncode != 0:
        print(f"server exited {returncode} on SIGTERM (expected 0)",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="ibs-mach3")
    parser.add_argument("--instructions", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the warm phase")
    parser.add_argument("--cache-dir", default=".repro-cache")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--reference-requests", type=int, default=None,
                        help="requests in the single-client reference "
                        "pass (default: half of --requests)")
    parser.add_argument("--warmup-requests", type=int, default=0)
    parser.add_argument("--skew", choices=["zipf", "uniform"],
                        default="zipf")
    parser.add_argument("--theta", type=float, default=0.99)
    parser.add_argument("--stream-seed", type=int, default=0)
    parser.add_argument("--benchmark", default="serve_closed_grid")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--min-speedup", type=float, default=0.8,
                        help="fail when concurrent throughput falls "
                        "below this fraction of the same-run "
                        "single-client reference")
    args = parser.parse_args()

    cache_dir = pathlib.Path(args.cache_dir)
    settings = ExperimentSettings(
        n_instructions=args.instructions, seed=args.seed
    )

    # 1. Warm the store in-process over the serve-side cache directory.
    store = ResultStore(cache_dir / "results")
    plan = warm_plan(suite=args.suite, settings=settings)
    tally = warm_store(store, plan, jobs=args.jobs)
    print(
        f"warm: {tally['stored']} computed, {tally['skipped']} already "
        f"stored ({tally['seconds']:.1f}s, {tally['store_entries']} "
        f"entries in store)"
    )

    workload = Workload.grid(
        skew=args.skew,
        theta=args.theta,
        seed=args.stream_seed,
        n_instructions=args.instructions,
        trace_seed=args.seed,
        suite_pairs=suite_workloads(args.suite),
    )
    reference_requests = args.reference_requests
    if reference_requests is None:
        reference_requests = max(1, args.requests // 2)

    # 2. A real server subprocess over the same store.
    port = _free_port()
    server = _launch_server(args, port)
    try:
        _wait_healthy(port)

        # 3a. Single-client reference pass (concurrency yardstick).
        reference_config = LoadConfig(
            host="127.0.0.1",
            port=port,
            clients=1,
            max_requests=reference_requests,
            duration_seconds=3600.0,
        )
        reference = run_load(workload, reference_config)

        # 3b. The seeded closed-loop stream over the warmed grid (a
        # fresh replay: same seed, same sequence).
        config = LoadConfig(
            host="127.0.0.1",
            port=port,
            clients=args.clients,
            max_requests=args.requests,
            duration_seconds=3600.0,
        )
        base = run_load(workload, config)
    finally:
        # 4. Graceful stop: SIGTERM must drain and exit cleanly.  A
        # hang sets a flag rather than returning here — a return in a
        # finally block would swallow any in-flight exception from the
        # measurement above, masking the real failure.
        clean = _stop_server(server)
    if not clean:
        return 1

    reference_summary = reference.summary()
    base_summary = base.summary()
    for label, passed in (
        ("reference", reference_summary), ("warmed", base_summary)
    ):
        if passed["completed"] != passed["requests"]:
            print(
                f"{label} run had non-ok responses: {passed['outcomes']}",
                file=sys.stderr,
            )
            return 1

    reference_rps = reference_summary["throughput_rps"]
    base_rps = base_summary["throughput_rps"]
    run_meta = {
        "clients": args.clients,
        "suite": args.suite,
        "n_instructions": args.instructions,
        "warmed_cells": len(plan),
        "reference_requests": reference_requests,
        "reference_throughput_rps": reference_rps,
        # The gated quantity: concurrent vs single-client req/s, both
        # measured this run on this machine.
        "concurrency_speedup": (
            base_rps / reference_rps if reference_rps > 0 else 0.0
        ),
    }
    record = lg_report.build_record(
        args.benchmark,
        base_summary,
        workload_meta=workload.describe(),
        run_meta=run_meta,
    )
    print(lg_report.render_record(record))

    out = pathlib.Path(args.out)
    length = lg_report.append_record(record, out)
    print(f"appended to {out} ({length} record(s))")

    message = lg_report.check_concurrency_sanity(record, args.min_speedup)
    if message is not None:
        print(message, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
