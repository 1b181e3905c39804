"""``BENCH_serve.json`` trajectory records, rendering, and the CI gate.

Same trajectory discipline as ``BENCH_fetch.json``: the file is a JSON
list of records and each run appends.  Absolute req/s is
machine-dependent, so the CI gate never compares it across machines;
instead it checks ``concurrency_speedup`` — concurrent ÷ single-client
throughput, both measured *within one run* on one machine — against a
fixed floor (:func:`check_concurrency_sanity`).  The single-client
reference pass is the baseline, re-measured on the gating machine every
run, which keeps the gate hardware-independent and immune to
committed-record noise.
"""

from __future__ import annotations

import json
import pathlib
import time

__all__ = [
    "build_record",
    "check_concurrency_sanity",
    "load_trajectory",
    "append_record",
    "render_record",
]


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def build_record(
    benchmark: str,
    summary: dict,
    *,
    workload_meta: dict,
    run_meta: dict | None = None,
) -> dict:
    """One trajectory record from a load summary plus stream identity."""
    record = {
        "benchmark": benchmark,
        "timestamp": _timestamp(),
        **summary,
        "workload": workload_meta,
    }
    if run_meta:
        record.update(run_meta)
    return record


def load_trajectory(path: pathlib.Path) -> list[dict]:
    """The committed trajectory, or an empty one for a fresh file."""
    if not path.exists():
        return []
    trajectory = json.loads(path.read_text())
    if not isinstance(trajectory, list):
        raise ValueError(f"{path} is not a trajectory (expected a JSON list)")
    return trajectory


def append_record(record: dict, path: pathlib.Path) -> int:
    """Append one record; returns the trajectory's new length."""
    trajectory = load_trajectory(path)
    trajectory.append(record)
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    return len(trajectory)


def check_concurrency_sanity(record: dict, min_speedup: float) -> str | None:
    """``None`` if acceptable, else a message describing the failure.

    Gates ``concurrency_speedup`` — concurrent ÷ single-client
    throughput, both measured within one run on one machine — against
    a fixed floor (default 0.8: concurrency must never collapse
    throughput below 80% of the same-run serial reference).  Both
    sides of the ratio come from the gating machine, so the check
    holds on any runner hardware, and no committed history is
    involved, so it cannot flake on a lucky past record.
    """
    if "concurrency_speedup" not in record:
        return (
            f"{record['benchmark']}: record has no concurrency_speedup "
            f"(was a reference pass run?)"
        )
    speedup = record["concurrency_speedup"]
    if speedup < min_speedup:
        return (
            f"{record['benchmark']}: concurrency sanity failed: "
            f"{speedup:.2f}x vs the same-run single-client reference "
            f"({record.get('reference_throughput_rps', 0):.1f} req/s; "
            f"floor {min_speedup:.2f}x)"
        )
    return None


def render_record(record: dict) -> str:
    """One record as a human-readable block."""
    latency = record.get("latency_seconds", {})
    lines = [
        f"{record.get('benchmark', '?')}  @ {record.get('timestamp', '?')}",
        f"  requests:   {record.get('requests', 0):,} "
        f"({record.get('completed', 0):,} completed) over "
        f"{record.get('measure_seconds', 0):.2f}s",
        f"  throughput: {record.get('throughput_rps', 0):.1f} req/s "
        f"(offered {record.get('offered_rps', 0):.1f} req/s)",
    ]
    if "concurrency_speedup" in record:
        lines.append(
            f"  speedup:    {record['concurrency_speedup']:.2f}x over "
            f"single-client reference "
            f"({record.get('reference_throughput_rps', 0):.1f} req/s)"
        )
    lines += [
        "  latency:    "
        + "  ".join(
            f"{label}={latency.get(label, 0) * 1000:.2f}ms"
            for label in ("p50", "p95", "p99", "p999")
        ),
    ]
    statuses = record.get("statuses")
    if statuses:
        rendered = ", ".join(f"{k}: {v}" for k, v in sorted(statuses.items()))
        lines.append(f"  statuses:   {rendered}")
    workload = record.get("workload")
    if workload:
        lines.append(
            f"  stream:     {workload.get('skew')}"
            f"(theta={workload.get('theta')}) over "
            f"{workload.get('population')} cells, "
            f"seed={workload.get('stream_seed')}"
        )
    return "\n".join(lines)

