"""Cold/warm benchmark of the trace cache and sweep runner.

Runs one experiment twice against a fresh cache directory — a cold run
that synthesizes every trace, then a warm run that memory-maps them
back — and writes both timing reports plus the speedup as JSON.

Run from the repository root:

    python tools/bench_smoke.py [--experiment table5] [--instructions N]
                                [--jobs N] [--cache-dir DIR] [--out FILE]
                                [--obs-dir DIR]

With ``--obs-dir`` the whole benchmark runs traced: a run manifest and
its Perfetto-loadable chrome-trace export land in the directory, and
the output record's ``obs`` section links them (so a BENCH entry can be
joined to its full span timeline by trace id).

With no ``--cache-dir`` a temporary directory is used and removed
afterwards.  The interesting fields of the output: the cold run's
``phase_totals.synthesize`` is the cost the cache amortizes, and the
warm run's must be (near) zero.

The record also carries a ``fetch`` section timing a reduced Figure 6
sweep on the reference engines vs the vectorized stall-accounting
kernels (both over the already-warm traces); the full-scale version of
that comparison lives in ``benchmarks/bench_fetch.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager

from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS, figure6
from repro.experiments.common import ExperimentSettings
from repro.obs import tracing
from repro.obs.export import to_chrome_trace
from repro.obs.manifest import build_manifest, write_manifest
from repro.plan.executor import run_experiment
from repro.runner.cache import TraceDiskCache
from repro.workloads.registry import clear_trace_cache, set_trace_cache_backend

#: Reduced Figure 6 grid for the engine comparison (9 of 35 points).
FETCH_BANDWIDTHS = (4, 16, 64)
FETCH_LINE_SIZES = (16, 32, 64)


def bench_fetch(n_instructions: int, seed: int = 0) -> dict:
    """Reference-vs-vectorized timing of a reduced Figure 6 sweep."""

    def timed(engine: str):
        settings = ExperimentSettings(
            n_instructions=n_instructions, seed=seed, engine=engine
        )
        start = time.perf_counter()
        result = figure6.run(
            settings,
            bandwidths=FETCH_BANDWIDTHS,
            line_sizes=FETCH_LINE_SIZES,
        )
        return result, time.perf_counter() - start

    reference, reference_seconds = timed("reference")
    vectorized, vectorized_seconds = timed("vectorized")
    return {
        "points": len(FETCH_BANDWIDTHS) * len(FETCH_LINE_SIZES),
        "reference_seconds": reference_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": (
            reference_seconds / vectorized_seconds
            if vectorized_seconds > 0
            else None
        ),
        "renders_identical": reference.render() == vectorized.render(),
    }


def bench(
    experiment: str = "table5",
    n_instructions: int = 100_000,
    jobs: int = 1,
    cache_dir: str | None = None,
    obs_dir: str | None = None,
) -> dict:
    """Cold-then-warm timing of one experiment; returns the JSON record."""
    registry = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}
    module = registry[experiment]
    settings = ExperimentSettings(n_instructions=n_instructions, seed=0)

    scratch = None
    if cache_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-bench-")
        cache_dir = scratch
    backend = TraceDiskCache(cache_dir)
    set_trace_cache_backend(backend)
    try:
        with tracing.run(
            "bench-smoke", command="bench_smoke", experiment=experiment
        ) if obs_dir else _untraced() as recorder:
            clear_trace_cache()
            with tracing.span("cold"):
                cold_result, cold = run_experiment(
                    module, settings, jobs=jobs, label=experiment
                )
            clear_trace_cache()  # warm = fresh process, populated disk
            with tracing.span("warm"):
                warm_result, warm = run_experiment(
                    module, settings, jobs=jobs, label=experiment
                )
            if cold_result.render() != warm_result.render():
                raise AssertionError(
                    "warm rerun changed the experiment output"
                )
            with tracing.span("fetch-compare"):
                fetch = bench_fetch(n_instructions)
        record = {
            "fetch": fetch,
            "experiment": experiment,
            "n_instructions": n_instructions,
            "jobs": cold.jobs,
            "cache_dir": backend.root,
            "cache_entries": len(backend.entries()),
            "cache_bytes": backend.total_bytes(),
            "cold": cold.to_dict(),
            "warm": warm.to_dict(),
            "speedup": (
                cold.wall_seconds / warm.wall_seconds
                if warm.wall_seconds > 0
                else None
            ),
        }
        if obs_dir and recorder is not None:
            record["obs"] = _write_obs(recorder, obs_dir, record)
        return record
    finally:
        set_trace_cache_backend(None)
        clear_trace_cache()
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


@contextmanager
def _untraced():
    """Stand-in for :func:`repro.obs.tracing.run` when tracing is off."""
    yield None


def _write_obs(recorder, obs_dir: str, record: dict) -> dict:
    """Write the manifest + chrome-trace export; return their paths."""
    manifest = build_manifest(
        recorder,
        extra={
            "command": "bench_smoke",
            "experiment": record["experiment"],
            "n_instructions": record["n_instructions"],
            "jobs": record["jobs"],
            "speedup": record["speedup"],
        },
    )
    manifest_path = write_manifest(manifest, obs_dir)
    trace_path = os.path.join(
        obs_dir, f"chrome-trace-{manifest['trace_id'][:12]}.json"
    )
    with open(trace_path, "w") as handle:
        json.dump(to_chrome_trace(manifest), handle)
        handle.write("\n")
    return {
        "trace_id": manifest["trace_id"],
        "manifest": manifest_path,
        "chrome_trace": trace_path,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="table5")
    parser.add_argument("--instructions", type=int, default=100_000)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir")
    parser.add_argument("--out", default="bench_smoke.json")
    parser.add_argument(
        "--obs-dir",
        help="trace the benchmark; write manifest + chrome-trace here",
    )
    args = parser.parse_args()

    record = bench(
        args.experiment, args.instructions, args.jobs, args.cache_dir,
        obs_dir=args.obs_dir,
    )
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    cold = record["cold"]["phase_totals"]
    warm = record["warm"]["phase_totals"]
    print(
        f"cold: {record['cold']['wall_seconds']:.2f}s "
        f"(synthesize {cold.get('synthesize', 0.0):.2f}s)"
    )
    print(
        f"warm: {record['warm']['wall_seconds']:.2f}s "
        f"(synthesize {warm.get('synthesize', 0.0):.2f}s, "
        f"trace-load {warm.get('trace-load', 0.0):.2f}s)"
    )
    fetch = record["fetch"]
    print(
        f"fetch engines: reference {fetch['reference_seconds']:.2f}s, "
        f"vectorized {fetch['vectorized_seconds']:.2f}s "
        f"({fetch['speedup']:.1f}x, renders "
        f"{'identical' if fetch['renders_identical'] else 'DIVERGED'})"
    )
    if "obs" in record:
        print(
            f"trace {record['obs']['trace_id']}: "
            f"manifest {record['obs']['manifest']}, "
            f"chrome trace {record['obs']['chrome_trace']}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
