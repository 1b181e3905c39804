"""Reference-vs-vectorized timing of the fetch kernels.

Two benchmarks, each appending one record to the ``BENCH_fetch.json``
trajectory at the repository root:

* ``figure6-fetch-sweep`` — the Figure 6 bandwidth x line-size sweep
  under ``engine="reference"`` versus ``engine="vectorized"``, with the
  rendered tables checked byte-identical.
* ``figure7-coverage`` — both Figure 7 optimization ladders plus the
  mechanism corners that used to fall back to the reference engines
  (victim cache, markov prefetch, associative and wrap-around
  ``prefetch+bypass``, mismatched-width stream buffers), under
  ``engine="reference"`` versus ``engine="auto"``.  The auto run must
  dispatch *zero* points to the reference fallback — full vectorized
  coverage is part of what this benchmark certifies — and its results
  must equal the reference run's bit for bit.

Run from the repository root:

    PYTHONPATH=src python benchmarks/bench_fetch.py
        [--instructions N] [--suite ibs-mach3] [--out BENCH_fetch.json]
        [--check-against FILE] [--min-speedup-ratio 0.8]

``--check-against`` compares each fresh speedup to the last record *of
the same benchmark* in a committed trajectory and exits non-zero if it
regressed by more than the allowed ratio — that is the CI gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.caches.base import CacheGeometry
from repro.core.config import MemorySystemConfig
from repro.experiments import figure6, figure7
from repro.obs import tracing
from repro.obs.manifest import build_manifest, write_manifest
from repro.experiments.common import (
    ExperimentSettings,
    fetch_cells,
    fetch_point,
    fetch_values,
)
from repro.fetch import dispatch
from repro.fetch.timing import MemoryTiming
from repro.workloads.registry import get_trace, suite_workloads


def _prime_traces(suite: str, settings: ExperimentSettings) -> None:
    """Synthesize (and registry-cache) every trace before timing.

    Both engines would otherwise pay trace synthesis on first touch,
    which has nothing to do with the fetch kernels being compared.
    """
    for name, os_name in suite_workloads(suite):
        get_trace(name, os_name, settings.n_instructions, settings.seed)


def _settings(n_instructions: int, seed: int, engine: str) -> ExperimentSettings:
    return ExperimentSettings(
        n_instructions=n_instructions, seed=seed, engine=engine
    )


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def bench_figure6(
    n_instructions: int = 200_000,
    suite: str = "ibs-mach3",
    seed: int = 0,
) -> dict:
    """One trajectory record: both engines over the same warm traces."""
    _prime_traces(suite, _settings(n_instructions, seed, "auto"))

    def timed(engine: str):
        start = time.perf_counter()
        result = figure6.run(_settings(n_instructions, seed, engine),
                             suite=suite)
        return result, time.perf_counter() - start

    reference, reference_seconds = timed("reference")
    vectorized, vectorized_seconds = timed("vectorized")
    identical = reference.render() == vectorized.render()
    if not identical:
        raise AssertionError(
            "vectorized Figure 6 render diverged from the reference engines"
        )
    return {
        "benchmark": "figure6-fetch-sweep",
        "suite": suite,
        "n_instructions": n_instructions,
        "seed": seed,
        "points": len(figure6.BANDWIDTHS) * len(figure6.LINE_SIZES),
        "reference_seconds": round(reference_seconds, 4),
        "vectorized_seconds": round(vectorized_seconds, 4),
        "speedup": round(reference_seconds / vectorized_seconds, 2),
        "renders_identical": identical,
        "timestamp": _timestamp(),
    }


def _coverage_points():
    """Both Figure 7 ladders plus the newly-vectorized mechanism corners.

    The extra points are exactly the combinations that previously had no
    closed-form kernel, so ``engine="auto"`` fell back to stepping the
    reference engines on them: victim caches, markov prefetching,
    ``prefetch+bypass`` on an associative L1 and on a wrap-around
    geometry (``n_sets <= n_prefetch``), and a stream buffer whose line
    size is wider than the transfer width.
    """
    points = [
        point
        for config_name in figure7.CONFIG_NAMES
        for point in figure7._step_points(config_name)
    ]
    interface = MemoryTiming(latency=6, bytes_per_cycle=16)
    l1_8k_dm = MemorySystemConfig(
        name="cover-dm",
        l1=CacheGeometry(8192, 32, 1),
        memory=interface,
    )
    l1_2way = MemorySystemConfig(
        name="cover-2way",
        l1=CacheGeometry(8192, 32, 2),
        memory=interface,
    )
    l1_tiny = MemorySystemConfig(
        name="cover-tiny",
        l1=CacheGeometry(512, 32, 1),  # 16 sets
        memory=interface,
    )
    mismatched = MemorySystemConfig(
        name="cover-wide-line",
        l1=CacheGeometry(8192, 64, 1),  # 64 B lines over 16 B/cyc
        memory=interface,
    )
    points += [
        fetch_point(("cover", "victim"), l1_8k_dm, "victim", n_victims=4),
        fetch_point(("cover", "markov"), l1_8k_dm, "markov",
                    table_size=512, n_buffers=4),
        fetch_point(("cover", "markov-hybrid"), l1_2way, "markov",
                    hybrid=True),
        fetch_point(("cover", "bypass-2way"), l1_2way, "prefetch+bypass",
                    n_prefetch=2),
        fetch_point(("cover", "bypass-wrap"), l1_tiny, "prefetch+bypass",
                    n_prefetch=16),
        fetch_point(("cover", "stream-wide"), mismatched, "stream-buffer",
                    n_lines=4),
    ]
    return points


def bench_figure7_coverage(
    n_instructions: int = 200_000,
    suite: str = "ibs-mach3",
    seed: int = 0,
) -> dict:
    """One trajectory record: full-grid auto dispatch vs the reference.

    Before this repository's kernels covered the whole mechanism grid,
    ``engine="auto"`` ran the extra coverage points on the reference
    engines — so the reference column here is also the pre-coverage
    auto cost for those points, and the speedup measures what full
    kernel coverage buys end to end.
    """
    points = _coverage_points()
    _prime_traces(suite, _settings(n_instructions, seed, "auto"))

    def timed(engine: str):
        dispatch.reset_totals()
        start = time.perf_counter()
        cells = fetch_cells(
            {(): (suite, points)}, _settings(n_instructions, seed, engine)
        )
        swept = fetch_values({cell.key: cell.fn(*cell.args) for cell in cells})
        return swept, time.perf_counter() - start, dispatch.totals()

    reference, reference_seconds, _ = timed("reference")
    auto, auto_seconds, auto_dispatch = timed("auto")
    if reference != auto:
        raise AssertionError(
            "auto-engine coverage sweep diverged from the reference engines"
        )
    fallbacks = sum(
        count
        for (_mechanism, engine), count in auto_dispatch.items()
        if engine == dispatch.ENGINE_REFERENCE
    )
    if fallbacks:
        raise AssertionError(
            f"auto engine fell back to the reference engines {fallbacks} "
            f"time(s); the vectorized kernels should cover every point"
        )
    return {
        "benchmark": "figure7-coverage",
        "suite": suite,
        "n_instructions": n_instructions,
        "seed": seed,
        "points": len(points),
        "reference_seconds": round(reference_seconds, 4),
        "vectorized_seconds": round(auto_seconds, 4),
        "speedup": round(reference_seconds / auto_seconds, 2),
        "results_identical": True,
        "reference_fallbacks": fallbacks,
        "timestamp": _timestamp(),
    }


BENCHMARKS = {
    "figure6-fetch-sweep": bench_figure6,
    "figure7-coverage": bench_figure7_coverage,
}


def load_trajectory(path: pathlib.Path) -> list[dict]:
    """The committed trajectory, or an empty one for a fresh file."""
    if not path.exists():
        return []
    trajectory = json.loads(path.read_text())
    if not isinstance(trajectory, list):
        raise ValueError(f"{path} is not a trajectory (expected a JSON list)")
    return trajectory


def check_regression(
    record: dict, baseline_path: pathlib.Path, min_ratio: float
) -> str | None:
    """``None`` if acceptable, else a message describing the regression.

    The gate is relative — machines differ, so absolute seconds are
    meaningless in CI, but the reference/vectorized *ratio* on the same
    machine is stable.  Each benchmark gates against the last committed
    record of the *same* benchmark; the trajectory interleaves several.
    """
    name = record["benchmark"]
    history = [
        entry
        for entry in load_trajectory(baseline_path)
        if entry.get("benchmark", "figure6-fetch-sweep") == name
    ]
    if not history:
        return None
    baseline = history[-1]["speedup"]
    floor = min_ratio * baseline
    if record["speedup"] < floor:
        return (
            f"{name}: vectorized speedup regressed: "
            f"{record['speedup']:.1f}x vs baseline {baseline:.1f}x "
            f"(floor {floor:.1f}x)"
        )
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instructions", type=int, default=200_000)
    parser.add_argument("--suite", default="ibs-mach3")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_fetch.json")
    parser.add_argument(
        "--benchmark", choices=sorted(BENCHMARKS), action="append",
        help="benchmark(s) to run (default: all)",
    )
    parser.add_argument(
        "--check-against", metavar="FILE",
        help="committed trajectory to gate the fresh speedups against",
    )
    parser.add_argument(
        "--min-speedup-ratio", type=float, default=0.8,
        help="fail when a speedup < ratio * its baseline's last record",
    )
    parser.add_argument(
        "--obs-dir", metavar="DIR",
        help="trace each benchmark; write run manifests here (each "
        "trajectory record then carries its trace_id and manifest path)",
    )
    args = parser.parse_args()

    names = args.benchmark or sorted(BENCHMARKS)
    records = []
    for name in names:
        if args.obs_dir:
            with tracing.run(name, command="bench_fetch") as recorder:
                record = BENCHMARKS[name](
                    args.instructions, args.suite, args.seed
                )
            manifest = build_manifest(
                recorder,
                extra={
                    "command": "bench_fetch",
                    "benchmark": name,
                    "speedup": record["speedup"],
                },
            )
            record["trace_id"] = manifest["trace_id"]
            record["manifest"] = write_manifest(manifest, args.obs_dir)
        else:
            record = BENCHMARKS[name](
                args.instructions, args.suite, args.seed
            )
        records.append(record)
        print(
            f"{name} ({record['points']} points x {args.suite} "
            f"@ {args.instructions:,} instructions):\n"
            f"  reference:  {record['reference_seconds']:.2f}s\n"
            f"  vectorized: {record['vectorized_seconds']:.2f}s\n"
            f"  speedup:    {record['speedup']:.1f}x (results identical)"
        )

    out = pathlib.Path(args.out)
    trajectory = load_trajectory(out)
    trajectory.extend(records)
    out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(f"appended to {out} ({len(trajectory)} record(s))")

    if args.check_against:
        failed = False
        for record in records:
            message = check_regression(
                record, pathlib.Path(args.check_against),
                args.min_speedup_ratio,
            )
            if message is not None:
                print(message, file=sys.stderr)
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
