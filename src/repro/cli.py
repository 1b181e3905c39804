"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — workloads, suites and experiments available.
* ``experiment NAME`` — run one paper table/figure (or extension study)
  and print its rendering.
* ``report`` — run every paper experiment (``--extensions`` adds the
  extension studies) as one sweep plan and print the renderings.
* ``trace NAME`` — synthesize a workload trace and archive it to disk.
* ``evaluate NAME`` — one workload against a named configuration.
* ``cache info|clear`` — inspect or wipe everything under the cache
  directory: traces, their line runs, and the content-addressed results
  that back the server (``--json`` for machine-readable output).
* ``serve`` — run the long-running HTTP/JSON simulation server
  (:mod:`repro.service`); ``--max-queue``/``--max-inflight`` bound the
  scheduler (overload answers 429 + ``Retry-After``), and
  SIGINT/SIGTERM drain in-flight jobs before exit.
* ``warm`` — pre-populate the result store with the evaluate grid so
  steady-state serving traffic is ~100% store hits.
* ``obs export|summary|diff`` — work with run manifests: export a
  Perfetto-loadable chrome trace, print per-phase/per-cell/per-engine
  rollups, or diff two runs.

Global flags: ``--jobs N`` fans experiment cells over a process pool
(results are bit-identical to serial), ``--cache-dir``/``REPRO_CACHE_DIR``
selects the persistent cache directory, ``--no-disk-cache`` disables it,
``--timing-out FILE`` writes the per-cell/per-phase wall-time report as
JSON (including the sweep plan's dedup counters — ``cells_total``,
``inputs_shared``, ``inputs_primed``), ``--obs-dir DIR``/
``REPRO_OBS_DIR`` traces the run and writes its manifest there, and
``--version`` prints package, generator, and git versions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only numpy-free modules load here: the parser is built for every
# command, so each simulator layer is imported by the handler that
# uses it (the start-up test in tests/test_lazy_imports.py holds this).
from repro import version_info
from repro.fetch.dispatch import ENGINES, MECHANISMS
from repro.obs.manifest import OBS_DIR_ENV
from repro.runner import CACHE_DIR_ENV
from repro.runner.cachedir import select_cache_dir, selected_cache_dir
from repro.workloads.suites import list_workloads, suite_names


def _settings(args):
    from repro.experiments.common import ExperimentSettings

    return ExperimentSettings(
        n_instructions=args.instructions,
        seed=args.seed,
        engine=getattr(args, "engine", "auto"),
    )


def _write_timing(args, timing: dict) -> None:
    """Write a plan run's timing, with its totals, to ``--timing-out``."""
    if getattr(args, "timing_out", None):
        from repro.obs.export import timing_record

        with open(args.timing_out, "w") as handle:
            json.dump(timing_record(timing), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"timing report written to {args.timing_out}", file=sys.stderr)


def _obs_dir(args) -> str | None:
    """The manifest output directory (flag, else $REPRO_OBS_DIR)."""
    return getattr(args, "obs_dir", None) or os.environ.get(OBS_DIR_ENV)


def _run_traced(args, command: str, label: str, fn):
    """Run a command body, tracing it into a manifest when requested.

    Without ``--obs-dir``/``$REPRO_OBS_DIR`` this is exactly ``fn()``
    (tracing stays inert).  With it, the whole command becomes one
    traced run whose manifest — trace id, provenance, per-cell rollups,
    span timeline — lands next to the run's other outputs.
    """
    obs_dir = _obs_dir(args)
    if not obs_dir:
        return fn()
    from repro.obs import tracing
    from repro.obs.manifest import build_manifest, write_manifest

    with tracing.run(label, command=command) as recorder:
        status = fn()
    manifest = build_manifest(
        recorder,
        extra={
            "command": command,
            "label": label,
            "settings": {
                "n_instructions": args.instructions,
                "seed": args.seed,
                "engine": getattr(args, "engine", "auto"),
            },
            "jobs": args.jobs,
        },
    )
    path = write_manifest(manifest, obs_dir)
    print(f"run manifest written to {path}", file=sys.stderr)
    return status


def _cmd_list(args) -> int:
    from repro.experiments import EXTENSION_STUDIES, PAPER_EXPERIMENTS

    print("workloads (name, os):")
    for name, os_name in list_workloads():
        print(f"  {name:12s} {os_name}")
    print("\nsuites:", ", ".join(suite_names()))
    print("\npaper experiments:", ", ".join(PAPER_EXPERIMENTS))
    print("extension studies:", ", ".join(EXTENSION_STUDIES))
    print("fetch mechanisms:", ", ".join(MECHANISMS))
    print("fetch engines:", ", ".join(ENGINES))
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    from repro.experiments import EXTENSION_STUDIES, PAPER_EXPERIMENTS
    from repro.plan.executor import run_experiment

    names = PAPER_EXPERIMENTS + EXTENSION_STUDIES
    if args.name not in names:
        print(
            f"unknown experiment {args.name!r}; available: "
            f"{', '.join(names)}",
            file=sys.stderr,
        )
        return 2
    module = importlib.import_module(f"repro.experiments.{args.name}")

    def body() -> int:
        result, timing = run_experiment(
            module, _settings(args), jobs=args.jobs, label=args.name
        )
        print(result.render())
        _write_timing(args, timing)
        return 0

    return _run_traced(args, "experiment", args.name, body)


def _cmd_report(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS
    from repro.plan.executor import run_report

    settings = _settings(args)
    registry = dict(ALL_EXPERIMENTS)
    if args.extensions:
        registry.update(EXTENSION_EXPERIMENTS)
    def body() -> int:
        renderings, timing = run_report(registry, settings, jobs=args.jobs)
        for _, rendering in renderings:
            print(rendering)
            print()
        _write_timing(args, timing)
        return 0

    return _run_traced(args, "report", "report", body)


def _cmd_trace(args) -> int:
    from repro.trace.io import save_trace
    from repro.workloads.generator import synthesize_trace
    from repro.workloads.registry import get_workload

    workload = get_workload(args.name, args.os)
    trace = synthesize_trace(workload, args.instructions, seed=args.seed)
    path = args.out or f"{args.name}-{args.os}.trace.npz"
    save_trace(trace, path)
    print(
        f"wrote {path}: {len(trace):,} references, "
        f"{trace.instruction_count:,} instructions"
    )
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core.config import MemorySystemConfig
    from repro.core.study import evaluate

    config = (
        MemorySystemConfig.economy()
        if args.config == "economy"
        else MemorySystemConfig.high_performance()
    )
    def body() -> int:
        result = evaluate(
            args.name,
            args.os,
            config,
            mechanism=args.mechanism,
            n_instructions=args.instructions,
            seed=args.seed,
            engine=args.engine,
        )
        print(f"{args.name}@{args.os} on {config.name} ({config.describe()})")
        print(f"  mechanism: {args.mechanism}")
        print(f"  MPI: {100 * result.l1.mpi:.2f} per 100 instructions")
        print(f"  CPIinstr: {result.cpi_instr:.3f}")
        return 0

    return _run_traced(args, "evaluate", f"evaluate-{args.name}", body)


def _print_order_cache(order: dict) -> None:
    """Text rendering of the in-process line-order memo stats."""
    print("\nline-order memo (in-process):")
    print(f"  entries: {order['entries']}")
    print(f"  bytes: {order['bytes']:,} (max {order['max_bytes']:,})")
    print(f"  evictions: {order['evictions']}")


def _unrecognized_dirs(root: str, known: tuple[str, ...]) -> list[dict]:
    """Top-level directories of a cache root outside ``known``, with bytes.

    Listed, never cleared: a directory filled by an older layout (a bare
    ``<workload>-<os>-<n>-<seed>-<fp>/`` trace entry) is dead weight, but
    a ``--cache-dir`` may also hold data that is not ours.
    """
    found = []
    with os.scandir(root) as listing:
        for item in listing:
            if not item.is_dir(follow_symlinks=False) or item.name in known:
                continue
            size = sum(
                os.path.getsize(os.path.join(parent, name))
                for parent, _, names in os.walk(item.path)
                for name in names
            )
            found.append({"name": item.name, "bytes": size})
    return sorted(found, key=lambda entry: entry["name"])


def _cmd_cache(args) -> int:
    # The on-disk namespaces persist across runs; the line-order memo
    # (sort orders and miss masks) is in-process and reported here
    # so one command answers both "what is cached" questions.
    from dataclasses import asdict

    from repro.caches.vectorized import order_cache_stats
    from repro.runner.entrystore import NAMESPACES, EntryStore

    order = order_cache_stats()
    root = selected_cache_dir()
    if root is None:
        if args.json:
            print(json.dumps({"root": None, "entries": [], "error":
                              "no cache configured",
                              "order_cache": order}))
        else:
            print(
                "no cache configured; set --cache-dir or the "
                f"{CACHE_DIR_ENV} environment variable"
            )
            _print_order_cache(order)
        return 0 if args.action == "info" else 2
    stores = {
        name: EntryStore(os.path.join(root, name)) for name in NAMESPACES
    }
    if args.action == "clear":
        removed = sum(store.clear() for store in stores.values())
        print(f"cleared {removed} entries from {root}")
        return 0
    entries = [
        dict(asdict(info), namespace=namespace)
        for namespace, store in stores.items()
        for info in store.entries()
    ]
    total = sum(entry["bytes"] for entry in entries)
    unrecognized = _unrecognized_dirs(root, NAMESPACES)
    if args.json:
        print(json.dumps(
            {"root": root, "entry_count": len(entries), "total_bytes": total,
             "entries": entries, "unrecognized": unrecognized,
             "order_cache": order},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"cache directory: {root}")
    print(f"entries: {len(entries)}")
    print(f"total bytes: {total:,}")
    for namespace in NAMESPACES:
        listed = [
            entry for entry in entries if entry["namespace"] == namespace
        ]
        size = sum(entry["bytes"] for entry in listed)
        print(f"\n{namespace}: {len(listed)} entries, {size:,} B")
        for entry in listed:
            meta = entry["meta"] or {}
            label = f"{meta['kind']} {meta['name']}" if "kind" in meta else ""
            print(f"  {entry['name']:40s} {entry['bytes']:>12,} B  {label}"
                  .rstrip())
    if unrecognized:
        print("\nnot read by this version; delete by hand:")
        for entry in unrecognized:
            print(f"  {entry['name']:40s} {entry['bytes']:>12,} B")
    _print_order_cache(order)
    return 0


def _result_store():
    """The content-addressed result store next to the trace cache."""
    from repro.service.store import result_store_for_cache

    root = selected_cache_dir()
    if root is None:
        return None
    return result_store_for_cache(root)


def _cmd_serve(args) -> int:
    from repro.service.app import run_service

    store = _result_store()
    if store is None:
        from repro.service.store import ResultStore

        print(
            "repro serve: no --cache-dir / $" + CACHE_DIR_ENV +
            " configured; results will not survive restarts",
            file=sys.stderr,
        )
        store = ResultStore(None)
    return run_service(
        host=args.host,
        port=args.port,
        store=store,
        jobs=args.jobs,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue if args.max_queue >= 0 else None,
        drain_timeout=args.drain_timeout,
        obs_dir=_obs_dir(args),
    )


def _cmd_warm(args) -> int:
    from repro.service.scheduler import CONFIGS as ALL_CONFIGS
    from repro.service.store import ResultStore
    from repro.service.warm import warm_plan, warm_store

    store = _result_store()
    if store is None:
        print(
            "repro warm: no --cache-dir / $" + CACHE_DIR_ENV +
            " configured; warming a memory-only store would be lost on "
            "exit",
            file=sys.stderr,
        )
        store = ResultStore(None)
    plan = warm_plan(
        suite=args.suite,
        configs=tuple(args.config or ALL_CONFIGS),
        mechanisms=tuple(args.mechanism or MECHANISMS),
        settings=_settings(args),
    )

    def body() -> int:
        tally = warm_store(store, plan, jobs=args.jobs)
        print(
            f"warmed {tally['stored']} of {tally['cells']} cells "
            f"({tally['skipped']} already stored) in "
            f"{tally['seconds']:.1f}s across {tally['groups']} "
            f"trace group(s)"
        )
        plan_stats = tally.get("plan") or {}
        if plan_stats.get("inputs_primed"):
            print(
                f"plan: primed {plan_stats['inputs_primed']} shared "
                f"input(s) once ({plan_stats['inputs_shared']} demanded "
                f"by more than one cell) in {plan_stats['phases']} "
                "phase(s)"
            )
        print(
            f"result store: {tally['store_entries']} entries, "
            f"{tally['store_bytes']:,} bytes"
            + (f" at {store.root}" if store.root else " (memory only)")
        )
        return 0

    return _run_traced(args, "warm", "warm", body)


def _cmd_obs(args) -> int:
    from repro.obs.export import (
        diff_manifests,
        render_diff,
        render_summary,
        summarize,
        to_chrome_trace,
    )
    from repro.obs.manifest import load_manifest

    def load(path: str) -> dict:
        try:
            return load_manifest(path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro obs: {exc}")

    if args.obs_command == "export":
        manifest = load(args.manifest)
        payload = (
            to_chrome_trace(manifest)
            if args.format == "chrome-trace"
            else manifest
        )
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
        return 0
    if args.obs_command == "summary":
        summary = summarize(load(args.manifest))
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_summary(summary))
        return 0
    if args.obs_command == "diff":
        diff = diff_manifests(load(args.a), load(args.b))
        if args.json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_diff(diff))
        return 0
    raise SystemExit(f"unknown obs command {args.obs_command!r}")


class _VersionAction(argparse.Action):
    """``--version`` with generator and git provenance.

    A custom action (rather than ``action="version"``) so the git
    subprocess only runs when ``--version`` is actually requested.
    """

    def __init__(self, option_strings, dest, **kwargs):
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "show package, generator and git versions")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        info = version_info()
        git = info["git"]
        revision = git.get("describe") or git.get("revision") or "unknown"
        print(
            f"repro {info['package_version']} "
            f"(generator v{info['generator_version']}, git {revision})"
        )
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Instruction Fetching: Coping with "
        "Code Bloat' (ISCA 1995)",
    )
    parser.add_argument("--version", action=_VersionAction)
    parser.add_argument("--instructions", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="fetch-timing implementation: vectorized numpy kernels, the "
        "reference per-run engines, or auto (kernels where they apply; "
        "results are bit-identical either way)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for experiment cells (0 = all cores; "
        "results are bit-identical to --jobs 1)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help=f"on-disk trace cache (default: ${CACHE_DIR_ENV})",
    )
    parser.add_argument(
        "--no-disk-cache", action="store_true",
        help="disable the on-disk trace cache for this run",
    )
    parser.add_argument(
        "--timing-out", metavar="FILE",
        help="write the per-cell/per-phase timing report as JSON",
    )
    parser.add_argument(
        "--obs-dir", metavar="DIR",
        help="trace the run and write its manifest here "
        f"(default: ${OBS_DIR_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, suites and experiments")

    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("name")

    p_report = sub.add_parser("report", help="run every paper experiment")
    p_report.add_argument(
        "--extensions", action="store_true",
        help="also run the extension studies",
    )

    p_trace = sub.add_parser("trace", help="synthesize and archive a trace")
    p_trace.add_argument("name")
    p_trace.add_argument("--os", default="mach3")
    p_trace.add_argument("--out")

    p_eval = sub.add_parser("evaluate", help="evaluate one workload")
    p_eval.add_argument("name")
    p_eval.add_argument("--os", default="mach3")
    p_eval.add_argument("--config", choices=["economy", "high-performance"],
                        default="economy")
    p_eval.add_argument("--mechanism", choices=list(MECHANISMS),
                        default="demand")

    p_cache = sub.add_parser(
        "cache", help="inspect or clear cached traces, line runs and results"
    )
    p_cache.add_argument("action", choices=["info", "clear"])
    p_cache.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text",
    )

    p_serve = sub.add_parser(
        "serve", help="run the long-running HTTP/JSON simulation server"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8765)
    p_serve.add_argument(
        "--max-inflight", type=int, default=4, metavar="N",
        help="worker threads executing jobs concurrently",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="admitted jobs allowed to wait beyond the in-flight set; "
        "past it the server sheds with 429 + Retry-After "
        "(use a negative value for an unbounded queue)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long graceful shutdown waits for in-flight jobs "
        "before marking the stragglers cancelled",
    )

    p_warm = sub.add_parser(
        "warm", help="pre-populate the result store from a sweep plan"
    )
    p_warm.add_argument(
        "--suite", choices=suite_names(),
        help="warm one suite's workloads (default: the whole registry)",
    )
    p_warm.add_argument(
        "--config", action="append",
        choices=["economy", "high-performance"], metavar="NAME",
        help="configuration(s) to warm (repeatable; default: both)",
    )
    p_warm.add_argument(
        "--mechanism", action="append", choices=list(MECHANISMS),
        metavar="NAME",
        help="mechanism(s) to warm (repeatable; default: all)",
    )

    p_obs = sub.add_parser(
        "obs", help="export, summarize or diff run manifests"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_export = obs_sub.add_parser(
        "export", help="export a manifest (chrome-trace loads in Perfetto)"
    )
    p_obs_export.add_argument("manifest")
    p_obs_export.add_argument(
        "--format", choices=["chrome-trace", "json"], default="chrome-trace",
        help="chrome-trace (Trace Event Format) or the raw manifest JSON",
    )
    p_obs_export.add_argument(
        "--out", metavar="FILE", help="write here instead of stdout"
    )
    p_obs_summary = obs_sub.add_parser(
        "summary", help="per-phase/per-cell/per-engine rollups of one run"
    )
    p_obs_summary.add_argument("manifest")
    p_obs_summary.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    p_obs_diff = obs_sub.add_parser(
        "diff", help="compare two run manifests"
    )
    p_obs_diff.add_argument("a")
    p_obs_diff.add_argument("b")
    p_obs_diff.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text",
    )
    return parser


def _apply_cache_flags(args) -> None:
    """Resolve the disk-cache tri-state before dispatching a command.

    A plain directory setting: the trace-cache backend is built only by
    a command that reads traces.
    """
    if args.no_disk_cache:
        root = None
    elif args.cache_dir:
        root = args.cache_dir
    else:
        root = os.environ.get(CACHE_DIR_ENV, "").strip() or None
    select_cache_dir(root)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_cache_flags(args)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "trace": _cmd_trace,
        "evaluate": _cmd_evaluate,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "warm": _cmd_warm,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed early (`repro cache info | head`).
        # Point stdout at devnull so interpreter shutdown doesn't try to
        # flush into the broken pipe and print a spurious traceback.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
