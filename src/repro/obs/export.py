"""Exports and rollups over run manifests.

Consumers of the span timeline collected by :mod:`repro.obs.tracing`:

* :func:`span_rollup` — one span aggregated over its subtree: the only
  per-cell aggregation, behind manifest cell rollups, the pool runner's
  per-cell timings and the plan's priming timings;
* :func:`to_chrome_trace` — the Trace Event Format JSON that Perfetto
  and ``chrome://tracing`` load directly (complete events per span,
  instant events per span annotation, thread/process metadata);
* :func:`summarize` / :func:`render_summary` — per-phase, per-cell and
  per-engine rollups (``repro obs summary``);
* :func:`diff_manifests` / :func:`render_diff` — regression triage
  between two runs (``repro obs diff``), including provenance drift.

Everything operates on plain span and manifest dicts (see
:mod:`repro.obs.manifest`) so exports work offline from a single file.
"""

from __future__ import annotations


def _merge_nested(into: dict, nested: dict) -> None:
    """Accumulate one ``{engine: {mechanism: n}}`` dict into another."""
    for engine, mechanisms in nested.items():
        bucket = into.setdefault(engine, {})
        for mechanism, count in mechanisms.items():
            bucket[mechanism] = bucket.get(mechanism, 0) + count


def _merge_counts(into: dict, counts: dict) -> None:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value


def _subtree_ids(spans: list[dict], root_id: str) -> set[str]:
    children: dict[str | None, list[str]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span["span_id"])
    ids, frontier = set(), [root_id]
    while frontier:
        span_id = frontier.pop()
        ids.add(span_id)
        frontier.extend(children.get(span_id, ()))
    return ids


def span_rollup(spans: list[dict], root: dict) -> dict:
    """One span aggregated over its subtree.

    Phases, dispatch counts and cache outcomes attach to the *innermost*
    span when they fire (a cell's ``evaluate`` children carry most of
    them), so the rollup sums the subtree.  Wall and CPU come from the
    root span itself — children run on its thread, so its own deltas
    already include them.
    """
    by_id = {span["span_id"]: span for span in spans}
    phases: dict[str, float] = {}
    dispatch: dict[str, dict[str, int]] = {}
    cache: dict[str, int] = {}
    for span_id in _subtree_ids(spans, root["span_id"]):
        member = by_id.get(span_id)
        if member is None:
            continue
        _merge_counts(phases, member.get("phases", {}))
        _merge_nested(dispatch, member.get("engine_dispatch", {}))
        _merge_counts(cache, member.get("trace_cache", {}))
    return {
        "key": root["attrs"].get("key"),
        "span_id": root["span_id"],
        "pid": root.get("pid"),
        "attrs": dict(root["attrs"]),
        "wall_seconds": root["wall_seconds"],
        "cpu_seconds": root["cpu_seconds"],
        "phases": phases,
        "engine_dispatch": dispatch,
        "trace_cache": cache,
    }


def cell_rollups(spans: list[dict]) -> list[dict]:
    """Per-cell summaries: each ``cell`` span's :func:`span_rollup`."""
    rollups = [
        span_rollup(spans, span) for span in spans if span["name"] == "cell"
    ]
    rollups.sort(key=lambda cell: str(cell["key"]))
    return rollups


# -- chrome trace -----------------------------------------------------


def to_chrome_trace(manifest: dict) -> dict:
    """A manifest as Trace Event Format JSON (Perfetto-loadable).

    Spans become complete (``ph: "X"``) events with their attributes
    and aggregates in ``args``; span annotations become thread-scoped
    instant events.  Worker-process spans keep their own ``pid`` so a
    ``--jobs N`` run renders as N+1 process tracks.
    """
    spans = manifest.get("spans", [])
    t0 = min((span["start"] for span in spans), default=0.0)

    def _ts(epoch: float) -> float:
        return round((epoch - t0) * 1e6, 3)

    tids: dict[tuple, int] = {}

    def _tid(span: dict) -> int:
        key = (span.get("pid"), span.get("thread"))
        if key not in tids:
            tids[key] = len(tids) + 1
        return tids[key]

    events = []
    for span in spans:
        tid = _tid(span)
        args = {
            "trace_id": span.get("trace_id"),
            "span_id": span["span_id"],
            "parent_id": span.get("parent_id"),
            "cpu_seconds": span.get("cpu_seconds"),
            **span.get("attrs", {}),
        }
        for section in ("phases", "engine_dispatch", "trace_cache"):
            if span.get(section):
                args[section] = span[section]
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": _ts(span["start"]),
                "dur": round(span["wall_seconds"] * 1e6, 3),
                "pid": span.get("pid", 0),
                "tid": tid,
                "args": args,
            }
        )
        for event in span.get("events", []):
            events.append(
                {
                    "name": event["name"],
                    "cat": "repro-event",
                    "ph": "i",
                    "s": "t",
                    "ts": _ts(event["time"]),
                    "pid": span.get("pid", 0),
                    "tid": tid,
                    "args": dict(event.get("attrs", {})),
                }
            )
    for (pid, thread), tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": str(thread)},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": manifest.get("trace_id"),
            "label": manifest.get("label"),
            "provenance": manifest.get("provenance", {}),
        },
    }


# -- summary ----------------------------------------------------------


def summarize(manifest: dict) -> dict:
    """Per-phase / per-cell / per-engine rollups of one manifest."""
    spans = manifest.get("spans", [])
    phase_totals: dict[str, float] = {}
    engine_dispatch: dict[str, dict[str, int]] = {}
    trace_cache: dict[str, int] = {}
    for span in spans:
        _merge_counts(phase_totals, span.get("phases", {}))
        _merge_nested(engine_dispatch, span.get("engine_dispatch", {}))
        _merge_counts(trace_cache, span.get("trace_cache", {}))
    return {
        "label": manifest.get("label"),
        "trace_id": manifest.get("trace_id"),
        "wall_seconds": manifest.get("wall_seconds", 0.0),
        "span_count": len(spans),
        "phase_totals": phase_totals,
        "engine_dispatch": engine_dispatch,
        "trace_cache": trace_cache,
        "cells": manifest.get("cells") or cell_rollups(spans),
        "provenance": manifest.get("provenance", {}),
    }


def _format_key(key) -> str:
    if isinstance(key, (list, tuple)):
        return "/".join(str(part) for part in key)
    return str(key)


def render_summary(summary: dict) -> str:
    """Text rendering of :func:`summarize` (``repro obs summary``)."""
    lines = [
        f"run {summary['label']}  trace {summary['trace_id']}",
        f"wall: {summary['wall_seconds']:.3f}s  "
        f"spans: {summary['span_count']}  "
        f"cells: {len(summary['cells'])}",
    ]
    if summary["phase_totals"]:
        lines.append("phases:")
        for name, seconds in sorted(summary["phase_totals"].items()):
            lines.append(f"  {name:12s} {seconds:9.3f}s")
    if summary["engine_dispatch"]:
        lines.append("engine dispatch:")
        for engine, mechanisms in sorted(summary["engine_dispatch"].items()):
            detail = " ".join(
                f"{mechanism}={count}"
                for mechanism, count in sorted(mechanisms.items())
            )
            lines.append(f"  {engine:12s} {detail}")
    if summary["trace_cache"]:
        detail = " ".join(
            f"{event}={count}"
            for event, count in sorted(summary["trace_cache"].items())
        )
        lines.append(f"trace cache: {detail}")
    if summary["cells"]:
        lines.append("cells (slowest first):")
        ordered = sorted(
            summary["cells"], key=lambda c: -c["wall_seconds"]
        )
        for cell in ordered:
            top = max(
                cell["phases"], key=cell["phases"].get, default="-"
            ) if cell["phases"] else "-"
            lines.append(
                f"  {_format_key(cell['key']):28s} "
                f"wall {cell['wall_seconds']:8.3f}s  "
                f"cpu {cell['cpu_seconds']:8.3f}s  "
                f"top-phase {top}"
            )
    return "\n".join(lines)


# -- diff -------------------------------------------------------------


def _identity(summary: dict) -> dict:
    provenance = summary.get("provenance", {})
    return {
        "label": summary.get("label"),
        "trace_id": summary.get("trace_id"),
        "wall_seconds": summary.get("wall_seconds", 0.0),
        "package_version": provenance.get("package_version"),
        "generator_version": provenance.get("generator_version"),
        "git": (provenance.get("git") or {}).get("describe"),
    }


def diff_manifests(a: dict, b: dict) -> dict:
    """Regression triage between two runs (``repro obs diff A B``)."""
    sa, sb = summarize(a), summarize(b)
    phases = {}
    for name in sorted(set(sa["phase_totals"]) | set(sb["phase_totals"])):
        va = sa["phase_totals"].get(name, 0.0)
        vb = sb["phase_totals"].get(name, 0.0)
        phases[name] = {"a": va, "b": vb, "delta": vb - va}
    cells_a = {_format_key(cell["key"]): cell for cell in sa["cells"]}
    cells_b = {_format_key(cell["key"]): cell for cell in sb["cells"]}
    cells = []
    for key in sorted(set(cells_a) | set(cells_b)):
        wall_a = cells_a[key]["wall_seconds"] if key in cells_a else None
        wall_b = cells_b[key]["wall_seconds"] if key in cells_b else None
        cells.append(
            {
                "key": key,
                "a": wall_a,
                "b": wall_b,
                "delta": (
                    wall_b - wall_a
                    if wall_a is not None and wall_b is not None
                    else None
                ),
            }
        )
    dispatch = {}
    engines = set(sa["engine_dispatch"]) | set(sb["engine_dispatch"])
    for engine in sorted(engines):
        ma = sa["engine_dispatch"].get(engine, {})
        mb = sb["engine_dispatch"].get(engine, {})
        for mechanism in sorted(set(ma) | set(mb)):
            dispatch[f"{mechanism}/{engine}"] = {
                "a": ma.get(mechanism, 0),
                "b": mb.get(mechanism, 0),
            }
    ia, ib = _identity(sa), _identity(sb)
    provenance_changed = {
        field: {"a": ia[field], "b": ib[field]}
        for field in ("package_version", "generator_version", "git")
        if ia[field] != ib[field]
    }
    return {
        "a": ia,
        "b": ib,
        "wall_delta_seconds": ib["wall_seconds"] - ia["wall_seconds"],
        "phases": phases,
        "cells": cells,
        "engine_dispatch": dispatch,
        "provenance_changed": provenance_changed,
    }


def render_diff(diff: dict) -> str:
    """Text rendering of :func:`diff_manifests`."""
    a, b = diff["a"], diff["b"]
    lines = [
        f"a: {a['label']}  trace {a['trace_id']}  "
        f"wall {a['wall_seconds']:.3f}s",
        f"b: {b['label']}  trace {b['trace_id']}  "
        f"wall {b['wall_seconds']:.3f}s",
        f"wall delta: {diff['wall_delta_seconds']:+.3f}s",
    ]
    if diff["provenance_changed"]:
        lines.append("provenance changed:")
        for field, values in sorted(diff["provenance_changed"].items()):
            lines.append(f"  {field}: {values['a']!r} -> {values['b']!r}")
    if diff["phases"]:
        lines.append("phases (a / b / delta):")
        for name, values in sorted(
            diff["phases"].items(), key=lambda item: -abs(item[1]["delta"])
        ):
            lines.append(
                f"  {name:12s} {values['a']:9.3f}s {values['b']:9.3f}s "
                f"{values['delta']:+9.3f}s"
            )
    changed = [cell for cell in diff["cells"] if cell["delta"] is not None]
    if changed:
        lines.append("cells (largest wall delta first):")
        for cell in sorted(changed, key=lambda c: -abs(c["delta"])):
            lines.append(
                f"  {cell['key']:28s} {cell['a']:8.3f}s -> "
                f"{cell['b']:8.3f}s  ({cell['delta']:+.3f}s)"
            )
    unmatched = [cell for cell in diff["cells"] if cell["delta"] is None]
    for cell in unmatched:
        side = "only in a" if cell["a"] is not None else "only in b"
        lines.append(f"  {cell['key']:28s} ({side})")
    disp = diff["engine_dispatch"]
    moved = {
        key: values for key, values in disp.items()
        if values["a"] != values["b"]
    }
    if moved:
        lines.append("engine dispatch changes:")
        for key, values in sorted(moved.items()):
            lines.append(f"  {key:28s} {values['a']} -> {values['b']}")
    return "\n".join(lines)
