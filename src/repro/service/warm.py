"""Pre-populate the result store from a sweep plan (``repro warm``).

Warming computes the evaluate grid — every ``(workload, os) x
configuration x mechanism`` cell of the plan — through the same
group cells and payload format the server's scheduler uses, and writes
each payload under the same canonical content key the server looks up.
A warmed store therefore answers the load generator's steady-state
traffic (and real clients replaying the grid) entirely from disk:
~100% store hits, no simulation on the serving path.

Idempotent: cells whose keys are already stored are skipped, so
re-warming after a partial run only computes the remainder.
"""

from __future__ import annotations

import time

from repro.core.study import MECHANISMS
from repro.experiments.common import ExperimentSettings
from repro.plan.executor import execute_cells
from repro.service.scheduler import (
    CONFIGS,
    EvaluateRequest,
    evaluate_group_cells,
    evaluate_payloads,
)
from repro.service.store import ResultStore
from repro.workloads.registry import list_workloads, suite_workloads

__all__ = ["warm_plan", "warm_store"]


def warm_plan(
    *,
    suite: str | None = None,
    configs: tuple[str, ...] = CONFIGS,
    mechanisms: tuple[str, ...] = MECHANISMS,
    settings: ExperimentSettings,
) -> list[EvaluateRequest]:
    """The sweep plan: one request per grid cell (whole registry by
    default, one suite with ``suite=``)."""
    pairs = suite_workloads(suite) if suite else list_workloads()
    return [
        EvaluateRequest(
            workload=name,
            os_name=os_name,
            config_name=config,
            mechanism=mechanism,
            settings=settings,
        )
        for name, os_name in pairs
        for config in configs
        for mechanism in mechanisms
    ]


def warm_store(
    store: ResultStore,
    plan: list[EvaluateRequest],
    *,
    jobs: int = 1,
) -> dict:
    """Compute and store every missing cell of ``plan``.

    Returns a tally: total/stored/skipped cells, wall seconds, and the
    plan's dedup counters.  The batch compiles through the scheduler's
    :func:`~repro.service.scheduler.evaluate_group_cells` — one compute
    cell per ``(workload, os, engine)`` evaluating all of that
    workload's requested points against its line-run streams — and
    executes on the plan executor, which runs it one trace at a time,
    priming each trace's streams and mask families before its cell.
    """
    started = time.perf_counter()
    missing = [
        request for request in plan if request.key() not in store
    ]
    groups, cells = evaluate_group_cells(missing)
    results, timing = execute_cells(cells, jobs, label="warm")
    stored = 0
    for index, payload in evaluate_payloads(missing, groups, results):
        store.put(missing[index].key(), payload)
        stored += 1
    return {
        "cells": len(plan),
        "stored": stored,
        "skipped": len(plan) - len(missing),
        "groups": len(cells),
        "seconds": round(time.perf_counter() - started, 3),
        "store_entries": len(store),
        "store_bytes": store.current_bytes,
        "plan": timing["plan"],
    }
