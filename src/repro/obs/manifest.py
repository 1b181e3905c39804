"""Run manifests: structured provenance for every traced run.

A manifest is the durable artifact of one traced run — written next to
the run's outputs — carrying everything needed to answer "what exactly
produced this result": the trace id, package/generator/git provenance,
the run's settings, per-cell rollups (wall/CPU, phases, engine
dispatch, cache hit/miss provenance), and the full span timeline.  The
``repro obs`` CLI (:mod:`repro.obs.export`) renders manifests as
Perfetto-loadable chrome traces, per-phase/per-cell/per-engine
summaries, and regression diffs between two runs.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess

from repro.obs.tracing import RunRecorder

#: Environment variable naming the default manifest output directory.
OBS_DIR_ENV = "REPRO_OBS_DIR"

#: Manifest format version (bump on incompatible shape changes).
MANIFEST_SCHEMA = 1

_git_cache: dict | None = None


def _git(args: list[str]) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except Exception:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def git_provenance() -> dict:
    """``{"revision", "describe"}`` of the source checkout (else Nones).

    Cached per process: the checkout does not change under a run, and
    shelling out to git is milliseconds we don't want per manifest.
    """
    global _git_cache
    if _git_cache is None:
        _git_cache = {
            "revision": _git(["rev-parse", "HEAD"]),
            "describe": _git(["describe", "--always", "--dirty"]),
        }
    return dict(_git_cache)


def provenance() -> dict:
    """The provenance block stamped into every manifest."""
    from repro import package_version
    from repro.workloads.params import GENERATOR_VERSION

    return {
        "package_version": package_version(),
        "generator_version": GENERATOR_VERSION,
        "git": git_provenance(),
        "python": platform.python_version(),
    }


def build_manifest(recorder: RunRecorder, extra: dict | None = None) -> dict:
    """Assemble the manifest dict of one finished run."""
    from repro.obs.export import cell_rollups

    spans = recorder.spans
    roots = [span for span in spans if span.get("parent_id") is None]
    wall = max((span["wall_seconds"] for span in roots), default=0.0)
    return {
        "schema": MANIFEST_SCHEMA,
        "trace_id": recorder.trace_id,
        "label": recorder.label,
        "created_at": recorder.started_at,
        "provenance": provenance(),
        "extra": extra or {},
        "wall_seconds": wall,
        "cells": cell_rollups(spans),
        "spans": spans,
    }


def manifest_filename(manifest: dict) -> str:
    """The canonical file name of one manifest."""
    return f"manifest-{manifest['label']}-{manifest['trace_id'][:12]}.json"


def write_manifest(
    manifest: dict, directory: str | os.PathLike, filename: str | None = None
) -> str:
    """Write a manifest into ``directory`` (created if missing)."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename or manifest_filename(manifest))
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: str | os.PathLike) -> dict:
    """Load a manifest written by :func:`write_manifest`.

    Raises:
        ValueError: when the file is not a manifest (or a future,
            incompatible schema).
    """
    with open(path) as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict) or "trace_id" not in manifest:
        raise ValueError(f"{path}: not a run manifest")
    schema = manifest.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unsupported manifest schema {schema!r} "
            f"(expected {MANIFEST_SCHEMA})"
        )
    return manifest
