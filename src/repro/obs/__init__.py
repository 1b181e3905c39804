"""Observability: span tracing, run manifests, exports, structured logs.

The package turns a run of this library into an analyzable artifact —
the reproduction-side analogue of the paper's logic-analyzer
methodology:

* :mod:`repro.obs.tracing` — ``span()`` timeline with a per-run trace
  id; the phase, engine-dispatch and trace-cache sites annotate the
  active span directly, and pool-worker spans ship back and re-parent
  under the coordinating run.  Manifests and the serving tier's
  ``/metrics`` series are derived from these spans.
* :mod:`repro.obs.manifest` — run manifests (provenance + per-cell
  rollups + full span timeline) written next to run outputs.
* :mod:`repro.obs.export` — Perfetto-loadable chrome-trace export,
  summaries, and run-to-run diffs (the ``repro obs`` CLI surface).
* :mod:`repro.obs.logs` — JSON-line structured logging keyed by trace
  id (the serving tier's request/job log).
"""

from repro.obs import logs, tracing
from repro.obs.export import (
    diff_manifests,
    render_diff,
    render_summary,
    summarize,
    to_chrome_trace,
)
from repro.obs.manifest import (
    OBS_DIR_ENV,
    build_manifest,
    load_manifest,
    provenance,
    write_manifest,
)
from repro.obs.tracing import (
    RunRecorder,
    cell_capture,
    current_span,
    current_trace_id,
    new_trace_id,
    run,
    span,
)

__all__ = [
    "OBS_DIR_ENV",
    "RunRecorder",
    "build_manifest",
    "cell_capture",
    "current_span",
    "current_trace_id",
    "diff_manifests",
    "load_manifest",
    "logs",
    "new_trace_id",
    "provenance",
    "render_diff",
    "render_summary",
    "run",
    "span",
    "summarize",
    "to_chrome_trace",
    "tracing",
    "write_manifest",
]
