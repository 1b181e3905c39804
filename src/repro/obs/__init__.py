"""Observability: span tracing, run manifests, exports, structured logs.

The package turns a run of this library into an analyzable artifact —
the reproduction-side analogue of the paper's logic-analyzer
methodology:

* :mod:`repro.obs.tracing` — ``span()`` timeline with a per-run trace
  id; the phase, engine-dispatch and trace-cache sites annotate the
  active span directly.  ``capture()`` records every cell and priming
  pass, traced or not, so each is rolled up when it ends; pool workers
  ship their captures back, to re-parent under the coordinating run,
  only when that run is traced.  Manifests, the ``--timing-out`` file
  and the serving tier's ``/metrics`` series are derived from these
  spans.
* :mod:`repro.obs.manifest` — run manifests (provenance + per-cell
  rollups + full span timeline) written next to run outputs.
* :mod:`repro.obs.export` — the one per-span subtree rollup
  (``span_rollup``) and sum over rollups (``rollup_totals``), the
  ``--timing-out`` record (``timing_record``), Perfetto-loadable
  chrome-trace export, summaries, and run-to-run diffs (the ``repro
  obs`` CLI surface).
* :mod:`repro.obs.logs` — JSON-line structured logging keyed by trace
  id (the serving tier's request/job log).
"""

from repro._util.lazy import lazy_exports

_EXPORTS = {
    "OBS_DIR_ENV": ".manifest",
    "RunRecorder": ".tracing",
    "build_manifest": ".manifest",
    "capture": ".tracing",
    "current_span": ".tracing",
    "current_trace_id": ".tracing",
    "diff_manifests": ".export",
    "load_manifest": ".manifest",
    "logs": None,
    "new_trace_id": ".tracing",
    "provenance": ".manifest",
    "render_diff": ".export",
    "render_summary": ".export",
    "run": ".tracing",
    "span": ".tracing",
    "span_rollup": ".export",
    "summarize": ".export",
    "to_chrome_trace": ".export",
    "tracing": None,
    "write_manifest": ".manifest",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
