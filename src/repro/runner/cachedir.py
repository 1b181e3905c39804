"""Which on-disk cache directory this process uses, as a plain setting.

The CLI resolves ``--no-disk-cache``, ``--cache-dir`` and
``$REPRO_CACHE_DIR`` (in that order of precedence) to one directory, or
``None``, before it runs any command.  Nothing here imports numpy: the
workload registry builds its :class:`~repro.runner.cache.TraceDiskCache`
from the selection when it first needs one, and the result store lives
under the same directory
(:func:`repro.service.store.result_store_for_cache`), so a command that
never reads a trace never loads the trace-cache backend.
"""

from __future__ import annotations

import os
import sys

from repro.runner import CACHE_DIR_ENV

_UNSET = object()
_selected = _UNSET


def select_cache_dir(root: str | os.PathLike | None) -> None:
    """Make ``root`` this process's cache directory (``None``: no disk cache).

    Overrides ``$REPRO_CACHE_DIR``.  A workload registry that has
    already loaded switches to the selected directory at once, replacing
    any backend installed with
    :func:`~repro.workloads.registry.set_trace_cache_backend`.
    """
    global _selected
    _selected = os.path.abspath(os.fspath(root)) if root else None
    registry = sys.modules.get("repro.workloads.registry")
    if registry is not None:
        from repro.runner.cache import TraceDiskCache

        registry.set_trace_cache_backend(
            TraceDiskCache(_selected) if _selected else None
        )


def selected_cache_dir() -> str | None:
    """The selected directory; ``$REPRO_CACHE_DIR`` until one is selected."""
    if _selected is _UNSET:
        return os.environ.get(CACHE_DIR_ENV, "").strip() or None
    return _selected
