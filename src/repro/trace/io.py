"""Trace persistence.

Traces are stored as compressed ``.npz`` archives — one file per trace,
self-describing, loadable without the generator that produced them.
This stands in for the paper's distribution of the IBS traces to the
research community.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.trace.trace import Trace

_FORMAT_VERSION = 1

#: Column files of the directory layout (one ``.npy`` per column).
_COLUMN_FILES = ("addresses.npy", "kinds.npy", "components.npy")


def save_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write ``trace`` to ``path`` as a compressed ``.npz`` archive."""
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        addresses=trace.addresses,
        kinds=trace.kinds,
        components=trace.components,
        label=np.bytes_(trace.label.encode("utf-8")),
    )


def load_trace(path: str | os.PathLike) -> Trace:
    """Load a trace previously written by :func:`save_trace`.

    Raises:
        ValueError: if the file is not a recognized trace archive.
    """
    with np.load(path) as archive:
        try:
            version = int(archive["version"])
            addresses = archive["addresses"]
            kinds = archive["kinds"]
            components = archive["components"]
            label = bytes(archive["label"]).decode("utf-8")
        except KeyError as exc:
            raise ValueError(f"{path}: not a repro trace archive") from exc
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported trace format version {version} "
            f"(expected {_FORMAT_VERSION})"
        )
    return Trace(addresses, kinds, components, label)


def save_trace_columns(trace: Trace, directory: str | os.PathLike) -> None:
    """Write ``trace`` as one plain ``.npy`` file per column.

    The directory layout (as opposed to the ``.npz`` archive of
    :func:`save_trace`) exists for the runner's on-disk trace cache:
    plain ``.npy`` files can be opened with ``np.load(mmap_mode="r")``,
    so concurrent worker processes evaluating the same workload share
    the trace's physical pages instead of each decompressing a private
    copy.  ``.npz`` members cannot be memory-mapped.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    np.save(os.path.join(directory, "addresses.npy"), trace.addresses)
    np.save(os.path.join(directory, "kinds.npy"), trace.kinds)
    np.save(os.path.join(directory, "components.npy"), trace.components)
    meta = {"version": _FORMAT_VERSION, "label": trace.label}
    with open(os.path.join(directory, "meta.json"), "w") as handle:
        json.dump(meta, handle)


def load_trace_columns(
    directory: str | os.PathLike, mmap: bool = True
) -> Trace:
    """Load a trace written by :func:`save_trace_columns`.

    With ``mmap`` (the default) the columns are memory-mapped read-only;
    the OS pages them in on demand and shares them between processes.

    Raises:
        ValueError: if the directory is not a trace-column directory.
    """
    directory = os.fspath(directory)
    mode = "r" if mmap else None
    try:
        with open(os.path.join(directory, "meta.json")) as handle:
            meta = json.load(handle)
        columns = [
            np.load(os.path.join(directory, name), mmap_mode=mode)
            for name in _COLUMN_FILES
        ]
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"{directory}: not a trace-column directory") from exc
    except ValueError as exc:
        # numpy raises ValueError for truncated/corrupt .npy files (in
        # both mmap and eager modes); name the offending directory so
        # cache users can report — or reap — the bad entry.
        raise ValueError(
            f"{directory}: truncated or corrupt trace column ({exc})"
        ) from exc
    version = int(meta.get("version", -1))
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"{directory}: unsupported trace format version {version} "
            f"(expected {_FORMAT_VERSION})"
        )
    addresses, kinds, components = columns
    return Trace(addresses, kinds, components, str(meta.get("label", "")))
