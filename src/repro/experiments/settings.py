"""Experiment settings and the serving layer's content keys.

Everything here is numpy-free: the server keys and answers a store hit
with these alone, without loading any simulator layer (see
:mod:`repro.service.scheduler`).  :mod:`repro.experiments.common`
re-exports every name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.config import DEFAULT_WARMUP_FRACTION
from repro.fetch.dispatch import ENGINES
from repro.workloads.params import params_fingerprint
from repro.workloads.suites import (
    DEFAULT_TRACE_INSTRUCTIONS,
    get_workload,
    list_workloads,
)

__all__ = [
    "DEFAULT_SETTINGS",
    "MODEL_VERSION",
    "ExperimentSettings",
    "canonical_job_key",
    "settings_record",
    "workloads_fingerprint",
]


@dataclass(frozen=True)
class ExperimentSettings:
    """Common knobs shared by every experiment.

    Attributes:
        n_instructions: trace length per workload.
        seed: synthesis seed (experiments are deterministic given it).
        warmup_fraction: measurement warmup window.
        engine: fetch-timing implementation (see
            :data:`repro.core.study.ENGINES`): ``"auto"`` takes the
            vectorized kernels where they apply, ``"reference"`` always
            steps the object engines, ``"vectorized"`` requires the
            kernels.
    """

    n_instructions: int = DEFAULT_TRACE_INSTRUCTIONS
    seed: int = 0
    warmup_fraction: float = DEFAULT_WARMUP_FRACTION
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )

    def scaled(self, factor: float) -> "ExperimentSettings":
        """A copy with the trace length scaled (tests use ~0.2)."""
        return ExperimentSettings(
            n_instructions=max(10_000, int(self.n_instructions * factor)),
            seed=self.seed,
            warmup_fraction=self.warmup_fraction,
            engine=self.engine,
        )


DEFAULT_SETTINGS = ExperimentSettings()


def settings_record(settings: ExperimentSettings) -> dict:
    """The JSON-stable record of one settings object (for cache keys).

    ``engine`` is deliberately absent: the differential tests pin the
    vectorized and reference paths bit-identical, so results computed
    under either engine are interchangeable and share cache/coalescing
    keys.
    """
    return {
        "n_instructions": settings.n_instructions,
        "seed": settings.seed,
        "warmup_fraction": settings.warmup_fraction,
    }


#: Version of the simulator semantics behind every result.  Bump it
#: whenever a change alters any number the experiments compute (the
#: golden digests in tests/test_golden.py are pinned to it): it is part
#: of every result key, so a persistent result store never serves
#: numbers computed by an older model.
MODEL_VERSION = 1

_workloads_fingerprint: str | None = None


def workloads_fingerprint() -> str:
    """One digest covering every registered workload's parameterization.

    Folds each workload's :func:`~repro.workloads.params.params_fingerprint`
    (which itself covers the generator version) into a single hash, so
    any recalibration, workload-set change, or synthesizer bump changes
    every canonical job key derived from it.  Computed once per process:
    the workload tables are module-level constants.
    """
    global _workloads_fingerprint
    if _workloads_fingerprint is None:
        digests = [
            params_fingerprint(get_workload(name, os_name))
            for name, os_name in sorted(list_workloads())
        ]
        payload = json.dumps(digests).encode("utf-8")
        _workloads_fingerprint = hashlib.sha256(payload).hexdigest()
    return _workloads_fingerprint


def canonical_job_key(
    kind: str,
    name: str,
    settings: ExperimentSettings,
    extra: dict | None = None,
) -> str:
    """Content address of one serving-layer job.

    Hashes everything that determines the job's output — the job kind
    (``"experiment"`` / ``"evaluate"``), its target name, the full
    :class:`ExperimentSettings`, any request-specific knobs (``extra``:
    OS, configuration, mechanism...), the workload/generator
    fingerprint and :data:`MODEL_VERSION` — so two requests share a key
    exactly when their results are interchangeable.
    """
    payload = json.dumps(
        {
            "kind": kind,
            "name": name,
            "settings": settings_record(settings),
            "extra": extra or {},
            "workloads": workloads_fingerprint(),
            "model_version": MODEL_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
