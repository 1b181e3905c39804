"""Workload parameterization.

A workload is a set of *components* (user task, kernel, BSD server,
X server), each with its own code image and locality behaviour, plus
global interleaving and data-reference parameters.  These records are
the entire interface between the calibrated workload definitions
(:mod:`repro.workloads.ibs`, :mod:`repro.workloads.spec`) and the
synthesizer (:mod:`repro.workloads.generator`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass, field, replace

from repro._util.validate import check_fraction, check_positive
from repro.trace.record import Component

#: Version of the synthesis algorithm (:mod:`repro.workloads.generator`
#: re-exports it).  Bump whenever a change alters the trace produced
#: for a given ``(params, n_instructions, seed)`` — it is part of the
#: on-disk trace-cache key, so stale cached traces are never mistaken
#: for current ones.  Version 2 is the batched synthesizer; its traces
#: are statistically equivalent to v1's but not byte-identical, so every
#: v1 cache entry is invalid under v2.
GENERATOR_VERSION = 2


@dataclass(frozen=True)
class ComponentParams:
    """Behaviour of one workload component (one address-space domain).

    Attributes:
        exec_fraction: fraction of instructions executed in this
            component (the paper's Table 4 "% of execution time").
        code_kb: code footprint eventually touched, in KB — the primary
            bloat/calibration knob.
        theta: Zipf exponent of the procedure-reuse stack-distance
            distribution.  Lower values mean flatter reuse (more of the
            footprint is "warm"), raising miss ratios at every size.
        visit_instructions: mean instructions executed per procedure
            visit before moving to another procedure.
        mean_run: mean strictly-sequential run length in instructions
            (between taken branches).
        loop_back_prob: probability that a sequential run is a loop body
            that repeats.
        loop_mean_iters: mean extra iterations of a repeating run.
        branch_jump_prob: probability that, after a run, control
            transfers to a random position in the procedure (a taken
            branch) instead of falling through sequentially.
        mean_proc_bytes: mean procedure size in bytes.
        random_entry_fraction: probability that a visit enters the
            procedure at a uniformly-random instruction instead of the
            entry point — models execution resuming mid-body after a
            call return, so different visits to a large procedure touch
            different lines.
        data_kb: data footprint (heap + static), in KB.
    """

    exec_fraction: float
    code_kb: float
    theta: float = 1.30
    visit_instructions: float = 90.0
    mean_run: float = 6.0
    loop_back_prob: float = 0.25
    loop_mean_iters: float = 3.0
    branch_jump_prob: float = 0.55
    mean_proc_bytes: float = 512.0
    random_entry_fraction: float = 0.6
    data_kb: float = 256.0

    def __post_init__(self) -> None:
        check_fraction("exec_fraction", self.exec_fraction)
        check_positive("code_kb", self.code_kb)
        check_positive("theta", self.theta)
        check_positive("visit_instructions", self.visit_instructions)
        check_positive("mean_run", self.mean_run)
        check_fraction("loop_back_prob", self.loop_back_prob)
        if self.loop_mean_iters < 0:
            raise ValueError("loop_mean_iters must be >= 0")
        check_fraction("branch_jump_prob", self.branch_jump_prob)
        check_positive("mean_proc_bytes", self.mean_proc_bytes)
        check_fraction("random_entry_fraction", self.random_entry_fraction)
        check_positive("data_kb", self.data_kb)

    @property
    def n_procedures(self) -> int:
        """Number of procedures implied by the footprint and mean size."""
        return max(2, round(self.code_kb * 1024 / self.mean_proc_bytes))


@dataclass(frozen=True)
class WorkloadParams:
    """A complete synthetic workload description.

    Attributes:
        name: workload name (e.g. ``"groff"``).
        os_name: ``"mach3"`` or ``"ultrix"`` (or ``"ultrix4"`` for the
            SPEC measurements).
        description: the paper's Table 2 description, for reporting.
        components: per-component behaviour; ``exec_fraction`` values
            must sum to 1.
        burst_visits: mean procedure visits between component switches
            (OS activity is bursty — a system call executes many kernel
            procedures before returning).
        load_rate: loads per instruction.
        store_rate: stores per instruction.
        store_burst_len: mean length of consecutive-instruction store
            bursts (spills, structure writes); 1.0 means independent
            stores.  Burstiness is what exposes write-buffer depth.
        data_streaming_fraction: fraction of heap references that walk
            the data segment sequentially instead of reusing hot
            objects — near 1 for array-scanning FP code, small for
            pointer-chasing integer code.
        target_mpi_8kb: the paper's measured misses-per-100-instructions
            in an 8 KB direct-mapped, 32 B-line I-cache (Table 4), kept
            with the definition for validation; ``None`` when the paper
            gives no per-workload number.
    """

    name: str
    os_name: str
    description: str
    components: dict[Component, ComponentParams]
    burst_visits: float = 6.0
    load_rate: float = 0.20
    store_rate: float = 0.10
    store_burst_len: float = 3.0
    data_streaming_fraction: float = 0.20
    target_mpi_8kb: float | None = None

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a workload needs at least one component")
        total = sum(c.exec_fraction for c in self.components.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"{self.name}: component exec_fractions sum to {total}, not 1"
            )
        check_positive("burst_visits", self.burst_visits)
        check_fraction("load_rate", self.load_rate)
        check_fraction("store_rate", self.store_rate)
        if self.store_burst_len < 1.0:
            raise ValueError(
                f"store_burst_len must be >= 1, got {self.store_burst_len}"
            )
        check_fraction("data_streaming_fraction", self.data_streaming_fraction)

    @property
    def total_code_kb(self) -> float:
        """Total code footprint across all components."""
        return sum(c.code_kb for c in self.components.values())

    def scaled_footprint(self, factor: float) -> "WorkloadParams":
        """A copy with every component's code footprint scaled by ``factor``."""
        check_positive("factor", factor)
        new_components = {
            comp: replace(params, code_kb=params.code_kb * factor)
            for comp, params in self.components.items()
        }
        return replace(self, components=new_components)

    def scaled_visits(self, factor: float) -> "WorkloadParams":
        """A copy with every component's mean visit length scaled by
        ``factor`` — the calibration tool's primary degree of freedom
        (shorter visits = more procedure churn = higher MPI)."""
        check_positive("factor", factor)
        new_components = {
            comp: replace(
                params, visit_instructions=params.visit_instructions * factor
            )
            for comp, params in self.components.items()
        }
        return replace(self, components=new_components)


#: Digests already computed, by ``(id(params), generator_version)``.
#: Each value holds its params object, so that id cannot be reused
#: while the entry lives.  Bounded: calibration tools derive many
#: short-lived params objects.
_FINGERPRINTS: dict[tuple[int, int], tuple[WorkloadParams, str]] = {}
_FINGERPRINTS_MAX = 256
_FINGERPRINTS_LOCK = threading.Lock()


def params_fingerprint(
    params: WorkloadParams, generator_version: int | None = None
) -> str:
    """Hex digest of a workload's full parameterization.

    Covers every field of :class:`WorkloadParams` (components included)
    and the synthesizer version, so any recalibration or generator
    change produces a different trace-cache key (and a different
    serving-layer job key).  Computed once per params object and
    version: params records are never mutated (they are frozen; derive
    a changed one with ``dataclasses.replace``), so every lookup after
    the first reuses the digest.  :mod:`repro.runner.cache` re-exports
    it.
    """
    if generator_version is None:
        generator_version = GENERATOR_VERSION
    key = (id(params), generator_version)
    with _FINGERPRINTS_LOCK:
        entry = _FINGERPRINTS.get(key)
        if entry is None:
            if len(_FINGERPRINTS) >= _FINGERPRINTS_MAX:
                del _FINGERPRINTS[next(iter(_FINGERPRINTS))]
            entry = (params, _fingerprint(params, generator_version))
            _FINGERPRINTS[key] = entry
    return entry[1]


def _fingerprint(params: WorkloadParams, generator_version: int) -> str:
    record = dataclasses.asdict(params)
    # Component enum keys are not JSON keys; use their stable names.
    record["components"] = {
        component.name: fields
        for component, fields in record["components"].items()
    }
    payload = json.dumps(
        {"generator_version": generator_version, "params": record},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
