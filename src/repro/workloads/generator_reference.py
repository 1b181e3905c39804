"""The frozen v1 trace synthesizer (reference implementation).

This is the original per-visit synthesizer, kept verbatim as the
baseline that ``benchmarks/bench_workloads.py`` times the batched v2
synthesizer (:mod:`repro.workloads.generator`) against.  Nothing else
should import it; production synthesis — and the on-disk trace-cache
key via ``GENERATOR_VERSION`` — always goes through
:mod:`repro.workloads.generator`.

Turns a :class:`~repro.workloads.params.WorkloadParams` description into
a full address trace.  The model, bottom-up:

* **Runs**: straight-line bursts of sequential 4-byte instruction
  fetches, with geometric lengths (``mean_run``).  A run may be a loop
  body that repeats (``loop_back_prob`` / ``loop_mean_iters``).
* **Visits**: a procedure is entered and executed for a geometric number
  of instructions (``visit_instructions``), walking runs through its
  body (wrapping for long visits).
* **Procedure selection**: the next procedure is either a *discovery*
  (an unvisited callee reached through the call graph — this grows the
  footprint toward ``code_kb``) or a *revisit* chosen by LRU stack
  distance with Zipf(``theta``) weights — the locality model that
  determines the miss-ratio-versus-cache-size curve.
* **Components**: execution switches between the user task, kernel and
  (under Mach) the BSD/X servers in bursts, with stationary occupancy
  equal to each component's ``exec_fraction`` — reproducing the paper's
  Table 4 execution-time mix.
* **Data references**: loads/stores are attached to instructions at the
  configured rates, with addresses drawn from a per-component stack +
  heap model (:mod:`repro.workloads.datarefs`).

Everything is seeded; the same ``(params, n_instructions, seed)`` tuple
always produces the identical trace.
"""

from __future__ import annotations

import numpy as np

from repro._util.rng import make_rng, spawn
from repro.trace.record import Component, RefKind
from repro.trace.trace import Trace
from repro.workloads.callgraph import build_call_graph
from repro.workloads.codeimage import CodeImage, build_code_image
from repro.workloads.datarefs import DataReferenceModel
from repro.workloads.params import ComponentParams, WorkloadParams

#: The version this frozen implementation produced.  The live cache key
#: uses :data:`repro.workloads.generator.GENERATOR_VERSION`, not this.
GENERATOR_VERSION = 1


class _ComponentWalker:
    """Per-component execution state: code image, call graph, reuse stack."""

    def __init__(
        self,
        component: Component,
        params: ComponentParams,
        expected_visits: float,
        seed: int,
    ):
        self.component = component
        self.params = params
        self.image: CodeImage = build_code_image(
            component, params.n_procedures, params.mean_proc_bytes, seed
        )
        self.graph = build_call_graph(self.image, seed)
        self._rng = spawn(make_rng(seed), f"walker:{component.name}")
        n = len(self.image.procedures)
        # Zipf(theta) cumulative weights over stack distances 1..n.
        ranks = np.arange(1, n + 1, dtype=np.float64)
        self._zipf_cum = np.cumsum(ranks ** -params.theta)
        # Most-recently-visited-first list of procedure indices.
        self._mtf: list[int] = []
        self._visited = np.zeros(n, dtype=bool)
        self._frontier: list[int] = []
        # Static control-flow structure, built lazily per procedure:
        # each procedure is partitioned into basic blocks (geometric
        # lengths, mean = mean_run); every block ends at a fixed branch
        # site with a sticky taken-bias and target.  Real branch sites
        # are strongly biased one way (~90/10); the mostly-taken share
        # is chosen so the *average* taken rate stays at
        # branch_jump_prob (the calibrated sequentiality knob).
        self._block_ends: dict[int, list[int]] = {}
        self._sites: dict[tuple[int, int], tuple[float, int]] = {}
        p = params.branch_jump_prob
        self._site_hi, self._site_lo = 0.9, 0.1
        self._mostly_taken_share = min(
            1.0, max(0.0, (p - self._site_lo) / (self._site_hi - self._site_lo))
        )
        # Loop sites repeat their own block with geometric iterations.
        self._loop_bias = params.loop_mean_iters / (params.loop_mean_iters + 1.0)
        # Discovery probability sized so the footprint fills early in
        # the trace (within roughly the first quarter), leaving the
        # remainder in steady state.  The paper's 100 MB traces make
        # compulsory misses negligible; a measurement warmup window
        # (see repro.core.metrics) plays the same role here, and
        # front-loaded discovery keeps cold misses inside that window.
        if expected_visits > 0:
            self.discovery_prob = min(0.6, 4.0 * n / expected_visits)
        else:
            self.discovery_prob = 0.25
        self._unvisited_count = n

    # -- procedure selection -------------------------------------------

    def next_procedure(self) -> int:
        """Pick the next procedure to visit; updates the reuse stack."""
        rng = self._rng
        if not self._mtf:
            return self._discover(entry=True)
        if self._unvisited_count > 0 and rng.random() < self.discovery_prob:
            return self._discover(entry=False)
        m = len(self._mtf)
        if m == 1:
            return self._mtf[0]
        u = rng.random() * self._zipf_cum[m - 1]
        distance = int(np.searchsorted(self._zipf_cum, u, side="right"))
        distance = min(distance, m - 1)
        proc = self._mtf.pop(distance)
        self._mtf.insert(0, proc)
        return proc

    def _discover(self, entry: bool) -> int:
        """Visit a brand-new procedure, preferring call-graph neighbours."""
        rng = self._rng
        proc: int | None = None
        while self._frontier:
            candidate = self._frontier.pop()
            if not self._visited[candidate]:
                proc = candidate
                break
        if proc is None:
            if entry:
                proc = 0
            else:
                unvisited = np.flatnonzero(~self._visited)
                proc = int(unvisited[rng.integers(0, len(unvisited))])
        self._visited[proc] = True
        self._unvisited_count -= 1
        self._mtf.insert(0, proc)
        # Shuffle new unvisited callees into the frontier.
        callees = [
            callee
            for callee in self.graph[proc]
            if not self._visited[callee]
        ]
        if callees:
            rng.shuffle(callees)
            self._frontier.extend(callees)
        return proc

    # -- visit emission --------------------------------------------------

    def _blocks_of(self, proc_index: int, n_instr: int) -> list[int]:
        """The procedure's static basic-block end positions (sorted)."""
        ends = self._block_ends.get(proc_index)
        if ends is None:
            rng = self._rng
            p_block = 1.0 / self.params.mean_run
            ends = []
            position = -1
            while position < n_instr - 1:
                position = min(
                    position + int(rng.geometric(p_block)), n_instr - 1
                )
                ends.append(position)
            self._block_ends[proc_index] = ends
        return ends

    def _site_of(
        self, proc_index: int, end_pos: int, block_start: int, n_instr: int
    ) -> tuple[float, int]:
        """The static ``(taken bias, target)`` of one block's branch.

        With probability ``loop_back_prob`` the site is a loop back-edge
        (target = its own block start, bias giving ``loop_mean_iters``
        expected iterations); otherwise a biased forward/backward branch
        with a uniform fixed target.
        """
        key = (proc_index, end_pos)
        site = self._sites.get(key)
        if site is None:
            rng = self._rng
            params = self.params
            if rng.random() < params.loop_back_prob:
                site = (self._loop_bias, block_start)
            else:
                bias = (
                    self._site_hi
                    if rng.random() < self._mostly_taken_share
                    else self._site_lo
                )
                site = (bias, int(rng.integers(0, n_instr)))
            self._sites[key] = site
        return site

    def visit_runs(
        self, proc_index: int, budget: int, starts: list[int], lengths: list[int]
    ) -> int:
        """Append the runs of one procedure visit; return instructions used.

        The visit enters at the procedure base (or a random offset) and
        executes the procedure's *static* control-flow graph: sequential
        within basic blocks, with each block's fixed branch site
        deciding — by its sticky bias — whether to take its fixed
        target (loop back-edges included) or fall through.
        """
        from bisect import bisect_left

        params = self.params
        rng = self._rng
        proc = self.image.procedures[proc_index]
        n_instr = proc.n_instructions
        base = proc.base
        ends = self._blocks_of(proc_index, n_instr)
        if rng.random() < params.random_entry_fraction:
            pos = int(rng.integers(0, n_instr))
        else:
            pos = 0
        used = 0
        while used < budget:
            block_index = bisect_left(ends, pos)
            end = ends[block_index]
            run_len = min(end - pos + 1, budget - used)
            starts.append(base + 4 * pos)
            lengths.append(run_len)
            used += run_len
            if used >= budget or pos + run_len <= end:
                break  # budget exhausted (possibly mid-block)
            block_start = ends[block_index - 1] + 1 if block_index else 0
            bias, target = self._site_of(proc_index, end, block_start, n_instr)
            if rng.random() < bias:
                pos = target
            else:
                pos = end + 1
                if pos >= n_instr:
                    pos = 0
        return used


class TraceSynthesizer:
    """Synthesizes address traces from workload descriptions."""

    def __init__(self, params: WorkloadParams, seed: int = 0):
        self.params = params
        self.seed = seed

    def component_seed(self, component: Component) -> int:
        """The deterministic seed of one component's code image/walker.

        Computed from a fresh root each call, so external consumers
        (e.g. :mod:`repro.layout`) can rebuild the exact code image a
        trace was generated from.
        """
        root = make_rng(self.seed)
        return int(
            spawn(root, f"walker-seed:{component.name}").integers(0, 2**31)
        )

    def code_images(self) -> dict[Component, CodeImage]:
        """The code images a trace from this synthesizer executes.

        Identical (procedure for procedure) to the images the internal
        walkers build during :meth:`synthesize`.
        """
        return {
            component: build_code_image(
                component,
                params.n_procedures,
                params.mean_proc_bytes,
                self.component_seed(component),
            )
            for component, params in self.params.components.items()
        }

    def synthesize(self, n_instructions: int) -> Trace:
        """Generate a trace with ``n_instructions`` instruction fetches
        (plus the corresponding loads and stores)."""
        if n_instructions <= 0:
            raise ValueError(
                f"n_instructions must be positive, got {n_instructions}"
            )
        params = self.params
        root = make_rng(self.seed)
        control_rng = spawn(root, f"control:{params.name}")

        components = list(params.components)
        fractions = np.array(
            [params.components[c].exec_fraction for c in components]
        )
        mean_visit = sum(
            params.components[c].exec_fraction * params.components[c].visit_instructions
            for c in components
        )
        expected_total_visits = n_instructions / mean_visit
        walkers = {
            c: _ComponentWalker(
                c,
                params.components[c],
                expected_visits=expected_total_visits
                * params.components[c].exec_fraction,
                seed=self.component_seed(c),
            )
            for c in components
        }

        starts: list[int] = []
        lengths: list[int] = []
        run_components: list[int] = []

        switch_prob = 1.0 / params.burst_visits
        current = components[
            int(control_rng.choice(len(components), p=fractions))
        ]
        emitted = 0
        while emitted < n_instructions:
            if len(components) > 1 and control_rng.random() < switch_prob:
                current = components[
                    int(control_rng.choice(len(components), p=fractions))
                ]
            walker = walkers[current]
            cparams = walker.params
            budget = min(
                max(4, int(control_rng.geometric(1.0 / cparams.visit_instructions))),
                n_instructions - emitted,
            )
            proc = walker.next_procedure()
            runs_before = len(starts)
            used = walker.visit_runs(proc, budget, starts, lengths)
            run_components.extend(
                [int(current)] * (len(starts) - runs_before)
            )
            emitted += used

        return self._assemble(starts, lengths, run_components, root)

    # -- vectorized assembly ----------------------------------------------

    def _assemble(
        self,
        starts: list[int],
        lengths: list[int],
        run_components: list[int],
        root: np.random.Generator,
    ) -> Trace:
        """Expand runs into per-reference columns and weave in data refs."""
        params = self.params
        starts_arr = np.asarray(starts, dtype=np.uint64)
        lens_arr = np.asarray(lengths, dtype=np.int64)
        comps_arr = np.asarray(run_components, dtype=np.uint8)
        total = int(lens_arr.sum())

        # Instruction addresses: start-of-run + 4 * position-within-run.
        run_id = np.repeat(np.arange(len(lens_arr)), lens_arr)
        run_first = np.repeat(np.cumsum(lens_arr) - lens_arr, lens_arr)
        within = np.arange(total, dtype=np.int64) - run_first
        ifetch_addr = starts_arr[run_id] + np.uint64(4) * within.astype(np.uint64)
        ifetch_comp = comps_arr[run_id]

        # Attach loads/stores to instructions.  Stores come in bursts of
        # consecutive instructions (register spills, structure writes) —
        # the burstiness that exposes finite write-buffer depth.
        data_rng = spawn(root, "datarefs")
        is_store = self._store_mask(total, data_rng)
        u = data_rng.random(total)
        # Condition the load draw on not-store so the overall load rate
        # stays at params.load_rate.
        load_prob = min(1.0, params.load_rate / max(1.0 - params.store_rate, 1e-9))
        is_load = (~is_store) & (u < load_prob)
        has_data = is_load | is_store
        data_index = np.flatnonzero(has_data)
        n_data = len(data_index)

        data_model = DataReferenceModel(params, seed=self.seed)
        data_addr = data_model.addresses(
            ifetch_comp[data_index], is_store[data_index], data_rng
        )
        data_kind = np.where(
            is_store[data_index], np.uint8(RefKind.STORE), np.uint8(RefKind.LOAD)
        )

        # Interleave: each instruction's data reference directly follows
        # its fetch.
        data_flag = has_data.astype(np.int64)
        cum_data = np.cumsum(data_flag)
        ifetch_pos = np.arange(total, dtype=np.int64) + cum_data - data_flag
        data_pos = ifetch_pos[data_index] + 1

        out_len = total + n_data
        addresses = np.empty(out_len, dtype=np.uint64)
        kinds = np.empty(out_len, dtype=np.uint8)
        components_col = np.empty(out_len, dtype=np.uint8)
        addresses[ifetch_pos] = ifetch_addr
        kinds[ifetch_pos] = np.uint8(RefKind.IFETCH)
        components_col[ifetch_pos] = ifetch_comp
        addresses[data_pos] = data_addr
        kinds[data_pos] = data_kind
        components_col[data_pos] = ifetch_comp[data_index]

        label = f"{params.name}@{params.os_name}"
        return Trace(addresses, kinds, components_col, label)

    def _store_mask(self, total: int, rng: np.random.Generator) -> np.ndarray:
        """Per-instruction store flags with geometric burst lengths,
        preserving the overall ``store_rate``."""
        params = self.params
        if params.store_rate == 0.0 or total == 0:
            return np.zeros(total, dtype=bool)
        burst = max(params.store_burst_len, 1.0)
        start_prob = params.store_rate / burst
        starts = np.flatnonzero(rng.random(total) < start_prob)
        mask = np.zeros(total, dtype=bool)
        if len(starts) == 0:
            return mask
        lengths = rng.geometric(1.0 / burst, size=len(starts))
        positions = np.repeat(starts, lengths) + _burst_offsets(lengths)
        mask[positions[positions < total]] = True
        return mask


def _burst_offsets(lengths: np.ndarray) -> np.ndarray:
    """``[0..l0-1, 0..l1-1, ...]`` for a vector of burst lengths."""
    total = int(lengths.sum())
    firsts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return np.arange(total, dtype=np.int64) - firsts


def synthesize_trace(
    params: WorkloadParams, n_instructions: int, seed: int = 0
) -> Trace:
    """One-call convenience wrapper around :class:`TraceSynthesizer`."""
    return TraceSynthesizer(params, seed=seed).synthesize(n_instructions)
