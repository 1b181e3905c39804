"""The trace synthesizer (batched v2).

Turns a :class:`~repro.workloads.params.WorkloadParams` description into
a full address trace.  The model, bottom-up:

* **Runs**: straight-line bursts of sequential 4-byte instruction
  fetches.  Each procedure is partitioned into static basic blocks
  (geometric lengths, mean = ``mean_run``); every block ends at a fixed
  branch site with a sticky taken-bias and target.  A site may be a
  loop back-edge that repeats its block (``loop_back_prob`` /
  ``loop_mean_iters``).
* **Visits**: a procedure is entered and executed for a geometric number
  of instructions (``visit_instructions``), walking runs through its
  static control-flow graph (wrapping for long visits).
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

The synthesizer walks visits in bulk.  The component schedule, visit
budgets, Zipf stack distances and entry points are drawn in large
blocks, and the run walk advances *every* visit of a component
simultaneously, one basic block per level, over compacted numpy arrays.
A level's cost barely depends on how many visits it carries, and a few
long visits can stay live for thousands of levels, so the last few
live visits finish in a Python scalar walk that draws the same
per-level RNG blocks.  Loop iterations are emitted as
``(start, length, count)`` run records; assembly expands them to
per-instruction columns with ``np.repeat``.  The other sequential step
is footprint discovery (the move-to-front stack and call-graph
frontier), which is inherently order-dependent and runs as a cheap
O(visits) decode of pre-drawn batched choices.

Everything is seeded; the same ``(params, n_instructions, seed)`` tuple
always produces the identical trace.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro._util.rng import make_rng, spawn
from repro.trace.record import Component, RefKind
from repro.trace.trace import Trace
from repro.workloads.callgraph import build_call_graph
from repro.workloads.codeimage import CodeImage, build_code_image
from repro.workloads.datarefs import DataReferenceModel
# GENERATOR_VERSION is defined with the parameter records (so reading
# it loads no numpy) and re-exported here, beside the code it versions.
from repro.workloads.params import (
    GENERATOR_VERSION,
    ComponentParams,
    WorkloadParams,
)

# Real branch sites are strongly biased one way (~90/10); the
# mostly-taken share is chosen so the *average* taken rate stays at
# branch_jump_prob (the calibrated sequentiality knob).
_SITE_HI, _SITE_LO = 0.9, 0.1

#: Live-visit count at or below which the run walk drops from numpy
#: arrays to Python scalars.  An array level costs about the same
#: however few visits it carries, while long visits keep a handful of
#: them live for thousands of levels.
_SCALAR_TAIL = 16


class _ComponentPlan:
    """Per-component batched execution state: code image, call graph,
    static control-flow structure, and the pre-drawn choice streams."""

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
        # Independent child streams (fixed spawn order = determinism):
        # one per concern, so reordering draws inside one stage cannot
        # perturb the others.
        base = spawn(make_rng(seed), f"walker:{component.name}")
        self._rng_cfg = spawn(base, "cfg")
        self._rng_select = spawn(base, "select")
        self._rng_frontier = spawn(base, "frontier")
        self._rng_runs = spawn(base, "runs")

        n = len(self.image.procedures)
        # Zipf(theta) cumulative weights over stack distances 1..n.
        ranks = np.arange(1, n + 1, dtype=np.float64)
        self._zipf_cum = np.cumsum(ranks ** -params.theta)
        self._visited = np.zeros(n, dtype=bool)
        self._frontier: list[int] = []
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
        self._proc_lengths = np.array(
            [p.n_instructions for p in self.image.procedures], dtype=np.int64
        )
        self._proc_bases = np.array(
            [p.base for p in self.image.procedures], dtype=np.uint64
        )
        self._build_cfg()

    # -- static control flow ----------------------------------------------

    def _build_cfg(self) -> None:
        """Draw every procedure's static basic blocks and branch sites.

        Blocks are geometric partitions of the procedure body; each
        block's branch site is, with probability ``loop_back_prob``, a
        loop back-edge (target = its own block start, bias giving
        ``loop_mean_iters`` expected iterations), otherwise a biased
        forward/backward branch with a uniform fixed target.
        """
        rng = self._rng_cfg
        params = self.params
        p_block = 1.0 / params.mean_run
        mostly_taken_share = min(
            1.0,
            max(0.0, (params.branch_jump_prob - _SITE_LO) / (_SITE_HI - _SITE_LO)),
        )
        self._loop_bias = params.loop_mean_iters / (params.loop_mean_iters + 1.0)

        ends_per_proc: list[np.ndarray] = []
        for n in self._proc_lengths.tolist():
            need = max(8, int(n * p_block * 1.5) + 8)
            while True:
                cum = np.cumsum(rng.geometric(p_block, size=need)) - 1
                if int(cum[-1]) >= n - 1:
                    break
                need *= 2
            last = int(np.searchsorted(cum, n - 1, side="left"))
            ends = cum[: last + 1].astype(np.int64)
            ends[last] = n - 1
            ends_per_proc.append(ends)

        nblocks = np.array([len(e) for e in ends_per_proc], dtype=np.int64)
        ends = np.concatenate(ends_per_proc)
        offsets = np.cumsum(nblocks) - nblocks
        starts = np.empty_like(ends)
        starts[offsets] = 0
        interior = np.ones(len(ends), dtype=bool)
        interior[offsets] = False
        starts[interior] = ends[np.flatnonzero(interior) - 1] + 1

        n_rep = np.repeat(self._proc_lengths, nblocks)
        u_kind = rng.random(len(ends))
        u_bias = rng.random(len(ends))
        u_target = rng.random(len(ends))
        is_loop = u_kind < params.loop_back_prob
        self._block_ends = ends
        self._block_start = starts
        self._block_is_loop = is_loop
        self._block_bias = np.where(u_bias < mostly_taken_share, _SITE_HI, _SITE_LO)
        self._block_target = np.where(
            is_loop, starts, (u_target * n_rep).astype(np.int64)
        )
        # Within a procedure block ends are strictly increasing, so
        # offsetting each procedure's ends by its cumulative length
        # yields one globally sorted array — a single searchsorted then
        # resolves the current block for every active visit at once.
        self._pos_base = np.cumsum(self._proc_lengths) - self._proc_lengths
        self._block_ends_global = ends + np.repeat(self._pos_base, nblocks)

    # -- procedure selection -----------------------------------------------

    def select_procedures(self, n_visits: int) -> np.ndarray:
        """Pick the procedure of each visit, batched.

        Discovery flags and Zipf stack distances are drawn for all
        visits up front (the stack size before each visit is a cumsum
        of the discovery flags, so revisit distances batch through one
        ``searchsorted``); only the move-to-front decode — inherently
        sequential — walks the visits in Python, doing pure list ops.
        """
        n = len(self._proc_lengths)
        rng = self._rng_select
        u_disc = rng.random(n_visits)
        u_zipf = rng.random(n_visits)
        candidate = u_disc < self.discovery_prob
        if n_visits:
            candidate[0] = True  # first visit must discover
        is_disc = candidate & (np.cumsum(candidate) <= n)
        discovered_before = np.cumsum(is_disc) - is_disc
        revisit = np.flatnonzero(~is_disc)
        distances = np.zeros(n_visits, dtype=np.int64)
        if len(revisit):
            m = discovered_before[revisit]  # stack size, >= 1 after visit 0
            u = u_zipf[revisit] * self._zipf_cum[m - 1]
            drawn = np.searchsorted(self._zipf_cum, u, side="right")
            distances[revisit] = np.minimum(drawn, m - 1)

        procs = np.empty(n_visits, dtype=np.int64)
        mtf: list[int] = []
        disc_list = is_disc.tolist()
        dist_list = distances.tolist()
        for t in range(n_visits):
            if disc_list[t]:
                proc = self._discover(entry=not mtf)
                mtf.insert(0, proc)
            else:
                distance = dist_list[t]
                if distance:
                    proc = mtf.pop(distance)
                    mtf.insert(0, proc)
                else:
                    proc = mtf[0]
            procs[t] = proc
        return procs

    def _discover(self, entry: bool) -> int:
        """Visit a brand-new procedure, preferring call-graph neighbours."""
        rng = self._rng_frontier
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
        callees = [
            callee
            for callee in self.graph[proc]
            if not self._visited[callee]
        ]
        if callees:
            rng.shuffle(callees)
            self._frontier.extend(callees)
        return proc

    # -- run emission ------------------------------------------------------

    def visit_runs(
        self, procs: np.ndarray, budgets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The runs of every visit, walked level-by-level in parallel.

        All visits advance through their procedure's static CFG one
        basic block per level, over arrays compacted to the visits that
        still have budget.  A level costs a few dozen numpy calls however
        few visits remain live, so once at most :data:`_SCALAR_TAIL`
        are left, :meth:`_walk_tail` finishes them as Python scalars.
        Both walks draw the same per-level RNG blocks, so the split
        point never changes the trace.  Loop back-edges emit their
        repeats as a single ``(start, length, count)`` record instead of
        per iteration.  Returns ``(visit, start_addr, length, count)``
        record columns; records of one visit appear in execution order
        once the caller stable-sorts by visit.
        """
        params = self.params
        rng = self._rng_runs
        nv = len(procs)
        if nv == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0, dtype=np.uint64), empty.copy(), empty.copy()

        n_instr = self._proc_lengths[procs]
        base = self._proc_bases[procs]
        pos_base = self._pos_base[procs]
        u_entry = rng.random(nv)
        u_pos = rng.random(nv)
        pos = np.where(
            u_entry < params.random_entry_fraction,
            (u_pos * n_instr).astype(np.int64),
            0,
        )
        rem = np.asarray(budgets, dtype=np.int64).copy()
        idx = np.arange(nv, dtype=np.int64)
        live = rem > 0
        idx, pos, rem, n_instr, base, pos_base = (
            a[live] for a in (idx, pos, rem, n_instr, base, pos_base)
        )

        p_loop_exit = 1.0 / (params.loop_mean_iters + 1.0)
        out_v: list[np.ndarray] = []
        out_s: list[np.ndarray] = []
        out_l: list[np.ndarray] = []
        out_c: list[np.ndarray] = []
        ends_global = self._block_ends_global
        while idx.size > _SCALAR_TAIL:
            k = idx.size
            block = np.searchsorted(ends_global, pos + pos_base, side="left")
            end = self._block_ends[block]
            bstart = self._block_start[block]
            is_loop = self._block_is_loop[block]
            bias = self._block_bias[block]
            target = self._block_target[block]

            natural = end - pos + 1
            run_len = np.minimum(natural, rem)
            completed = natural <= rem
            rem_after = rem - run_len
            out_v.append(idx)
            out_s.append(base + np.uint64(4) * pos.astype(np.uint64))
            out_l.append(run_len)
            out_c.append(np.ones(k, dtype=np.int64))

            # Loop back-edges: the whole geometric iteration count at
            # once.  Full repeats become one counted record; a final
            # iteration cut short by the budget becomes a partial one.
            extra = rng.geometric(p_loop_exit, size=k) - 1
            u_branch = rng.random(k)
            looping = completed & is_loop & (extra > 0) & (rem_after > 0)
            if looping.any():
                block_len = end - bstart + 1
                full = np.zeros(k, dtype=np.int64)
                full[looping] = np.minimum(
                    extra[looping], rem_after[looping] // block_len[looping]
                )
                repeats = full > 0
                if repeats.any():
                    out_v.append(idx[repeats])
                    out_s.append(
                        base[repeats]
                        + np.uint64(4) * bstart[repeats].astype(np.uint64)
                    )
                    out_l.append(block_len[repeats])
                    out_c.append(full[repeats])
                    rem_after = rem_after - full * block_len
                cut = looping & (full < extra) & (rem_after > 0)
                if cut.any():
                    out_v.append(idx[cut])
                    out_s.append(
                        base[cut] + np.uint64(4) * bstart[cut].astype(np.uint64)
                    )
                    out_l.append(rem_after[cut])
                    out_c.append(np.ones(int(cut.sum()), dtype=np.int64))
                    rem_after = np.where(cut, 0, rem_after)

            # Next position: loop sites fall through once done; other
            # sites take their sticky-biased branch or fall through,
            # wrapping past the procedure end.
            taken = completed & ~is_loop & (u_branch < bias)
            fall = end + 1
            new_pos = np.where(taken, target, np.where(fall >= n_instr, 0, fall))
            live = rem_after > 0
            idx, pos, rem, n_instr, base, pos_base = (
                a[live]
                for a in (idx, new_pos, rem_after, n_instr, base, pos_base)
            )

        if idx.size:
            tail = self._walk_tail(idx, pos, rem, n_instr, base, pos_base)
            for out, column in zip((out_v, out_s, out_l, out_c), tail):
                out.append(column)
        return (
            np.concatenate(out_v),
            np.concatenate(out_s),
            np.concatenate(out_l),
            np.concatenate(out_c),
        )

    def _walk_tail(
        self,
        idx: np.ndarray,
        pos: np.ndarray,
        rem: np.ndarray,
        n_instr: np.ndarray,
        base: np.ndarray,
        pos_base: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Finish the last live visits of :meth:`visit_runs` as scalars.

        The same walk as the array levels, one visit at a time in
        Python: each level still draws one ``geometric`` block and then
        one ``random`` block of the live-visit count, in that order, so
        the stream matches the array walk draw for draw.  (The draws
        cannot be pre-drawn across levels: for small ``p`` numpy's
        ``geometric`` consumes a variable number of raw draws.)  Each
        visit carries its procedure's blocks as tuples and finds its
        current block with ``bisect`` on the procedure-local ends.
        """
        rng = self._rng_runs
        p_loop_exit = 1.0 / (self.params.loop_mean_iters + 1.0)
        ends_global = self._block_ends_global
        first = np.searchsorted(ends_global, pos_base, side="left").tolist()
        stop = np.searchsorted(
            ends_global, pos_base + n_instr - 1, side="right"
        ).tolist()
        block_columns = (
            self._block_ends, self._block_start, self._block_is_loop,
            self._block_bias, self._block_target,
        )
        walks = []
        for v, p, r, n, b, lo, hi in zip(
            idx.tolist(), pos.tolist(), rem.tolist(), n_instr.tolist(),
            base.tolist(), first, stop,
        ):
            columns = [column[lo:hi].tolist() for column in block_columns]
            walks.append([p, r, v, n, b, columns[0], list(zip(*columns))])

        out_v: list[int] = []
        out_s: list[int] = []
        out_l: list[int] = []
        out_c: list[int] = []
        while walks:
            k = len(walks)
            geometric = rng.geometric(p_loop_exit, size=k).tolist()
            u_branch = rng.random(k).tolist()
            for walk, g, u in zip(walks, geometric, u_branch):
                p, r, v, n, b, ends, blocks = walk
                end, bstart, is_loop, bias, target = blocks[bisect_left(ends, p)]
                natural = end - p + 1
                completed = natural <= r
                run_len = natural if completed else r
                r -= run_len
                out_v.append(v)
                out_s.append(b + 4 * p)
                out_l.append(run_len)
                out_c.append(1)
                extra = g - 1
                if completed and is_loop and extra > 0 and r > 0:
                    block_len = end - bstart + 1
                    full = min(extra, r // block_len)
                    if full > 0:
                        out_v.append(v)
                        out_s.append(b + 4 * bstart)
                        out_l.append(block_len)
                        out_c.append(full)
                        r -= full * block_len
                    if full < extra and r > 0:
                        out_v.append(v)
                        out_s.append(b + 4 * bstart)
                        out_l.append(r)
                        out_c.append(1)
                        r = 0
                if completed and not is_loop and u < bias:
                    walk[0] = target
                else:
                    walk[0] = 0 if end + 1 >= n else end + 1
                walk[1] = r
            walks = [walk for walk in walks if walk[1] > 0]

        return (
            np.array(out_v, dtype=np.int64),
            np.array(out_s, dtype=np.uint64),
            np.array(out_l, dtype=np.int64),
            np.array(out_c, dtype=np.int64),
        )


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
        plans build during :meth:`synthesize`.
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
            params.components[c].exec_fraction
            * params.components[c].visit_instructions
            for c in components
        )
        expected_total_visits = n_instructions / mean_visit
        plans = {
            c: _ComponentPlan(
                c,
                params.components[c],
                expected_visits=expected_total_visits
                * params.components[c].exec_fraction,
                seed=self.component_seed(c),
            )
            for c in components
        }

        comp_seq, budget_seq = self._plan_schedule(
            n_instructions, components, fractions, control_rng
        )

        # Each component emits the run records of all its visits at
        # once; a stable sort on global visit id then interleaves the
        # components back into schedule order.
        comp_values = np.array([int(c) for c in components], dtype=np.uint8)
        rec_visit: list[np.ndarray] = []
        rec_start: list[np.ndarray] = []
        rec_len: list[np.ndarray] = []
        rec_count: list[np.ndarray] = []
        rec_comp: list[np.ndarray] = []
        for ci, component in enumerate(components):
            visit_ids = np.flatnonzero(comp_seq == ci)
            if not len(visit_ids):
                continue
            plan = plans[component]
            procs = plan.select_procedures(len(visit_ids))
            v, s, length, count = plan.visit_runs(procs, budget_seq[visit_ids])
            rec_visit.append(visit_ids[v])
            rec_start.append(s)
            rec_len.append(length)
            rec_count.append(count)
            rec_comp.append(np.full(len(v), comp_values[ci], dtype=np.uint8))

        order = np.argsort(np.concatenate(rec_visit), kind="stable")
        return self._assemble(
            np.concatenate(rec_start)[order],
            np.concatenate(rec_len)[order],
            np.concatenate(rec_count)[order],
            np.concatenate(rec_comp)[order],
            root,
        )

    def _plan_schedule(
        self,
        n_instructions: int,
        components: list[Component],
        fractions: np.ndarray,
        control_rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The visit schedule: which component runs each visit, and for
        how many instructions — drawn in large blocks.

        Component switches are a Markov chain (switch with probability
        ``1/burst_visits``, redraw from the exec-fraction mix); filling
        the chain is a cumsum-gather over the switch points.  The block
        is oversized, then truncated at the visit that crosses
        ``n_instructions``, whose budget is clipped to land exactly.
        """
        n_comp = len(components)
        visit_means = np.array(
            [self.params.components[c].visit_instructions for c in components],
            dtype=np.float64,
        )
        switch_prob = 1.0 / self.params.burst_visits
        current = int(control_rng.choice(n_comp, p=fractions))

        mean_visit = float(fractions @ visit_means)
        block = int(n_instructions / max(mean_visit, 1.0)) + 64
        comp_chunks: list[np.ndarray] = []
        budget_chunks: list[np.ndarray] = []
        total = 0
        while total < n_instructions:
            size = max(256, block)
            if n_comp > 1:
                switch = control_rng.random(size) < switch_prob
                n_switches = int(switch.sum())
                draws = (
                    control_rng.choice(n_comp, size=n_switches, p=fractions)
                    if n_switches
                    else np.zeros(0, dtype=np.int64)
                )
                filled = np.concatenate(
                    ([current], np.asarray(draws, dtype=np.int64))
                )
                seq = filled[np.cumsum(switch)]
                current = int(seq[-1])
            else:
                seq = np.zeros(size, dtype=np.int64)
            budgets = np.maximum(
                4, control_rng.geometric(1.0 / visit_means[seq])
            ).astype(np.int64)
            comp_chunks.append(seq)
            budget_chunks.append(budgets)
            total += int(budgets.sum())
            block = max(256, block // 4)

        comp_seq = np.concatenate(comp_chunks)
        budget_seq = np.concatenate(budget_chunks)
        cum = np.cumsum(budget_seq)
        n_visits = int(np.searchsorted(cum, n_instructions, side="left")) + 1
        comp_seq = comp_seq[:n_visits]
        budget_seq = budget_seq[:n_visits].copy()
        budget_seq[-1] -= int(cum[n_visits - 1]) - n_instructions
        return comp_seq, budget_seq

    # -- vectorized assembly ----------------------------------------------

    def _assemble(
        self,
        starts: np.ndarray,
        lengths: np.ndarray,
        counts: np.ndarray,
        record_components: np.ndarray,
        root: np.random.Generator,
    ) -> Trace:
        """Expand run records into per-reference columns and weave in
        data refs.

        Record ``i`` stands for ``counts[i]`` back-to-back runs of
        ``lengths[i]`` instructions from ``starts[i]`` (uint64), all in
        component ``record_components[i]``.
        """
        params = self.params
        run_lens = np.repeat(lengths, counts)
        total = int(run_lens.sum())

        # Instruction t of a run whose first instruction is trace
        # instruction ``first`` sits at start + 4*(t - first): one
        # repeat of ``start - 4*first`` plus 4*t.  The uint64
        # subtraction may wrap; adding 4*t wraps it back.
        first = (np.cumsum(run_lens) - run_lens).astype(np.uint64)
        ifetch_addr = np.repeat(
            np.repeat(starts, counts) - np.uint64(4) * first, run_lens
        )
        ifetch_addr += np.arange(0, 4 * total, 4, dtype=np.uint64)
        ifetch_comp = np.repeat(record_components, lengths * counts)

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
        # its fetch.  Repeating every instruction once per reference it
        # issues gets the fetch columns (and the data references'
        # components) in place; the j-th data reference sits right
        # after its instruction, which j earlier data references push
        # back by j.
        refs = has_data.astype(np.intp) + 1
        addresses = np.repeat(ifetch_addr, refs)
        components_col = np.repeat(ifetch_comp, refs)
        kinds = np.full(total + n_data, RefKind.IFETCH, dtype=np.uint8)
        data_pos = data_index + np.arange(1, n_data + 1)
        addresses[data_pos] = data_addr
        kinds[data_pos] = data_kind

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
