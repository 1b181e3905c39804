"""Unit tests for TLB simulation."""

import numpy as np
import pytest

from repro.caches.base import ReplacementPolicy
from repro.tlb.tlb import (
    R2000_TLB_ENTRIES,
    Tlb,
    TlbResult,
    simulate_tlb,
)


class TestTlbSequential:
    def test_hit_after_fill(self):
        tlb = Tlb(n_entries=4)
        assert tlb.access(0x1000) is False
        assert tlb.access(0x1ffc) is True  # same page

    def test_capacity_eviction_lru(self):
        tlb = Tlb(n_entries=2, policy=ReplacementPolicy.LRU)
        tlb.access_page(1)
        tlb.access_page(2)
        tlb.access_page(1)  # refresh
        tlb.access_page(3)  # evicts 2
        assert tlb.access_page(1) is True
        assert tlb.access_page(2) is False

    def test_random_replacement_deterministic(self):
        def run(seed):
            tlb = Tlb(n_entries=8, policy=ReplacementPolicy.RANDOM, seed=seed)
            return [tlb.access_page(p % 12) for p in range(100)]

        assert run(3) == run(3)

    def test_miss_ratio(self):
        tlb = Tlb(n_entries=64)
        for page in range(10):
            tlb.access_page(page)
        for page in range(10):
            tlb.access_page(page)
        assert tlb.miss_ratio == pytest.approx(0.5)

    def test_invalidate_all(self):
        tlb = Tlb(n_entries=4)
        tlb.access_page(1)
        tlb.invalidate_all()
        assert tlb.access_page(1) is False

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            Tlb(n_entries=0)
        with pytest.raises(ValueError):
            Tlb(page_size=1000)


class TestSimulateTlb:
    def test_matches_sequential_lru(self):
        rng = np.random.default_rng(1)
        addresses = (rng.integers(0, 200, 5000) * 4096 + rng.integers(
            0, 4096, 5000
        )).astype(np.uint64)
        vec = simulate_tlb(addresses, n_instructions=5000, n_entries=64)
        assert vec.misses == self._sequential_misses(addresses, 64, 0.0)

    @staticmethod
    def _sequential_misses(addresses, n_entries, warmup_fraction):
        """Misses of the per-reference LRU walk at or after the cut."""
        tlb = Tlb(n_entries=n_entries, policy=ReplacementPolicy.LRU)
        cut = int(warmup_fraction * len(addresses))
        misses = 0
        for index, address in enumerate(addresses.tolist()):
            hit = tlb.access(address)
            if index >= cut and not hit:
                misses += 1
        return misses

    @pytest.mark.parametrize("warmup_fraction", [0.1, 0.5])
    def test_matches_sequential_lru_after_warmup(self, warmup_fraction):
        rng = np.random.default_rng(2)
        pages = np.repeat(rng.integers(0, 200, 1500), rng.integers(1, 6, 1500))
        addresses = (
            pages * 4096 + rng.integers(0, 4096, len(pages))
        ).astype(np.uint64)
        vec = simulate_tlb(
            addresses, n_instructions=len(addresses), n_entries=64,
            warmup_fraction=warmup_fraction,
        )
        assert vec.misses == self._sequential_misses(
            addresses, 64, warmup_fraction
        )

    def test_page_run_straddling_the_cut(self):
        # Runs of 7 references; the cut (reference 157) falls inside
        # the run at 154..160, a first touch, so its miss is before
        # the cut and not counted.
        rng = np.random.default_rng(3)
        pages = rng.integers(0, 80, 90)
        pages[22] = 10_000
        addresses = (np.repeat(pages, 7) * 4096).astype(np.uint64)
        cut = int(0.25 * len(addresses))
        assert cut % 7 and cut // 7 == 22
        vec = simulate_tlb(
            addresses, n_instructions=len(addresses), n_entries=16,
            warmup_fraction=0.25,
        )
        assert vec.misses == self._sequential_misses(addresses, 16, 0.25)

    def test_small_working_set_no_misses_after_fill(self):
        addresses = np.tile(
            np.arange(10, dtype=np.uint64) * 4096, 50
        )
        result = simulate_tlb(addresses, n_instructions=500, n_entries=64)
        assert result.misses == 10  # compulsory only

    def test_result_properties(self):
        result = TlbResult(references=1000, misses=10, instructions=500)
        assert result.miss_ratio == pytest.approx(0.01)
        assert result.mpi == pytest.approx(0.02)
        assert result.cpi_contribution(24) == pytest.approx(0.48)

    def test_empty(self):
        result = simulate_tlb(np.zeros(0, np.uint64), n_instructions=0)
        assert result.misses == 0
        assert result.mpi == 0.0

    def test_ibs_misses_more_than_spec(self, medium_trace, spec_trace):
        ibs = simulate_tlb(
            medium_trace.addresses, medium_trace.instruction_count
        )
        spec = simulate_tlb(spec_trace.addresses, spec_trace.instruction_count)
        assert ibs.mpi > spec.mpi

    def test_r2000_default_entries(self):
        assert R2000_TLB_ENTRIES == 64
