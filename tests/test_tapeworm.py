"""Unit tests for trap-driven (Tapeworm) simulation."""

import numpy as np
import pytest

from repro.caches.base import CacheGeometry
from repro.tapeworm.trapdriven import TapewormSimulator, translate_lines
from repro.trace.rle import to_line_runs
from repro.vm.pagemap import IdentityPageMapper, RandomPageMapper


class TestTranslateLines:
    def test_identity(self):
        mapper = IdentityPageMapper()
        lines = np.array([0, 1, 200, 4096], dtype=np.uint64)
        assert np.array_equal(translate_lines(lines, 32, mapper), lines)

    def test_within_page_offsets_preserved(self):
        mapper = RandomPageMapper(seed=2)
        lines_per_page = 4096 // 32
        lines = np.array([5, 5 + lines_per_page], dtype=np.uint64)
        physical = translate_lines(lines, 32, mapper)
        assert physical[0] % lines_per_page == 5
        # Different virtual pages map to different frames.
        assert physical[0] // lines_per_page != physical[1] // lines_per_page

    def test_same_page_lines_stay_together(self):
        mapper = RandomPageMapper(seed=3)
        lines = np.array([128, 129, 130], dtype=np.uint64)
        physical = translate_lines(lines, 32, mapper)
        assert physical[1] == physical[0] + 1
        assert physical[2] == physical[0] + 2

    def test_rejects_bad_line_size(self):
        mapper = RandomPageMapper(seed=1)
        with pytest.raises(ValueError):
            translate_lines(np.array([0], np.uint64), 3000, mapper)


class TestTapewormSimulator:
    def _runs(self, trace):
        return to_line_runs(trace.ifetch_addresses(), 32)

    def test_trials_vary(self, medium_trace):
        simulator = TapewormSimulator()
        # A mid-size cache, where mapping luck matters.
        geometry = CacheGeometry(32 * 1024, 32, 1)
        result = simulator.run_trials(
            self._runs(medium_trace), geometry, n_trials=4, base_seed=1
        )
        values = [t.cpi_instr for t in result.trials]
        assert len(set(values)) > 1
        assert result.std_cpi > 0

    def test_deterministic_given_seed(self, medium_trace):
        simulator = TapewormSimulator()
        geometry = CacheGeometry(16 * 1024, 32, 1)
        runs = self._runs(medium_trace)
        a = simulator.run_trials(runs, geometry, n_trials=3, base_seed=9)
        b = simulator.run_trials(runs, geometry, n_trials=3, base_seed=9)
        assert [t.cpi_instr for t in a.trials] == [t.cpi_instr for t in b.trials]

    def test_associativity_reduces_variability(self, medium_trace):
        """The paper's Figure 5 point: small amounts of associativity
        suppress mapping-induced variability."""
        simulator = TapewormSimulator()
        runs = self._runs(medium_trace)
        direct = simulator.run_trials(
            runs, CacheGeometry(32 * 1024, 32, 1), n_trials=5, base_seed=2
        )
        four_way = simulator.run_trials(
            runs, CacheGeometry(32 * 1024, 32, 4), n_trials=5, base_seed=2
        )
        assert four_way.std_cpi < direct.std_cpi

    def test_mean_tracks_mpi(self, medium_trace):
        simulator = TapewormSimulator(miss_penalty=15.0)
        geometry = CacheGeometry(16 * 1024, 32, 1)
        result = simulator.run_trials(
            self._runs(medium_trace), geometry, n_trials=3, base_seed=4
        )
        assert result.mean_cpi == pytest.approx(result.mean_mpi * 15.0)

    def test_single_trial_zero_std(self, medium_trace):
        simulator = TapewormSimulator()
        geometry = CacheGeometry(16 * 1024, 32, 1)
        result = simulator.run_trials(
            self._runs(medium_trace), geometry, n_trials=1, base_seed=5
        )
        assert result.std_cpi == 0.0

    def test_rejects_bad_args(self, medium_trace):
        with pytest.raises(ValueError):
            TapewormSimulator(miss_penalty=0)
        simulator = TapewormSimulator()
        with pytest.raises(ValueError):
            simulator.run_trials(
                self._runs(medium_trace),
                CacheGeometry(16 * 1024, 32, 1),
                n_trials=0,
            )


class TestRunGrid:
    """``run_grid`` runs its trials one at a time, and each trial is
    exactly ``run_trials``'s."""

    GEOMETRIES = [
        CacheGeometry(size, 32, ways)
        for size in (8 * 1024, 32 * 1024)
        for ways in (1, 2)
    ]

    def test_matches_run_trials_per_geometry(self, small_trace):
        simulator = TapewormSimulator()
        runs = to_line_runs(small_trace.ifetch_addresses(), 32)
        grid = simulator.run_grid(
            runs, self.GEOMETRIES, n_trials=3, base_seed=4
        )
        assert grid == [
            simulator.run_trials(runs, geometry, n_trials=3, base_seed=4)
            for geometry in self.GEOMETRIES
        ]

    def test_one_trial_is_live_at_a_time(self, small_trace, monkeypatch):
        # Each trial's page-mapped stream (with its line-order memo and
        # masks) is dropped before the next trial is primed.
        import gc

        from repro.caches.vectorized import order_cache_stats
        from repro.tapeworm import trapdriven

        runs = to_line_runs(small_trace.ifetch_addresses(), 32)
        gc.collect()
        before = order_cache_stats()["entries"]
        entries = []
        prime = trapdriven.prime_mpi_masks

        def priming(stream, geometries):
            prime(stream, geometries)
            entries.append(order_cache_stats()["entries"] - before)

        monkeypatch.setattr(trapdriven, "prime_mpi_masks", priming)
        TapewormSimulator().run_grid(runs, self.GEOMETRIES, n_trials=3)
        assert len(entries) == 3
        assert entries[0] > 0
        assert max(entries) == entries[0]
