"""Unit tests for the workload registry and trace cache."""

import pytest

from repro.workloads.ibs import IBS_WORKLOADS, ibs_workload
from repro.workloads.registry import (
    clear_trace_cache,
    get_trace,
    get_workload,
    list_workloads,
    suite_names,
    suite_workloads,
)
from repro.workloads.spec import spec_workload


class TestLookups:
    def test_ibs_mach(self):
        workload = get_workload("groff", "mach3")
        assert workload.name == "groff"
        assert workload.os_name == "mach3"

    def test_ibs_ultrix_derived(self):
        workload = get_workload("groff", "ultrix")
        assert workload.os_name == "ultrix"

    @pytest.mark.parametrize("os_name", ["mach3", "ultrix", "spec92"])
    def test_one_object_per_workload(self, os_name):
        # Trace-cache fingerprints are memoized per params object.
        name = list_workloads(os_name)[0][0]
        assert get_workload(name, os_name) is get_workload(name, os_name)

    def test_spec(self):
        workload = get_workload("eqntott", "spec92")
        assert workload.name == "eqntott"

    def test_spec89(self):
        assert get_workload("matrix300", "spec89").os_name == "spec89"

    @pytest.mark.parametrize(
        "name,os_name",
        [("nonesuch", "mach3"), ("groff", "spec92"), ("groff", "bsd")],
    )
    def test_unknown(self, name, os_name):
        with pytest.raises(KeyError):
            get_workload(name, os_name)

    def test_ibs_workload_helper(self):
        assert ibs_workload("gs").name == "gs"
        with pytest.raises(KeyError):
            ibs_workload("nonesuch")

    def test_spec_workload_helper(self):
        assert spec_workload("fpppp").name == "fpppp"
        with pytest.raises(KeyError):
            spec_workload("nonesuch")


class TestSuites:
    def test_suite_names(self):
        names = suite_names()
        for expected in ("ibs-mach3", "ibs-ultrix", "spec92",
                         "specint92", "specfp92", "specint89", "specfp89"):
            assert expected in names

    def test_ibs_suite_has_eight_workloads(self):
        assert len(suite_workloads("ibs-mach3")) == 8
        assert len(suite_workloads("ibs-ultrix")) == 8

    def test_spec92_union(self):
        spec = suite_workloads("spec92")
        assert len(spec) == len(suite_workloads("specint92")) + len(
            suite_workloads("specfp92")
        )

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            suite_workloads("spec2006")

    def test_list_workloads_filter(self):
        all_pairs = list_workloads()
        mach_only = list_workloads("mach3")
        assert len(mach_only) == 8
        assert set(mach_only).issubset(set(all_pairs))

    def test_every_ibs_workload_has_paper_target(self):
        for workload in IBS_WORKLOADS.values():
            assert workload.target_mpi_8kb is not None
            assert workload.description


class TestTraceCache:
    def test_cache_returns_same_object(self):
        a = get_trace("gcc", "mach3", 10_000, seed=42)
        b = get_trace("gcc", "mach3", 10_000, seed=42)
        assert a is b

    def test_distinct_keys_distinct_traces(self):
        a = get_trace("gcc", "mach3", 10_000, seed=42)
        b = get_trace("gcc", "mach3", 10_000, seed=43)
        assert a is not b

    def test_clear(self):
        a = get_trace("gcc", "mach3", 10_000, seed=44)
        clear_trace_cache()
        b = get_trace("gcc", "mach3", 10_000, seed=44)
        assert a is not b


class TestBoundedCache:
    """The in-memory layer is a bounded LRU, not an unbounded dict."""

    def _restore(self):
        from repro.workloads.registry import configure_trace_cache

        configure_trace_cache(max_entries=64, max_bytes=2 * 1024**3)

    def test_stats_report_bounds(self):
        from repro.workloads.registry import trace_cache_stats

        stats = trace_cache_stats()
        assert stats["max_entries"] > 0
        assert stats["max_bytes"] > 0
        assert stats["entries"] >= 0

    def test_entry_limit_evicts_lru(self):
        from repro.workloads.registry import (
            configure_trace_cache,
            trace_cache_stats,
        )

        try:
            clear_trace_cache()
            configure_trace_cache(max_entries=2)
            a = get_trace("gcc", "mach3", 10_000, seed=50)
            b = get_trace("groff", "mach3", 10_000, seed=50)
            # Touch a so b is now least-recently used.
            assert get_trace("gcc", "mach3", 10_000, seed=50) is a
            c = get_trace("sdet", "mach3", 10_000, seed=50)
            assert trace_cache_stats()["entries"] == 2
            # a (recently used) and c (new) survive; b was evicted.
            assert get_trace("gcc", "mach3", 10_000, seed=50) is a
            assert get_trace("sdet", "mach3", 10_000, seed=50) is c
            assert get_trace("groff", "mach3", 10_000, seed=50) is not b
        finally:
            self._restore()
            clear_trace_cache()

    def test_byte_limit_evicts(self):
        from repro.workloads.registry import (
            configure_trace_cache,
            trace_cache_stats,
        )

        try:
            clear_trace_cache()
            a = get_trace("gcc", "mach3", 10_000, seed=51)
            nbytes = (
                a.addresses.nbytes + a.kinds.nbytes + a.components.nbytes
            )
            # Room for one resident trace but not two.
            configure_trace_cache(max_entries=64, max_bytes=int(nbytes * 1.5))
            get_trace("groff", "mach3", 10_000, seed=51)
            stats = trace_cache_stats()
            assert stats["entries"] == 1
            assert stats["resident_bytes"] <= int(nbytes * 1.5)
        finally:
            self._restore()
            clear_trace_cache()

    def test_rejects_nonpositive_bounds(self):
        import pytest as _pytest

        from repro.workloads.registry import configure_trace_cache

        with _pytest.raises(ValueError):
            configure_trace_cache(max_entries=0)
        with _pytest.raises(ValueError):
            configure_trace_cache(max_bytes=-1)
