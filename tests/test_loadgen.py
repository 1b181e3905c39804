"""Unit tests for the load-generation subsystem.

The load generator's contract is determinism: the same (population,
skew, seed) replays the identical request stream, so a throughput
number in ``BENCH_serve.json`` — or an overload incident — can be
reproduced request for request.
"""

import json

import pytest

from repro.core.study import MECHANISMS
from repro.loadgen.report import (
    append_record,
    build_record,
    check_concurrency_sanity,
    load_trajectory,
    render_record,
)
from repro.loadgen.stats import (
    ERROR,
    OK,
    SHED,
    LatencyRecorder,
    Sample,
    percentiles,
    summarize,
)
from repro.loadgen.workload import (
    GRID_CONFIGS,
    ReqGenEngine,
    Workload,
    grid_population,
)
from repro.workloads.registry import list_workloads


class TestReqGenEngine:
    def test_same_seed_replays_identical_stream(self):
        first = ReqGenEngine(100, skew="zipf", theta=0.99, seed=7)
        second = ReqGenEngine(100, skew="zipf", theta=0.99, seed=7)
        assert first.sample(500) == second.sample(500)
        assert first.emitted == second.emitted == 500

    def test_different_seed_diverges(self):
        first = ReqGenEngine(100, seed=1)
        second = ReqGenEngine(100, seed=2)
        assert first.sample(200) != second.sample(200)

    def test_zipf_concentrates_on_hot_slots(self):
        engine = ReqGenEngine(50, skew="zipf", theta=1.2, seed=3)
        draws = engine.sample(5000)
        counts = sorted(
            (draws.count(slot) for slot in set(draws)), reverse=True
        )
        # Rank-1 weight under Zipf(1.2) over 50 slots is ~22% of mass;
        # a uniform stream would put 2% on every slot.
        assert counts[0] > 3 * (5000 / 50)

    def test_uniform_covers_the_population(self):
        engine = ReqGenEngine(20, skew="uniform", seed=0)
        assert set(engine.sample(2000)) == set(range(20))

    def test_theta_zero_degenerates_to_uniform(self):
        engine = ReqGenEngine(20, skew="zipf", theta=0.0, seed=0)
        draws = engine.sample(2000)
        counts = [draws.count(slot) for slot in range(20)]
        assert max(counts) < 3 * min(counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReqGenEngine(0)
        with pytest.raises(ValueError):
            ReqGenEngine(10, skew="pareto")
        with pytest.raises(ValueError):
            ReqGenEngine(10, theta=-0.1)


class TestWorkload:
    def test_grid_population_covers_the_paper_grid(self):
        population = grid_population()
        expected = (
            len(list_workloads()) * len(GRID_CONFIGS) * len(MECHANISMS)
        )
        assert len(population) == expected
        assert len({request.label for request in population}) == expected
        body = population[0].body
        assert body["workload"] and body["config"] in GRID_CONFIGS
        assert body["mechanism"] in MECHANISMS

    def test_stamping_carries_index_and_trace_id(self):
        workload = Workload.grid(seed=5)
        first, second = workload.take(2)
        assert (first.index, second.index) == (0, 1)
        assert first.trace_id == "lg-5-00000000"
        assert second.trace_id == "lg-5-00000001"

    def test_same_stream_seed_replays_identical_requests(self):
        a = Workload.grid(skew="zipf", theta=0.99, seed=11)
        b = Workload.grid(skew="zipf", theta=0.99, seed=11)
        for left, right in zip(a.take(300), b.take(300)):
            assert left == right

    def test_describe_names_the_stream_identity(self):
        workload = Workload.grid(skew="uniform", seed=9)
        described = workload.describe()
        assert described["skew"] == "uniform"
        assert described["stream_seed"] == 9
        assert described["population"] == len(workload.population)


def _sample(latency, status=200, outcome=OK, phase="measure"):
    return Sample(
        index=0,
        started_at=0.0,
        latency=latency,
        status=status,
        outcome=outcome,
        phase=phase,
    )


class TestStats:
    def test_percentiles_of_known_values(self):
        values = [i / 1000.0 for i in range(1, 1001)]
        tails = percentiles(values)
        assert tails["p50"] == pytest.approx(0.5, abs=1e-3)
        assert tails["p99"] == pytest.approx(0.99, abs=1e-3)
        assert tails["p999"] == pytest.approx(0.999, abs=1e-3)
        assert percentiles([]) == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "p999": 0.0
        }

    def test_summarize_counts_outcomes_and_excludes_warmup(self):
        recorder = LatencyRecorder()
        recorder.record(_sample(9.0, phase="warmup"))
        for _ in range(8):
            recorder.record(_sample(0.010))
        recorder.record(_sample(0.001, status=429, outcome=SHED))
        recorder.record(_sample(0.002, status=0, outcome=ERROR))
        summary = summarize(recorder, measure_seconds=2.0)
        assert summary["requests"] == 10
        assert summary["completed"] == 8
        assert summary["throughput_rps"] == pytest.approx(4.0)
        assert summary["offered_rps"] == pytest.approx(5.0)
        assert summary["outcomes"] == {ERROR: 1, OK: 8, SHED: 1}
        assert summary["statuses"] == {"0": 1, "200": 8, "429": 1}
        # The warmup-phase 9s outlier must not pollute the tails.
        assert summary["latency_seconds"]["p999"] < 1.0


class TestReport:
    def _record(self, throughput):
        recorder = LatencyRecorder()
        for _ in range(10):
            recorder.record(_sample(0.01))
        summary = summarize(recorder, measure_seconds=10.0 / throughput)
        return build_record(
            "serve_closed_grid",
            summary,
            workload_meta={"skew": "zipf", "theta": 0.99,
                           "stream_seed": 0, "population": 10},
            run_meta={"mode": "closed", "clients": 4},
        )

    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        assert load_trajectory(path) == []
        assert append_record(self._record(100.0), path) == 1
        assert append_record(self._record(120.0), path) == 2
        trajectory = load_trajectory(path)
        assert [r["throughput_rps"] for r in trajectory] == [100.0, 120.0]
        assert all(r["benchmark"] == "serve_closed_grid" for r in trajectory)

    def _speedup_record(self, speedup, throughput=100.0):
        record = self._record(throughput)
        record["reference_throughput_rps"] = throughput / speedup
        record["concurrency_speedup"] = speedup
        return record

    def test_concurrency_sanity_gate(self):
        """The CI gate checks the within-run concurrency speedup
        against a fixed floor — machine-independent, never absolute
        req/s across machines, never a committed record's ratio."""
        assert check_concurrency_sanity(self._speedup_record(1.1), 0.8) is None
        assert check_concurrency_sanity(self._speedup_record(0.8), 0.8) is None
        # A slow *absolute* run with healthy concurrency passes: the
        # runner is just slower hardware.
        assert check_concurrency_sanity(
            self._speedup_record(1.1, throughput=10.0), 0.8) is None
        message = check_concurrency_sanity(self._speedup_record(0.5), 0.8)
        assert message is not None and "concurrency sanity failed" in message

    def test_concurrency_sanity_requires_speedup_field(self):
        message = check_concurrency_sanity(self._record(100.0), 0.8)
        assert message is not None and "concurrency_speedup" in message

    def test_rejects_non_trajectory_file(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError):
            load_trajectory(path)

    def test_rendering_smoke(self, tmp_path):
        record = self._record(100.0)
        text = render_record(record)
        assert "serve_closed_grid" in text and "req/s" in text
