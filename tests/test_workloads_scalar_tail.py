"""The run walk's scalar tail against the all-array walk.

``_ComponentPlan.visit_runs`` advances live visits over numpy arrays
and hands the last ``_SCALAR_TAIL`` of them to a Python scalar walk.
Both walks draw the same RNG blocks level by level, so where the split
falls must never change a trace: a threshold of 0 never uses the tail,
and one above any visit count walks every visit as scalars from the
first level.  Small budgets cut loops and runs mid-iteration.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.record import Component
from repro.workloads import generator, registry
from repro.workloads.generator import _ComponentPlan, synthesize_trace
from repro.workloads.params import ComponentParams

ALL_ARRAYS = 0
ALL_SCALARS = 10**9

WORKLOADS = registry.list_workloads()


def _synthesize(threshold, params, n_instructions, seed):
    with mock.patch.object(generator, "_SCALAR_TAIL", threshold):
        return synthesize_trace(params, n_instructions, seed=seed)


def _assert_same_trace(a, b):
    assert a.label == b.label
    assert np.array_equal(a.addresses, b.addresses)
    assert np.array_equal(a.kinds, b.kinds)
    assert np.array_equal(a.components, b.components)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("n_instructions", [1, 4, 37, 5000])
def test_every_workload_matches(n_instructions, seed):
    for name, os_name in WORKLOADS:
        params = registry.get_workload(name, os_name)
        _assert_same_trace(
            _synthesize(ALL_ARRAYS, params, n_instructions, seed),
            _synthesize(ALL_SCALARS, params, n_instructions, seed),
        )


@given(
    workload=st.sampled_from(WORKLOADS),
    seed=st.integers(0, 2**16),
    n_instructions=st.integers(1, 3000),
    threshold=st.integers(1, 64),
)
@settings(max_examples=30, deadline=None)
def test_any_split_point_matches(workload, seed, n_instructions, threshold):
    params = registry.get_workload(*workload)
    _assert_same_trace(
        _synthesize(ALL_ARRAYS, params, n_instructions, seed),
        _synthesize(threshold, params, n_instructions, seed),
    )


def _records(threshold, component_params, procs, budgets):
    plan = _ComponentPlan(
        Component.USER, component_params, expected_visits=100.0, seed=5
    )
    with mock.patch.object(generator, "_SCALAR_TAIL", threshold):
        columns = plan.visit_runs(procs, budgets)
    order = np.argsort(columns[0], kind="stable")
    return [column[order] for column in columns]


@given(
    budgets=st.lists(st.integers(1, 400), min_size=1, max_size=40),
    proc_draws=st.lists(st.integers(0, 10**6), min_size=40, max_size=40),
    threshold=st.integers(0, 48),
    loop_mean_iters=st.sampled_from([0.0, 1.0, 3.0, 12.0]),
)
@settings(max_examples=40, deadline=None)
def test_visit_records_match(budgets, proc_draws, threshold, loop_mean_iters):
    # Short procedures and tight loops: budgets end inside runs, inside
    # repeats and inside a cut final iteration.
    component_params = ComponentParams(
        exec_fraction=1.0,
        code_kb=4.0,
        mean_proc_bytes=96.0,
        mean_run=3.0,
        loop_back_prob=0.6,
        loop_mean_iters=loop_mean_iters,
    )
    n_procs = component_params.n_procedures
    procs = np.array(
        [draw % n_procs for draw in proc_draws[: len(budgets)]], dtype=np.int64
    )
    budgets = np.array(budgets, dtype=np.int64)
    expected = _records(ALL_ARRAYS, component_params, procs, budgets)
    actual = _records(threshold, component_params, procs, budgets)
    for want, got in zip(expected, actual):
        assert want.dtype == got.dtype
        assert np.array_equal(want, got)
