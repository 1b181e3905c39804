"""Benchmarks: Table 2 and the extension studies beyond the paper.

Covers the Section 5.2 sub-block footnote, the multi-issue projection
from the conclusion, the paper's additive two-level accounting, and the
per-component and knob-sensitivity checks of the synthetic workloads.
"""

from repro.experiments import ext_multiissue, ext_subblock, table2


def test_table2(benchmark, settings, report):
    result = benchmark.pedantic(table2.run, rounds=1, iterations=1)
    report.append(result.render())
    assert len(result.workloads) == 8


def test_ext_subblock(benchmark, settings, report):
    result = benchmark.pedantic(
        ext_subblock.run, args=(settings,), rounds=1, iterations=1
    )
    report.append(result.render())
    values = result.cells
    # The paper's footnote: the three designs are one performance class.
    assert max(values.values()) < 1.6 * min(values.values())


def test_ext_multiissue(benchmark, settings, report):
    result = benchmark.pedantic(
        ext_multiissue.run, args=(settings,), rounds=1, iterations=1
    )
    report.append(result.render())
    # The conclusion, quantified: at quad issue, IBS spends a large
    # share of its time fetch-stalled; SPEC does not.
    assert result.stall_share("ibs-mach3", 4) > 0.30
    assert result.stall_share("spec92", 4) < 0.25


def test_ext_components(benchmark, settings, report):
    from repro.experiments import ext_components
    from repro.trace.record import Component

    result = benchmark.pedantic(
        ext_components.run, args=(settings,), rounds=1, iterations=1
    )
    report.append(result.render())
    # Minor (OS/server) components miss disproportionately in most
    # workloads — the quantitative core of the OS-intensity story.
    elevated = total = 0
    for shares in result.rows.values():
        for component, share in shares.items():
            if component != Component.USER and share.execution < 0.25:
                total += 1
                elevated += share.concentration > 1.0
    assert elevated / total > 0.6


def test_ext_sensitivity(benchmark, settings, report):
    from repro.experiments import ext_sensitivity
    from repro.experiments.ext_sensitivity import KNOBS

    result = benchmark.pedantic(
        ext_sensitivity.run, args=(settings,), rounds=1, iterations=1
    )
    report.append(result.render())
    for knob, (_lo, _hi, expected) in KNOBS.items():
        if expected:
            assert result.slope_sign(knob) == expected, knob


def test_ext_methodology(benchmark, settings, report):
    from repro.experiments import ext_methodology

    result = benchmark.pedantic(
        ext_methodology.run, args=(settings,), rounds=1, iterations=1
    )
    report.append(result.render())
    # The paper's additive accounting holds within ~15% of an
    # integrated two-level simulation...
    assert abs(result.additive_error) < 0.15
    # ...and its "shared L2 is a lower bound" caveat is real and large.
    assert result.shared_data_penalty > 0.10
