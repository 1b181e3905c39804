"""Integration tests for the extension experiments and Table 2."""

import pytest

from repro.experiments import ext_multiissue, ext_subblock, table2
from repro.experiments.common import ExperimentSettings

SETTINGS = ExperimentSettings(n_instructions=100_000, seed=0)


class TestTable2:
    def test_all_workloads_listed(self):
        result = table2.run()
        assert len(result.workloads) == 8
        text = result.render()
        assert "groff" in text and "Mach 3.0" in text

    def test_mach_has_more_layers(self):
        result = table2.run()
        assert result.os_layers["Mach 3.0"] > result.os_layers["Ultrix 3.1"]


class TestExtSubblock:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_subblock.run(SETTINGS)

    def test_all_three_configurations_close(self, result):
        """The paper's footnote: the three designs land in the same
        performance class."""
        values = list(result.cells.values())
        assert max(values) < 1.6 * min(values)

    def test_render(self, result):
        assert "sub-block" in result.render()


class TestExtMultiIssue:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_multiissue.run(SETTINGS)

    def test_ibs_floor_dominates_wide_issue(self, result):
        assert result.stall_share("ibs-mach3", 4) > 0.30
        assert result.stall_share("spec92", 4) < result.stall_share(
            "ibs-mach3", 4
        )

    def test_monotone_in_width(self, result):
        shares = [result.stall_share("ibs-mach3", w) for w in (1, 2, 4, 8)]
        assert shares == sorted(shares)

    def test_render(self, result):
        assert "multi-issue" in result.render()


class TestExtComponents:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_components

        return ext_components.run(
            SETTINGS, workload_names=("groff", "mpeg_play", "gs")
        )

    def test_shares_sum_to_one(self, result):
        for workload, shares in result.rows.items():
            assert sum(s.execution for s in shares.values()) == pytest.approx(
                1.0, abs=0.01
            )
            assert sum(s.misses for s in shares.values()) == pytest.approx(
                1.0, abs=0.01
            )

    def test_minor_components_miss_disproportionately(self, result):
        """OS/server code runs in short scattered bursts, so components
        with small execution shares show concentration > 1."""
        from repro.trace.record import Component

        elevated = 0
        total = 0
        for shares in result.rows.values():
            for component, share in shares.items():
                if component != Component.USER and share.execution < 0.25:
                    total += 1
                    if share.concentration > 1.0:
                        elevated += 1
        assert total > 0
        assert elevated / total > 0.6

    def test_render(self, result):
        assert "attribution" in result.render()


class TestExtSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_sensitivity

        return ext_sensitivity.run(
            ExperimentSettings(n_instructions=80_000, seed=0)
        )

    def test_expected_directions(self, result):
        from repro.experiments.ext_sensitivity import KNOBS

        for knob, (_lo, _hi, expected) in KNOBS.items():
            if expected == 0:
                continue
            assert result.slope_sign(knob) == expected, knob

    def test_baseline_near_calibration(self, result):
        assert 5.0 < result.baseline < 8.0

    def test_render(self, result):
        assert "sensitivity" in result.render()


class TestFigure4LookupPenaltyAblation:
    def test_penalty_raises_cpi_but_keeps_ordering(self):
        from repro.experiments import figure4

        plain = figure4.run(SETTINGS)
        penalized = figure4.run(SETTINGS, associative_lookup_penalty=True)
        # Associative points pay more with the penalty; DM unchanged.
        for config in figure4.CONFIG_NAMES:
            assert penalized.cells[(config, 1)] == pytest.approx(
                plain.cells[(config, 1)]
            )
            assert penalized.cells[(config, 8)] > plain.cells[(config, 8)]
            # The paper's footnote: the penalty does not overturn the
            # benefit of associativity.
            assert penalized.cells[(config, 8)] < penalized.cells[(config, 1)]


class TestExtMethodology:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_methodology

        return ext_methodology.run(SETTINGS)

    def test_additive_method_is_accurate(self, result):
        """The paper's independent-measurement method agrees with one
        integrated simulation within ~15%."""
        assert abs(result.additive_error) < 0.15

    def test_shared_l2_is_a_real_lower_bound(self, result):
        """The paper: instruction-only L2 results 'represent a lower
        bound relative to an actual system'.  Sharing with data indeed
        raises fetch CPI substantially."""
        assert result.shared_data_penalty > 0.10

    def test_render(self, result):
        assert "methodology" in result.render()
