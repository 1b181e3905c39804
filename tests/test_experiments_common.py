"""Unit tests for the shared experiment harness."""

from repro.experiments.common import ExperimentSettings

SETTINGS = ExperimentSettings(n_instructions=20_000, seed=0)


class TestExperimentSettings:
    def test_defaults(self):
        settings = ExperimentSettings()
        assert settings.n_instructions >= 100_000
        assert 0.0 <= settings.warmup_fraction < 1.0

    def test_scaled(self):
        scaled = SETTINGS.scaled(0.5)
        assert scaled.n_instructions == 10_000
        assert scaled.seed == SETTINGS.seed

    def test_scaled_floor(self):
        scaled = SETTINGS.scaled(1e-9)
        assert scaled.n_instructions == 10_000


class TestCanonicalKeys:
    """Content addresses for the serving layer's result store."""

    def test_stable_and_distinct(self):
        from repro.experiments.common import canonical_job_key

        key = canonical_job_key("experiment", "table5", SETTINGS)
        assert key == canonical_job_key("experiment", "table5", SETTINGS)
        assert len(key) == 64
        assert int(key, 16) >= 0  # hex digest
        assert key != canonical_job_key("experiment", "table4", SETTINGS)
        assert key != canonical_job_key("evaluate", "table5", SETTINGS)

    def test_settings_change_key(self):
        from repro.experiments.common import canonical_job_key

        other = ExperimentSettings(n_instructions=40_000, seed=0)
        assert canonical_job_key("experiment", "table5", SETTINGS) != \
            canonical_job_key("experiment", "table5", other)

    def test_extra_knobs_change_key(self):
        from repro.experiments.common import canonical_job_key

        base = canonical_job_key(
            "evaluate", "gcc", SETTINGS, extra={"config": "economy"}
        )
        assert base != canonical_job_key(
            "evaluate", "gcc", SETTINGS, extra={"config": "high-performance"}
        )

    def test_model_version_changes_key(self, monkeypatch):
        from repro.experiments import settings

        key = settings.canonical_job_key("experiment", "table5", SETTINGS)
        monkeypatch.setattr(
            settings, "MODEL_VERSION", settings.MODEL_VERSION + 1
        )
        assert key != settings.canonical_job_key(
            "experiment", "table5", SETTINGS
        )

    def test_workloads_fingerprint(self):
        from repro.experiments.common import workloads_fingerprint

        fingerprint = workloads_fingerprint()
        assert len(fingerprint) == 64
        assert fingerprint == workloads_fingerprint()  # memoized, stable

    def test_settings_record_roundtrip(self):
        from repro.experiments.common import settings_record

        record = settings_record(SETTINGS)
        assert record == {
            "n_instructions": 20_000,
            "seed": 0,
            "warmup_fraction": SETTINGS.warmup_fraction,
        }
