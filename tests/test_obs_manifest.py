"""Unit tests for run manifests (``repro.obs.manifest``)."""

from __future__ import annotations

import json

import pytest

from repro.obs import tracing
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    git_provenance,
    load_manifest,
    manifest_filename,
    provenance,
    write_manifest,
)


def _traced_recorder():
    with tracing.run("unit", command="test") as recorder:
        with tracing.capture("cell", key=("w", 1), engine="auto"):
            pass
    return recorder


class TestProvenance:
    def test_block_shape(self):
        block = provenance()
        assert set(block) == {
            "package_version", "generator_version", "git", "python"
        }
        from repro import package_version
        from repro.workloads.generator import GENERATOR_VERSION

        assert block["package_version"] == package_version()
        assert block["generator_version"] == GENERATOR_VERSION
        assert set(block["git"]) == {"revision", "describe"}

    def test_git_provenance_of_this_checkout(self):
        git = git_provenance()
        # The repository under test is a git checkout; a detached
        # environment would yield Nones, which is also a valid shape.
        if git["revision"] is not None:
            assert len(git["revision"]) == 40
        # Cached: two calls return equal dicts but not the same object.
        again = git_provenance()
        assert again == git and again is not git


class TestBuildManifest:
    def test_shape_and_rollups(self):
        recorder = _traced_recorder()
        manifest = build_manifest(recorder, extra={"command": "test"})
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["trace_id"] == recorder.trace_id
        assert manifest["label"] == "unit"
        assert manifest["extra"] == {"command": "test"}
        assert manifest["wall_seconds"] > 0.0
        assert len(manifest["spans"]) == 2
        assert len(manifest["cells"]) == 1
        cell = manifest["cells"][0]
        assert cell["key"] == ["w", 1]
        assert cell["attrs"]["engine"] == "auto"

    def test_wall_is_root_span_wall(self):
        recorder = _traced_recorder()
        manifest = build_manifest(recorder)
        roots = [
            span for span in manifest["spans"]
            if span["parent_id"] is None
        ]
        assert manifest["wall_seconds"] == max(
            span["wall_seconds"] for span in roots
        )


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(_traced_recorder())
        path = write_manifest(manifest, tmp_path / "nested" / "obs")
        assert path.endswith(manifest_filename(manifest))
        loaded = load_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))

    def test_filename_carries_label_and_trace_prefix(self):
        manifest = {"label": "figure6", "trace_id": "a" * 32}
        assert manifest_filename(manifest) == \
            f"manifest-figure6-{'a' * 12}.json"

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a run manifest"):
            load_manifest(path)

    def test_load_rejects_future_schema(self, tmp_path):
        manifest = build_manifest(_traced_recorder())
        manifest["schema"] = MANIFEST_SCHEMA + 1
        path = write_manifest(manifest, tmp_path)
        with pytest.raises(ValueError, match="unsupported manifest schema"):
            load_manifest(path)
