"""Tests for the on-disk artifact repository (Section 1's repository
form of artifact distribution)."""

import os

import pytest

from tests.lime_sources import FIGURE1
from repro.backends.repository import load_repository, save_repository
from repro.compiler import CompilerSession
from repro.errors import BackendError
from repro.runtime import Runtime
from repro.values import KIND_BIT, ValueArray, parse_bit_literal


class TestRoundTrip:
    def test_save_creates_index_and_files(self, tmp_path):
        compiled = CompilerSession().compile(FIGURE1)
        index_path = save_repository(compiled.store, str(tmp_path))
        assert os.path.exists(index_path)
        names = os.listdir(tmp_path)
        assert any(n.endswith(".cl") for n in names)
        assert any(n.endswith(".v") for n in names)
        assert any(n.endswith(".payload") for n in names)

    def test_reload_preserves_manifests(self, tmp_path):
        compiled = CompilerSession().compile(FIGURE1)
        save_repository(compiled.store, str(tmp_path))
        reloaded = load_repository(str(tmp_path))
        assert len(reloaded) == len(compiled.store)
        original_ids = {a.artifact_id for a in compiled.store.all()}
        assert {a.artifact_id for a in reloaded.all()} == original_ids

    def test_reload_preserves_exclusions(self, tmp_path):
        source = """
        class T {
            local static float f(float x) { return x + 1.0f; }
            static void m(float[[]] xs, float[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
                t.finish();
            }
        }
        """
        compiled = CompilerSession().compile(source)
        save_repository(compiled.store, str(tmp_path))
        reloaded = load_repository(str(tmp_path))
        assert len(reloaded.exclusions) == len(compiled.store.exclusions)
        assert reloaded.exclusions[0].reason

    def test_reloaded_store_executes(self, tmp_path):
        compiled = CompilerSession().compile(FIGURE1)
        save_repository(compiled.store, str(tmp_path))
        compiled.store = load_repository(str(tmp_path))
        runtime = Runtime(compiled)
        stream = ValueArray(KIND_BIT, parse_bit_literal("110010111"))
        result = runtime.call("Bitflip.taskFlip", [stream])
        assert repr(result) == "001101000b"
        _, decisions = runtime.substitution_log[0]
        assert decisions  # substitution worked from reloaded artifacts

    def test_text_files_match(self, tmp_path):
        compiled = CompilerSession().compile(FIGURE1)
        save_repository(compiled.store, str(tmp_path))
        reloaded = load_repository(str(tmp_path))
        for artifact in compiled.store.all():
            if artifact.text:
                again = reloaded.lookup(artifact.artifact_id)
                assert again.text == artifact.text

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(BackendError):
            load_repository(str(tmp_path / "nothing"))


class TestSlugCollisions:
    def test_distinct_ids_get_distinct_slugs(self):
        # ``graph:a.b`` and ``graph_a.b`` both sanitize to the same
        # characters; without the digest suffix they would silently
        # overwrite each other's files on save.
        from repro.backends.repository import _slug

        assert _slug("graph:a.b") != _slug("graph_a.b")
        assert _slug("graph:a.b") != _slug("graph/a.b")

    def test_clean_ids_keep_plain_slugs(self):
        from repro.backends.repository import _slug

        assert _slug("graph_a.b-1") == "graph_a.b-1"

    def test_colliding_artifacts_round_trip(self, tmp_path):
        from repro.backends.common import Artifact, ArtifactStore, Manifest

        store = ArtifactStore()
        for artifact_id, payload in (
            ("graph:a.b", {"which": "colon"}),
            ("graph_a.b", {"which": "underscore"}),
        ):
            store.add(
                Artifact(
                    manifest=Manifest(
                        artifact_id=artifact_id,
                        device="gpu",
                        task_ids=["t"],
                        graph_id="g",
                        source_language="opencl",
                    ),
                    payload=payload,
                    text=f"// {artifact_id}",
                )
            )
        save_repository(store, str(tmp_path))
        reloaded = load_repository(str(tmp_path))
        assert len(reloaded) == 2
        assert reloaded.lookup("graph:a.b").payload == {"which": "colon"}
        assert reloaded.lookup("graph_a.b").payload == {
            "which": "underscore"
        }
        assert reloaded.lookup("graph:a.b").text == "// graph:a.b"
