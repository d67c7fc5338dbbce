"""Unit tests for the content-addressed artifact cache
(:mod:`repro.backends.artifacts`, docs/CACHING.md).

Covers the cache in isolation — options validation, key derivation
(determinism and sensitivity), store/load round trips with integrity
verification, LRU eviction with pinning, corruption handling, and the
maintenance surface (stats/verify/purge). The end-to-end warm-start
behaviour through :class:`repro.compiler.CompilerSession` lives in
``test_session.py``; bit-identical cold/warm execution lives in
``test_cache_differential.py``.
"""

import json
import os

import pytest

from repro.backends.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    CacheOptions,
    cache_key,
    canonical_fingerprint,
    ir_fingerprint,
    modeled_compile_s,
    modeled_load_s,
    options_fingerprint,
)
from repro.compiler import CompileOptions, CompilerSession
from repro.errors import ConfigurationError
from repro.obs import Tracer

from repro.apps import SUITE

BITFLIP = SUITE["bitflip"].source
SAXPY = SUITE["saxpy"].source


def _compiled(source=BITFLIP, **overrides):
    return CompilerSession(CompileOptions(**overrides)).compile(source)


def _cache(tmp_path, **overrides):
    overrides.setdefault("mode", "readwrite")
    return ArtifactCache(
        CacheOptions(cache_dir=str(tmp_path / "cache"), **overrides)
    )


class TestCacheOptions:
    def test_default_is_off(self):
        options = CacheOptions()
        assert not options.enabled
        assert not options.readable
        assert not options.writable

    def test_readwrite_properties(self):
        options = CacheOptions(cache_dir="/tmp/x", mode="readwrite")
        assert options.enabled and options.readable and options.writable

    def test_read_mode_is_not_writable(self):
        options = CacheOptions(cache_dir="/tmp/x", mode="read")
        assert options.enabled and options.readable
        assert not options.writable

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="cache mode"):
            CacheOptions(cache_dir="/tmp/x", mode="write-only")

    def test_enabled_mode_requires_dir(self):
        with pytest.raises(ConfigurationError, match="requires cache_dir"):
            CacheOptions(mode="readwrite")

    def test_nonpositive_max_bytes_rejected(self):
        with pytest.raises(ConfigurationError, match="max_bytes"):
            CacheOptions(cache_dir="/tmp/x", mode="read", max_bytes=0)

    def test_empty_device_family_rejected(self):
        with pytest.raises(ConfigurationError, match="device_family"):
            CacheOptions(device_family="")

    def test_replace_revalidates(self):
        options = CacheOptions(cache_dir="/tmp/x", mode="read")
        with pytest.raises(ConfigurationError):
            options.replace(max_bytes=-1)


class TestKeyDerivation:
    def test_same_module_same_key(self):
        a = _compiled()
        b = _compiled()
        options = CompileOptions()
        for backend in ("bytecode", "opencl", "verilog"):
            assert cache_key(a.module, backend, options) == cache_key(
                b.module, backend, options
            )

    def test_whitespace_and_comments_do_not_change_key(self):
        # Source positions are skipped during canonicalization, so a
        # reformatted program must still warm-start.
        reformatted = BITFLIP.replace("\n    ", "\n        ").replace(
            "public class Bitflip {",
            "public class Bitflip {\n        // a comment",
        )
        a, b = _compiled(), _compiled(reformatted)
        options = CompileOptions()
        assert cache_key(a.module, "opencl", options) == cache_key(
            b.module, "opencl", options
        )

    def test_semantic_edit_changes_key(self):
        edited = BITFLIP.replace("return ~b;", "return b;")
        a, b = _compiled(), _compiled(edited)
        options = CompileOptions()
        assert cache_key(a.module, "opencl", options) != cache_key(
            b.module, "opencl", options
        )

    def test_different_programs_different_keys(self):
        a, b = _compiled(BITFLIP), _compiled(SAXPY)
        options = CompileOptions()
        assert cache_key(a.module, "opencl", options) != cache_key(
            b.module, "opencl", options
        )

    def test_backend_id_partitions_keys(self):
        module = _compiled().module
        options = CompileOptions()
        keys = {
            cache_key(module, backend, options)
            for backend in ("bytecode", "opencl", "verilog")
        }
        assert len(keys) == 3

    def test_device_family_partitions_keys(self):
        module = _compiled().module
        options = CompileOptions()
        assert cache_key(
            module, "verilog", options, device_family="default"
        ) != cache_key(module, "verilog", options, device_family="v2")

    def test_fpga_knob_invalidates_only_verilog(self):
        # Per-backend option slices: toggling an FPGA knob must miss on
        # verilog but keep bytecode/opencl entries warm.
        module = _compiled().module
        plain = CompileOptions()
        pipelined = CompileOptions(fpga_pipelined=True)
        assert cache_key(module, "verilog", plain) != cache_key(
            module, "verilog", pipelined
        )
        for unaffected in ("bytecode", "opencl"):
            assert cache_key(module, unaffected, plain) == cache_key(
                module, unaffected, pipelined
            )

    def test_run_optimizations_invalidates_every_backend(self):
        module = _compiled().module
        on, off = CompileOptions(), CompileOptions(run_optimizations=False)
        for backend in ("bytecode", "opencl", "verilog"):
            assert cache_key(module, backend, on) != cache_key(
                module, backend, off
            )

    def test_options_fingerprint_is_backend_sliced(self):
        options = CompileOptions(fpga_pipelined=True)
        assert "fpga_pipelined" in options_fingerprint(options, "verilog")
        assert "fpga_pipelined" not in options_fingerprint(
            options, "opencl"
        )

    def test_canonical_fingerprint_handles_sets(self):
        # Set iteration order is hash-seed dependent; the canonical
        # form must not be (the cross-process determinism fence).
        assert canonical_fingerprint(
            {"deps": {"b", "a", "c"}}
        ) == canonical_fingerprint({"deps": {"c", "a", "b"}})

    def test_ir_fingerprint_is_a_hex_digest(self):
        fingerprint = ir_fingerprint(_compiled().module)
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestStoreLoad:
    def test_round_trip(self, tmp_path):
        cache = _cache(tmp_path)
        result = _compiled()
        artifacts = list(result.store.for_device("gpu"))
        assert artifacts
        key = cache_key(result.module, "opencl", CompileOptions())
        entry = cache.store("opencl", key, artifacts, [])
        assert entry.payload_bytes > 0
        assert entry.modeled_compile_s == modeled_compile_s(
            "opencl", artifacts
        )

        loaded = cache.load("opencl", key)
        assert loaded is not None
        assert [a.artifact_id for a in loaded.artifacts] == [
            a.artifact_id for a in artifacts
        ]
        assert [a.text for a in loaded.artifacts] == [
            a.text for a in artifacts
        ]
        assert loaded.payload_bytes == entry.payload_bytes
        assert loaded.modeled_load_s == modeled_load_s(
            entry.payload_bytes
        )
        # A cached artifact stays executable: compare payload behaviour
        # via repr of the re-pickled simulator objects' manifests.
        assert [a.manifest.device for a in loaded.artifacts] == [
            "gpu" for _ in artifacts
        ]

    def test_exclusions_round_trip(self, tmp_path):
        cache = _cache(tmp_path)
        result = _compiled(SAXPY, enable_fpga=True)
        key = cache_key(result.module, "verilog", CompileOptions())
        artifacts = list(result.store.for_device("fpga"))
        exclusions = [
            e for e in result.store.exclusions if e.device == "fpga"
        ]
        cache.store("verilog", key, artifacts, exclusions)
        loaded = cache.load("verilog", key)
        assert [
            (e.device, e.task_id, e.reason) for e in loaded.exclusions
        ] == [(e.device, e.task_id, e.reason) for e in exclusions]

    def test_unknown_key_is_a_miss(self, tmp_path):
        cache = _cache(tmp_path)
        tracer = Tracer()
        assert cache.load("opencl", "0" * 64, tracer=tracer) is None
        assert tracer.counters.get("cache.miss") == 1
        assert tracer.counters.get("cache.miss[opencl]") == 1

    def test_counters_and_span(self, tmp_path):
        cache = _cache(tmp_path)
        result = _compiled()
        key = cache_key(result.module, "bytecode", CompileOptions())
        tracer = Tracer()
        cache.store(
            "bytecode", key, [result.bytecode_artifact], [], tracer=tracer
        )
        assert tracer.counters.get("cache.store") == 1
        assert tracer.counters.get("cache.bytes.written") > 0
        cache.load("bytecode", key, tracer=tracer)
        assert tracer.counters.get("cache.hit") == 1
        assert tracer.counters.get("cache.hit[bytecode]") == 1
        assert tracer.counters.get("cache.bytes.read") > 0
        spans = tracer.find("cache.load")
        assert len(spans) == 1
        assert spans[0].attributes["state"] == "hit"
        assert spans[0].attributes["load_us"] > 0

    def test_read_mode_never_writes(self, tmp_path):
        rw = _cache(tmp_path)
        ro = ArtifactCache(rw.options.replace(mode="read"))
        result = _compiled()
        key = cache_key(result.module, "bytecode", CompileOptions())
        with pytest.raises(ConfigurationError, match="read-only"):
            ro.store("bytecode", key, [result.bytecode_artifact], [])


class TestCorruption:
    def _stored(self, tmp_path):
        cache = _cache(tmp_path)
        result = _compiled()
        key = cache_key(result.module, "opencl", CompileOptions())
        artifacts = list(result.store.for_device("gpu"))
        cache.store("opencl", key, artifacts, [])
        return cache, key, artifacts

    def _entry_dir(self, cache, key):
        return os.path.join(cache.root, "objects", key)

    def test_truncated_payload_is_a_miss(self, tmp_path):
        cache, key, _ = self._stored(tmp_path)
        entry_dir = self._entry_dir(cache, key)
        payload = os.path.join(entry_dir, "payload.0.pkl")
        with open(payload, "r+b") as f:
            f.truncate(max(os.path.getsize(payload) // 2, 1))
        tracer = Tracer()
        assert cache.load("opencl", key, tracer=tracer) is None
        assert tracer.counters.get("cache.corrupt") == 1
        assert tracer.counters.get("cache.miss") == 1
        # The corrupt entry is dropped so the next store repopulates.
        assert not os.path.isdir(entry_dir)
        assert key not in cache.keys()

    def test_flipped_manifest_hash_is_a_miss(self, tmp_path):
        cache, key, _ = self._stored(tmp_path)
        manifest_path = os.path.join(
            self._entry_dir(cache, key), "manifest.json"
        )
        with open(manifest_path) as f:
            manifest = json.load(f)
        digest = manifest["artifacts"][0]["payload_sha256"]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        manifest["artifacts"][0]["payload_sha256"] = flipped
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        tracer = Tracer()
        assert cache.load("opencl", key, tracer=tracer) is None
        assert tracer.counters.get("cache.corrupt") == 1

    def test_bad_schema_is_a_miss(self, tmp_path):
        cache, key, _ = self._stored(tmp_path)
        manifest_path = os.path.join(
            self._entry_dir(cache, key), "manifest.json"
        )
        with open(manifest_path) as f:
            manifest = json.load(f)
        manifest["schema"] = "repro.artifact/999"
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        assert cache.load("opencl", key) is None

    def test_unreadable_manifest_is_a_miss(self, tmp_path):
        cache, key, _ = self._stored(tmp_path)
        manifest_path = os.path.join(
            self._entry_dir(cache, key), "manifest.json"
        )
        with open(manifest_path, "w") as f:
            f.write("{not json")
        tracer = Tracer()
        assert cache.load("opencl", key, tracer=tracer) is None
        assert tracer.counters.get("cache.corrupt") == 1

    def test_corrupt_entry_repopulates(self, tmp_path):
        cache, key, artifacts = self._stored(tmp_path)
        payload = os.path.join(
            self._entry_dir(cache, key), "payload.0.pkl"
        )
        with open(payload, "wb") as f:
            f.write(b"garbage")
        assert cache.load("opencl", key) is None
        cache.store("opencl", key, artifacts, [])
        assert cache.load("opencl", key) is not None


class TestEviction:
    def _store_program(self, cache, source, backend="opencl"):
        result = CompilerSession().compile(source)
        key = cache_key(result.module, backend, CompileOptions())
        device = {"opencl": "gpu", "verilog": "fpga"}.get(backend)
        artifacts = (
            list(result.store.for_device(device))
            if device
            else [result.bytecode_artifact]
        )
        cache.store(backend, key, artifacts, [])
        return key

    def test_lru_evicts_oldest_unpinned(self, tmp_path):
        cache = _cache(tmp_path)
        first = self._store_program(cache, BITFLIP)
        second = self._store_program(cache, SAXPY)
        # Shrink the budget below the two entries' combined footprint;
        # touching `second` makes `first` the LRU victim.
        cache.load("opencl", second)
        total = cache.total_bytes()
        small = ArtifactCache(
            cache.options.replace(max_bytes=total - 1)
        )
        third = self._store_program(small, BITFLIP.replace("~b", "b"))
        remaining = set(small.keys())
        assert third in remaining
        assert first not in remaining, "LRU entry should have been evicted"

    def test_pinned_entries_survive_eviction(self, tmp_path):
        cache = _cache(tmp_path)
        first = self._store_program(cache, BITFLIP)
        cache.pin(first)
        small = ArtifactCache(cache.options.replace(max_bytes=1))
        second = self._store_program(small, SAXPY)
        remaining = set(small.keys())
        assert first in remaining, "pinned entries must never be evicted"
        # The just-stored entry is protected this round too (keep=key);
        # only older unpinned entries are LRU victims.
        assert second in remaining
        cache.unpin(first)
        assert first not in cache.pinned()

    def test_evict_counter(self, tmp_path):
        cache = _cache(tmp_path)
        first = self._store_program(cache, BITFLIP)
        tracer = Tracer()
        assert cache.evict(first, tracer=tracer)
        assert tracer.counters.get("cache.evict") == 1
        assert not cache.evict(first, tracer=tracer)


class TestMaintenance:
    def test_stats(self, tmp_path):
        cache = _cache(tmp_path)
        result = _compiled()
        for backend, artifacts in (
            ("bytecode", [result.bytecode_artifact]),
            ("opencl", list(result.store.for_device("gpu"))),
        ):
            key = cache_key(result.module, backend, CompileOptions())
            cache.store(backend, key, artifacts, [])
        stats = cache.stats()
        assert stats["schema"] == ARTIFACT_SCHEMA
        assert stats["entry_count"] == 2
        assert stats["total_bytes"] == cache.total_bytes()
        assert set(stats["backends"]) == {"bytecode", "opencl"}
        assert all(e["bytes"] > 0 for e in stats["entries"])

    def test_verify_clean_and_corrupt(self, tmp_path):
        cache = _cache(tmp_path)
        result = _compiled()
        key = cache_key(result.module, "bytecode", CompileOptions())
        cache.store("bytecode", key, [result.bytecode_artifact], [])
        assert cache.verify() == []
        payload = os.path.join(
            cache.root, "objects", key, "payload.0.pkl"
        )
        with open(payload, "wb") as f:
            f.write(b"zzz")
        problems = cache.verify()
        assert len(problems) == 1 and problems[0][0] == key
        # Non-destructive by default; delete_corrupt drops the entry.
        assert key in cache.keys()
        cache.verify(delete_corrupt=True)
        assert key not in cache.keys()

    def test_purge(self, tmp_path):
        cache = _cache(tmp_path)
        result = _compiled()
        key = cache_key(result.module, "bytecode", CompileOptions())
        cache.store("bytecode", key, [result.bytecode_artifact], [])
        cache.pin(key)
        assert cache.purge() == 1
        assert cache.keys() == []
        assert cache.pinned() == []
        assert cache.total_bytes() == 0
