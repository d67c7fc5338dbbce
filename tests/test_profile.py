"""Tests for the repro.obs.profile profiler.

Covers critical-path exactness (segments partition the root span's
window), per-stage utilization rows for both graph and map-flavor apps,
queue-occupancy extraction, the repro.profile/1 schema validator, and
the deterministic baseline regression comparator.
"""

import json

import pytest

from repro.apps import SUITE
from repro.compiler import CompileOptions, CompilerSession
from repro.obs import (
    PROFILE_SCHEMA,
    Tracer,
    build_profile,
    compare_profiles,
    critical_path,
    render_profile,
    validate_profile,
    validate_profile_file,
)
from repro.obs.profile import find_run_root
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy


def profiled_run(app="bitflip", scheduler="threaded", cpu_only=False):
    tracer = Tracer()
    compiled = CompilerSession(
        CompileOptions(tracer=tracer)
    ).compile(SUITE[app].source)
    entry, args = SUITE[app].default_args()
    config = RuntimeConfig(
        policy=SubstitutionPolicy(use_accelerators=not cpu_only),
        scheduler=scheduler,
        tracer=tracer,
    )
    outcome = Runtime(compiled, config).run(entry, args)
    report = build_profile(
        tracer,
        ledger=outcome.ledger,
        app=app,
        entry=entry,
        scheduler=scheduler,
    )
    return tracer, report


@pytest.fixture(scope="module")
def bitflip_report():
    return profiled_run("bitflip", "threaded")


@pytest.fixture(scope="module")
def mandelbrot_report():
    return profiled_run("mandelbrot", "threaded")


class TestCriticalPath:
    def test_segments_partition_the_root_window(self, bitflip_report):
        tracer, _ = bitflip_report
        segments, root = critical_path(tracer)
        assert root is not None and root.name == "run"
        total = sum(seg.duration_us for seg in segments)
        assert total == pytest.approx(root.duration_us, rel=1e-6)

    def test_segments_are_ordered_and_disjoint(self, bitflip_report):
        tracer, _ = bitflip_report
        segments, _ = critical_path(tracer)
        cursor = None
        for seg in segments:
            assert seg.duration_us >= 0
            if cursor is not None:
                assert seg.start_us >= cursor - 1e-6
            cursor = seg.start_us + seg.duration_us

    def test_stage_spans_appear_on_graph_app_path(self, bitflip_report):
        tracer, _ = bitflip_report
        segments, _ = critical_path(tracer)
        names = {seg.name for seg in segments}
        assert "run.graph.stage" in names

    def test_empty_tracer_has_no_path(self):
        segments, root = critical_path(Tracer())
        assert segments == [] and root is None

    def test_find_run_root_prefers_run_span(self, bitflip_report):
        tracer, _ = bitflip_report
        assert find_run_root(tracer).name == "run"


class TestProfileReport:
    def test_schema_stamped(self, bitflip_report, mandelbrot_report):
        for _, report in (bitflip_report, mandelbrot_report):
            assert report.to_json()["schema"] == PROFILE_SCHEMA

    def test_validates_clean(self, bitflip_report, mandelbrot_report):
        for _, report in (bitflip_report, mandelbrot_report):
            assert validate_profile(report.to_json()) == []

    def test_critical_path_within_5pct_of_wall(self, bitflip_report):
        _, report = bitflip_report
        critical = report.critical_path
        assert critical["wall_us"] > 0
        assert abs(critical["sum_us"] - critical["wall_us"]) <= (
            0.05 * critical["wall_us"]
        )
        assert critical["bottleneck"] is not None

    def test_stage_rows_graph_app(self, bitflip_report):
        _, report = bitflip_report
        kinds = {row["kind"] for row in report.stages}
        assert "stage" in kinds and "offload" in kinds
        for row in report.stages:
            assert 0.0 <= row["utilization"] <= 1.0
            assert row["span_us"] > 0
            assert "queue_wait_us" in row

    def test_stage_rows_map_app(self, mandelbrot_report):
        _, report = mandelbrot_report
        assert report.stages, "map app must still get offload rows"
        assert all(row["kind"] == "offload" for row in report.stages)

    def test_queue_stats_graph_app(self, bitflip_report):
        _, report = bitflip_report
        queues = report.to_json()["queues"]
        assert len(queues) >= 2
        for q in queues:
            assert "->" in q["edge"]
            assert q["samples"] >= 1
            assert q["max_depth"] >= 0
            assert q["producer_wait_us"] >= 0
            assert q["consumer_wait_us"] >= 0

    def test_queue_stats_empty_for_map_app(self, mandelbrot_report):
        _, report = mandelbrot_report
        assert report.to_json()["queues"] == []

    def test_breakdown_accounts_for_wall(self, bitflip_report):
        _, report = bitflip_report
        data = report.to_json()
        total = sum(data["breakdown_us"].values())
        assert total == pytest.approx(data["wall_us"], rel=0.05)
        assert data["breakdown_us"]["queue_wait"] > 0

    def test_simulated_section_from_ledger(self, bitflip_report):
        _, report = bitflip_report
        sim = report.to_json()["simulated"]
        assert sim["total_s"] > 0
        assert sim["graph_runs"] >= 1

    def test_dumps_round_trips(self, bitflip_report):
        _, report = bitflip_report
        assert json.loads(report.dumps()) == report.to_json()

    def test_render_sections(self, bitflip_report):
        _, report = bitflip_report
        text = report.render()
        for heading in (
            "per-task breakdown",
            "critical path",
            "queue occupancy",
            "bottleneck:",
        ):
            assert heading in text


class TestValidateProfile:
    def test_rejects_wrong_schema(self, bitflip_report):
        _, report = bitflip_report
        payload = dict(report.to_json(), schema="repro.profile/0")
        assert any("schema" in p for p in validate_profile(payload))

    def test_rejects_non_dict(self):
        assert validate_profile([1, 2]) != []

    def test_rejects_critical_path_drift(self, bitflip_report):
        _, report = bitflip_report
        payload = json.loads(report.dumps())
        payload["critical_path"]["segments"] = payload["critical_path"][
            "segments"
        ][:1]
        payload["critical_path"]["segments"][0]["duration_us"] = 1.0
        assert any(">5%" in p for p in validate_profile(payload))

    def test_rejects_missing_sections(self):
        assert validate_profile({"schema": PROFILE_SCHEMA, "wall_us": 1.0})

    def test_file_validator_raises_with_problems(
        self, tmp_path, bitflip_report
    ):
        _, report = bitflip_report
        good = tmp_path / "good.json"
        good.write_text(report.dumps())
        assert validate_profile_file(str(good))["schema"] == PROFILE_SCHEMA
        bad = tmp_path / "bad.json"
        payload = dict(report.to_json(), schema="nope")
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            validate_profile_file(str(bad))


class TestCompareProfiles:
    def test_identical_runs_do_not_regress(self):
        _, a = profiled_run("bitflip", "sequential")
        _, b = profiled_run("bitflip", "sequential")
        assert compare_profiles(a.to_json(), b.to_json()) == []

    def test_injected_slowdown_is_flagged(self):
        _, base = profiled_run("mandelbrot", "threaded")
        _, slow = profiled_run("mandelbrot", "threaded", cpu_only=True)
        regressions = compare_profiles(slow.to_json(), base.to_json())
        assert any("simulated.total_s" in r for r in regressions)

    def test_improvement_is_not_flagged(self):
        _, base = profiled_run("mandelbrot", "threaded", cpu_only=True)
        _, fast = profiled_run("mandelbrot", "threaded")
        assert compare_profiles(fast.to_json(), base.to_json()) == []

    def test_threshold_is_respected(self, bitflip_report):
        _, report = bitflip_report
        current = json.loads(report.dumps())
        current["simulated"]["total_s"] *= 1.08
        payload = report.to_json()
        assert compare_profiles(current, payload, threshold=0.10) == []
        assert compare_profiles(current, payload, threshold=0.05) != []

    def test_render_profile_handles_minimal_payload(self):
        text = render_profile(
            {
                "schema": PROFILE_SCHEMA,
                "app": "x",
                "entry": "X.y",
                "scheduler": "sequential",
                "wall_us": 0.0,
                "simulated": {},
                "stages": [],
                "breakdown_us": {},
                "queues": [],
                "critical_path": {
                    "wall_us": 0.0,
                    "sum_us": 0.0,
                    "coverage": 0.0,
                    "segments": [],
                    "bottleneck": None,
                },
                "histograms": {},
                "gauges": {},
                "counters": {},
            }
        )
        assert "profile: x" in text
