"""The performance trajectory tracker (docs/TRAJECTORY.md).

Covers the ``repro.bench/1`` envelope, snapshot collection (refusing
broken reports)/storage/validation, the direction-aware diff
classifier (improvement vs regression vs within-threshold, higher- vs
lower-is-better, added/removed metrics), the trend report, and the CI
gate — including the acceptance-criteria case: a synthetic snapshot
with a >10% critical-path regression must fail the gate, and a blessed
waiver must move it out of the failure set.

The golden trend report under ``tests/golden/trajectory/`` freezes the
renderer; regenerate intentionally with::

    REPRO_REGEN_TRAJECTORY_GOLDEN=1 PYTHONPATH=src:. \\
        python -m pytest tests/test_trajectory.py
"""

import json
import os

import pytest

from repro.obs.trajectory import (
    BENCH_SCHEMA,
    TRAJECTORY_SCHEMA,
    add_waivers,
    bench_envelope,
    bench_metric,
    changelog_entries,
    collect_snapshot,
    diff_snapshots,
    gate_snapshots,
    git_metadata,
    render_diff,
    render_trend,
    save_snapshot,
    snapshot_metrics,
    trend_report,
    validate_bench,
    validate_trajectory,
    validate_trajectory_file,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "trajectory")
REGEN = os.environ.get("REPRO_REGEN_TRAJECTORY_GOLDEN") == "1"


def make_snapshot(
    seq=1,
    label="",
    metrics=None,
    simulated=None,
    counters=None,
    waivers=None,
):
    """A minimal valid repro.trajectory/1 snapshot with fixed git
    identity (goldens must not depend on the checkout)."""
    return {
        "schema": TRAJECTORY_SCHEMA,
        "label": label,
        "seq": seq,
        "git": {
            "sha": "f" * 40,
            "short_sha": "fffffff",
            "branch": "main",
            "commit_date": "2026-01-01T00:00:00+00:00",
            "dirty": False,
        },
        "config": {
            "store_provenance": "cold",
            "fusion": "auto",
            "specialize": "off",
            "scheduler": "sequential",
            "seed_state": {"pythonhashseed": "unset",
                           "fault_plan_seed": None},
        },
        "benches": {
            "demo": {
                "source": "BENCH_demo.json",
                "metrics": metrics if metrics is not None else {},
            }
        },
        "profiles": {
            "app": {
                "app": "app",
                "entry": "App.main",
                "scheduler": "sequential",
                "store_provenance": "cold",
                "fusion_mode": "auto",
                "specialize_enabled": False,
                "simulated": simulated if simulated is not None else {},
                "counters": counters if counters is not None else {},
                "critical_path": {
                    "bottleneck": "run.offload",
                    "bottleneck_percent": 50.0,
                    "segment_names": ["run", "run.offload"],
                },
            }
        },
        "waivers": waivers if waivers is not None else [],
    }


class TestBenchEnvelope:
    def test_metric_validates_direction_and_kind(self):
        assert bench_metric(2.0)["direction"] == "higher"
        assert bench_metric(1.0, kind="wall")["kind"] == "wall"
        with pytest.raises(ValueError):
            bench_metric(1.0, direction="sideways")
        with pytest.raises(ValueError):
            bench_metric(1.0, kind="guessed")

    def test_envelope_shape(self):
        payload = bench_envelope(
            "demo", {"x.speedup": bench_metric(3.0, unit="x")}
        )
        assert set(payload) == {"schema", "bench", "git", "metrics"}
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["bench"] == "demo"
        assert "sha" in payload["git"]
        assert validate_bench(payload) == []

    def test_validate_rejects_bad_metrics(self):
        payload = bench_envelope("demo", {})
        payload["metrics"]["bad"] = {"value": "fast", "direction": "up"}
        problems = validate_bench(payload)
        assert any("value must be a number" in p for p in problems)
        assert any("direction" in p for p in problems)

    def test_git_metadata_degrades_outside_git(self, tmp_path):
        meta = git_metadata(repo_dir=str(tmp_path))
        assert meta["sha"] == "unknown"
        assert meta["dirty"] is False


class TestCollectAndStore:
    def _write_bench(self, path, payload):
        with open(path, "w") as fh:
            json.dump(payload, fh)

    def test_collect_aggregates_envelopes(self, tmp_path):
        self._write_bench(
            tmp_path / "BENCH_new.json",
            bench_envelope("new", {"m.speedup": bench_metric(2.0)}),
        )
        self._write_bench(
            tmp_path / "BENCH_other.json",
            bench_envelope(
                "other", {"t_s": bench_metric(1.5, direction="lower")}
            ),
        )
        snapshot = collect_snapshot(str(tmp_path), run_profiles=False)
        assert validate_trajectory(snapshot) == []
        assert snapshot["benches"]["new"] == {
            "source": "BENCH_new.json",
            "metrics": {"m.speedup": bench_metric(2.0)},
        }
        assert snapshot["benches"]["other"]["metrics"]["t_s"]["value"] == 1.5
        config = snapshot["config"]
        assert config["store_provenance"] in ("cold", "warm", "mixed")
        assert config["fusion"] and config["specialize"]
        assert "pythonhashseed" in config["seed_state"]

    def test_collect_rejects_truncated_report(self, tmp_path):
        self._write_bench(
            tmp_path / "BENCH_good.json",
            bench_envelope("good", {"m.speedup": bench_metric(2.0)}),
        )
        text = json.dumps(
            bench_envelope("cut", {"m.speedup": bench_metric(2.0)})
        )
        (tmp_path / "BENCH_cut.json").write_text(text[: len(text) // 2])
        with pytest.raises(ValueError) as info:
            collect_snapshot(str(tmp_path), run_profiles=False)
        message = str(info.value)
        assert "BENCH_cut.json" in message
        assert "BENCH_good.json" not in message

    def test_collect_rejects_non_envelope_report(self, tmp_path):
        self._write_bench(
            tmp_path / "BENCH_old.json", {"total_s": 1.5, "items": 3}
        )
        self._write_bench(tmp_path / "BENCH_list.json", [1, 2])
        with pytest.raises(ValueError) as info:
            collect_snapshot(str(tmp_path), run_profiles=False)
        message = str(info.value)
        # Every problem of every broken file is listed, by file.
        assert "BENCH_old.json: schema must be" in message
        assert "BENCH_old.json: bench must be" in message
        assert "BENCH_old.json: metrics must be an object" in message
        assert "BENCH_list.json: payload must be a JSON object" in message

    def test_collect_refuses_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_snapshot(str(tmp_path), run_profiles=False)

    def test_save_and_reload_sequence(self, tmp_path):
        changelog = tmp_path / "changelogs"
        first = save_snapshot(make_snapshot(), str(changelog))
        second = save_snapshot(make_snapshot(), str(changelog))
        assert os.path.basename(first).startswith("0001-")
        assert os.path.basename(second).startswith("0002-")
        entries = changelog_entries(str(changelog))
        assert [p["seq"] for _, p in entries] == [1, 2]
        assert validate_trajectory_file(first)["seq"] == 1

    def test_validate_catches_problems(self):
        bad = make_snapshot()
        bad["schema"] = "nope/9"
        del bad["config"]["fusion"]
        bad["waivers"] = [{"metric": "x"}]  # no reason
        problems = validate_trajectory(bad)
        assert any("schema" in p for p in problems)
        assert any("fusion" in p for p in problems)
        assert any("reason" in p for p in problems)


class TestDiffClassification:
    def _pair(self, base_value, cur_value, direction):
        base = make_snapshot(
            metrics={
                "m": bench_metric(base_value, direction=direction)
            }
        )
        cur = make_snapshot(
            seq=2,
            metrics={"m": bench_metric(cur_value, direction=direction)},
        )
        return diff_snapshots(base, cur, threshold_pct=10.0)

    def _entry(self, diff, name="bench.demo.m"):
        (entry,) = [e for e in diff["entries"] if e["metric"] == name]
        return entry

    def test_higher_is_better_improvement(self):
        diff = self._pair(10.0, 15.0, "higher")
        assert self._entry(diff)["classification"] == "improved"

    def test_higher_is_better_regression(self):
        diff = self._pair(10.0, 8.0, "higher")
        assert self._entry(diff)["classification"] == "regressed"

    def test_lower_is_better_flips_the_judgement(self):
        # The same +50% movement is a regression for latency...
        diff = self._pair(1.0, 1.5, "lower")
        assert self._entry(diff)["classification"] == "regressed"
        # ...and dropping 33% is an improvement.
        diff = self._pair(1.5, 1.0, "lower")
        assert self._entry(diff)["classification"] == "improved"

    def test_within_threshold_band(self):
        diff = self._pair(100.0, 104.0, "lower")
        entry = self._entry(diff)
        assert entry["classification"] == "within"
        assert entry["delta_pct"] == pytest.approx(4.0)

    def test_added_and_removed_metrics(self):
        base = make_snapshot(metrics={"old": bench_metric(1.0)})
        cur = make_snapshot(seq=2, metrics={"new": bench_metric(2.0)})
        diff = diff_snapshots(base, cur)
        by_name = {e["metric"]: e for e in diff["entries"]}
        assert by_name["bench.demo.old"]["classification"] == "removed"
        assert by_name["bench.demo.new"]["classification"] == "added"
        assert diff["counts"]["added"] == 1
        assert diff["counts"]["removed"] == 1

    def test_render_diff_orders_regressions_first(self):
        base = make_snapshot(
            metrics={
                "worse": bench_metric(10.0),
                "better": bench_metric(10.0),
            }
        )
        cur = make_snapshot(
            seq=2,
            metrics={
                "worse": bench_metric(5.0),
                "better": bench_metric(20.0),
            },
        )
        text = render_diff(diff_snapshots(base, cur))
        assert text.index("worse") < text.index("better")
        assert "✗ regressed" in text and "✓ improved" in text

    def test_profile_metrics_flattened(self):
        snap = make_snapshot(
            simulated={"total_s": 2.0},
            counters={"marshal.crossings": 4},
        )
        flat = snapshot_metrics(snap)
        assert flat["profile.app.simulated.total_s"]["direction"] == "lower"
        crossings = flat["profile.app.counters.marshal.crossings"]
        assert crossings["value"] == 4


class TestGate:
    def test_critical_path_regression_fails_the_gate(self):
        """The acceptance case: >10% on a simulated critical-path time
        must produce a nonzero gate verdict."""
        base = make_snapshot(simulated={"total_s": 1.0})
        bad = make_snapshot(seq=2, simulated={"total_s": 1.2})
        result = gate_snapshots(bad, base, threshold_pct=10.0)
        assert len(result["regressions"]) == 1
        assert "profile.app.simulated.total_s" in result["regressions"][0]

    def test_clean_snapshot_passes(self):
        base = make_snapshot(simulated={"total_s": 1.0})
        good = make_snapshot(seq=2, simulated={"total_s": 1.05})
        result = gate_snapshots(good, base, threshold_pct=10.0)
        assert result["regressions"] == []
        assert result["checked"] >= 1

    def test_wall_metrics_never_gate(self):
        base = make_snapshot(
            metrics={
                "wall_s": bench_metric(1.0, direction="lower", kind="wall")
            }
        )
        cur = make_snapshot(
            seq=2,
            metrics={
                "wall_s": bench_metric(9.0, direction="lower", kind="wall")
            },
        )
        result = gate_snapshots(cur, base)
        assert result["regressions"] == []
        assert result["checked"] == 0

    def test_added_removed_never_gate(self):
        base = make_snapshot(metrics={"old": bench_metric(1.0)})
        cur = make_snapshot(seq=2, metrics={"new": bench_metric(1.0)})
        result = gate_snapshots(cur, base)
        assert result["regressions"] == []

    def test_waiver_moves_regression_to_waived(self):
        base = make_snapshot(simulated={"total_s": 1.0})
        blessed = make_snapshot(
            seq=2,
            simulated={"total_s": 2.0},
            waivers=[
                {
                    "metric": "profile.app.simulated.total_s",
                    "reason": "fusion disabled while debugging",
                    "blessed_at": "f" * 40,
                }
            ],
        )
        result = gate_snapshots(blessed, base)
        assert result["regressions"] == []
        assert len(result["waived"]) == 1
        assert "fusion disabled" in result["waived"][0]

    def test_add_waivers_rewrites_the_snapshot(self, tmp_path):
        path = save_snapshot(
            make_snapshot(simulated={"total_s": 2.0}), str(tmp_path)
        )
        add_waivers(
            path, ["profile.app.simulated.total_s"], "intentional"
        )
        snapshot = validate_trajectory_file(path)
        assert snapshot["waivers"][0]["reason"] == "intentional"
        with pytest.raises(ValueError):
            add_waivers(path, ["x"], "")


class TestGateCli:
    """End-to-end through the argparse layer: exit codes are the CI
    contract (`make bench-gate`)."""

    def _main(self, argv):
        from repro.cli import main

        return main(argv)

    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        base_p = tmp_path / "base.json"
        bad_p = tmp_path / "bad.json"
        base_p.write_text(
            json.dumps(make_snapshot(simulated={"total_s": 1.0}))
        )
        bad_p.write_text(
            json.dumps(
                make_snapshot(seq=2, simulated={"total_s": 1.5})
            )
        )
        rc = self._main(
            [
                "bench", "gate",
                "--baseline", str(base_p),
                "--current", str(bad_p),
                "--threshold", "10",
            ]
        )
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err

    def test_collect_fails_naming_a_truncated_report(self, tmp_path, capsys):
        (tmp_path / "BENCH_marshal.json").write_text('{"schema": "repro.')
        out = tmp_path / "snap.json"
        rc = self._main(
            [
                "bench", "collect",
                "--bench-dir", str(tmp_path),
                "--no-profiles",
                "-o", str(out),
            ]
        )
        assert rc == 1
        assert "BENCH_marshal.json" in capsys.readouterr().err
        assert not out.exists()

    def test_skips_gracefully_below_two_entries(self, tmp_path, capsys):
        changelog = tmp_path / "changelogs"
        save_snapshot(make_snapshot(), str(changelog))
        rc = self._main(
            ["bench", "gate", "--changelog-dir", str(changelog)]
        )
        assert rc == 0
        assert "skipping" in capsys.readouterr().out

    def test_bless_then_pass(self, tmp_path, capsys):
        changelog = tmp_path / "changelogs"
        save_snapshot(
            make_snapshot(simulated={"total_s": 1.0}), str(changelog)
        )
        save_snapshot(
            make_snapshot(simulated={"total_s": 2.0}), str(changelog)
        )
        rc = self._main(
            [
                "bench", "gate",
                "--changelog-dir", str(changelog),
                "--bless", "--reason", "known tradeoff",
            ]
        )
        assert rc == 0
        # ... and the waiver persisted: a plain re-run passes too.
        rc = self._main(
            ["bench", "gate", "--changelog-dir", str(changelog)]
        )
        assert rc == 0

    def test_bless_requires_reason(self, tmp_path, capsys):
        rc = self._main(["bench", "gate", "--bless"])
        assert rc == 1
        assert "--reason" in capsys.readouterr().err


class TestTrend:
    def _series(self):
        return [
            make_snapshot(
                seq=1, label="PR 7",
                metrics={"speedup": bench_metric(2.0, unit="x")},
                simulated={"total_s": 4.0},
            ),
            make_snapshot(
                seq=2, label="PR 8",
                metrics={"speedup": bench_metric(3.0, unit="x")},
                simulated={"total_s": 2.0},
            ),
            make_snapshot(
                seq=3, label="PR 9",
                metrics={"speedup": bench_metric(4.5, unit="x")},
                simulated={"total_s": 1.0},
            ),
        ]

    def test_report_shape(self):
        report = trend_report(self._series())
        assert report["points"] == 3
        row = report["metrics"]["bench.demo.speedup"]
        assert row["values"] == [2.0, 3.0, 4.5]
        assert row["net"] == "improved"
        assert row["net_pct"] == pytest.approx(125.0)
        assert len(row["sparkline"]) == 3
        total = report["metrics"]["profile.app.simulated.total_s"]
        assert total["net"] == "improved"  # lower is better, fell 75%

    def test_metric_absent_from_one_snapshot(self):
        series = self._series()
        del series[1]["benches"]["demo"]["metrics"]["speedup"]
        report = trend_report(series)
        row = report["metrics"]["bench.demo.speedup"]
        assert row["values"] == [2.0, None, 4.5]
        assert " " in row["sparkline"]

    def test_golden_trend_report(self):
        """Freeze the rendered trend text; regenerate with
        REPRO_REGEN_TRAJECTORY_GOLDEN=1 when the renderer changes
        intentionally."""
        text = render_trend(trend_report(self._series())) + "\n"
        path = os.path.join(GOLDEN_DIR, "trend.txt")
        if REGEN:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
            pytest.skip(f"regenerated {path}")
        with open(path) as fh:
            assert text == fh.read(), (
                f"trend rendering drifted from {path}; regenerate "
                "with REPRO_REGEN_TRAJECTORY_GOLDEN=1 if intentional"
            )


class TestExportDeterminism:
    """Satellite: exported traces must be byte-stable across runs so
    goldens and snapshot diffs never churn on dict ordering."""

    def _trace_bytes(self, tmp_path, name):
        from repro.obs import Tracer, write_chrome_trace, write_json_lines

        tracer = Tracer()
        # Attributes inserted in different orders across spans: the
        # exporter must normalize them.
        with tracer.span("run", zulu=1, alpha=2):
            tracer.counters.add("marshal.crossings", 2)
        with tracer.span("run.offload", beta=1, aleph=2):
            tracer.counters.add("cache.hit", 1)
        chrome = tmp_path / f"{name}.json"
        jsonl = tmp_path / f"{name}.jsonl"
        write_chrome_trace(tracer, str(chrome))
        write_json_lines(tracer, str(jsonl))
        return chrome.read_bytes(), jsonl.read_bytes()

    def test_chrome_and_jsonl_stable(self, tmp_path):
        a_chrome, a_jsonl = self._trace_bytes(tmp_path, "a")
        b_chrome, b_jsonl = self._trace_bytes(tmp_path, "b")

        def scrub(data):
            # Timestamps/durations differ run to run; key order and
            # attribute order must not.
            payload = json.loads(data)
            return json.dumps(payload, sort_keys=False)

        assert json.dumps(
            sorted(json.loads(a_chrome)["traceEvents"][0]["args"])
        ) == json.dumps(
            sorted(json.loads(b_chrome)["traceEvents"][0]["args"])
        )
        for line_a, line_b in zip(
            a_jsonl.decode().splitlines(), b_jsonl.decode().splitlines()
        ):
            obj_a, obj_b = json.loads(line_a), json.loads(line_b)
            assert list(obj_a) == list(obj_b)
            if obj_a.get("type") == "span":
                assert list(obj_a["attributes"]) == \
                    list(obj_b["attributes"])
                assert list(obj_a["attributes"]) == \
                    sorted(obj_a["attributes"])

    def test_span_args_sorted_in_chrome_trace(self, tmp_path):
        chrome, _ = self._trace_bytes(tmp_path, "c")
        payload = json.loads(chrome)
        for event in payload["traceEvents"]:
            if event.get("ph") == "X":
                keys = list(event["args"])
                assert keys == sorted(keys)
