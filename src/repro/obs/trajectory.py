"""The performance trajectory tracker: per-PR bench changelogs.

Every optimization PR so far emits one-off numbers — ``BENCH_*.json``
files from the benchmark suite, ``repro.profile/1`` reports from the
profiler — but nothing remembers them. This module turns those
artifacts into a gated time series (docs/TRAJECTORY.md):

* :func:`collect_snapshot` aggregates every ``benchmarks/out/BENCH_*``
  ``repro.bench/1`` report (refusing any that does not validate), runs a
  deterministic profile pass over canonical apps to capture the
  critical-path breakdown and the key runtime counters
  (``marshal.crossings``, ``cache.*``, ``fusion``/``specialize``,
  ``health.*``), and stamps the result with git SHA/date and the
  active feature-flag configuration into one ``repro.trajectory/1``
  snapshot.
* Snapshots live under ``benchmarks/changelogs/`` — one JSON per PR,
  named ``NNNN-<shortsha>.json`` so the series sorts lexically.
* :func:`diff_snapshots` compares any two snapshots per metric with
  direction-aware better/worse classification (a latency rising is a
  regression; a speedup rising is an improvement) and explicit
  added/removed handling.
* :func:`trend_report` renders the whole series — per-metric history
  with sparklines — as text or JSON.
* :func:`gate_snapshots` is the CI regression gate: nonzero findings
  when any deterministic (modeled) metric along the critical path
  regresses beyond the threshold, unless the current snapshot carries
  an annotated waiver (``bench gate --bless``).

Only *modeled* quantities gate — simulated seconds, crossing counts,
modeled speedups — mirroring the :func:`repro.obs.compare_profiles`
convention, so the gate is reproducible in CI. Wall-clock fields ride
along in snapshots marked ``kind: wall`` and are never gated.
"""

from __future__ import annotations

import json
import os
import subprocess

#: Schema identifier stamped into every snapshot.
TRAJECTORY_SCHEMA = "repro.trajectory/1"

#: Schema identifier of the shared benchmark-report envelope
#: (``benchmarks/harness.py`` stamps it on every ``BENCH_*.json``).
BENCH_SCHEMA = "repro.bench/1"

#: Default regression threshold, in percent (10 = 10%).
DEFAULT_GATE_THRESHOLD_PCT = 10.0

#: Apps the collector profiles for the critical-path section: one GPU
#: map app and one streaming graph app (the ``profile-smoke`` pair).
DEFAULT_PROFILE_APPS = ("mandelbrot", "bitflip")

#: Counter prefixes worth carrying in a snapshot (decision statistics
#: that attribute a perf delta to a subsystem).
COUNTER_PREFIXES = (
    "marshal.",
    "cache.",
    "fusion.",
    "specialize.",
    "health.",
    "substitution.",
    "offload.",
    "retry.",
    "breaker.",
)

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


# ----------------------------------------------------------------------
# The repro.bench/1 envelope
# ----------------------------------------------------------------------


def git_metadata(repo_dir: "str | None" = None) -> dict:
    """Best-effort git identity of the working tree: commit SHA, branch,
    author date of HEAD, and a dirty flag. Every field degrades to a
    placeholder outside a git checkout so benchmarks stay runnable from
    a tarball."""

    def _git(*argv):
        try:
            out = subprocess.run(
                ("git",) + argv,
                cwd=repo_dir or os.getcwd(),
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if out.returncode != 0:
            return None
        return out.stdout.strip()

    sha = _git("rev-parse", "HEAD") or "unknown"
    status = _git("status", "--porcelain")
    return {
        "sha": sha,
        "short_sha": sha[:7] if sha != "unknown" else "unknown",
        "branch": _git("rev-parse", "--abbrev-ref", "HEAD") or "unknown",
        "commit_date": _git("log", "-1", "--format=%cI") or "unknown",
        "dirty": bool(status) if status is not None else False,
    }


def bench_metric(
    value: float,
    unit: str = "ratio",
    direction: str = "higher",
    kind: str = "modeled",
) -> dict:
    """One envelope metric: the measured value plus how to judge its
    movement. ``direction`` is ``higher`` (throughput/speedup: bigger
    is better) or ``lower`` (latency/seconds/crossings: smaller is
    better); ``kind`` is ``modeled`` (deterministic, gated) or ``wall``
    (noisy, informational only)."""
    if direction not in ("higher", "lower"):
        raise ValueError(f"direction must be higher|lower, got {direction!r}")
    if kind not in ("modeled", "wall"):
        raise ValueError(f"kind must be modeled|wall, got {kind!r}")
    return {
        "value": float(value),
        "unit": unit,
        "direction": direction,
        "kind": kind,
    }


def bench_envelope(bench: str, metrics: dict) -> dict:
    """The full ``repro.bench/1`` payload for one benchmark report:
    schema + git metadata + judged metrics."""
    return {
        "schema": BENCH_SCHEMA,
        "bench": bench,
        "git": git_metadata(),
        "metrics": {
            name: dict(metric) for name, metric in sorted(metrics.items())
        },
    }


def validate_bench(payload) -> list:
    """Return a list of problems (empty = valid bench envelope)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema must be {BENCH_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    if not isinstance(payload.get("bench"), str) or not payload.get("bench"):
        problems.append("bench must be a non-empty string")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    for name, metric in metrics.items():
        where = f"metrics[{name}]"
        if not isinstance(metric, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: value must be a number")
        if metric.get("direction") not in ("higher", "lower"):
            problems.append(f"{where}: direction must be higher|lower")
        if metric.get("kind") not in ("modeled", "wall"):
            problems.append(f"{where}: kind must be modeled|wall")
    return problems


# ----------------------------------------------------------------------
# Snapshot collection
# ----------------------------------------------------------------------


def _profile_app(app: str, scheduler: str = "sequential") -> dict:
    """One deterministic profiled run of a suite app: simulated times,
    filtered counters, and the critical-path shape. Local imports keep
    ``repro.obs`` importable without the full compiler stack."""
    from repro.apps import SUITE, compile_app
    from repro.obs.profile import build_profile
    from repro.obs.tracer import Tracer
    from repro.runtime import Runtime, RuntimeConfig

    tracer = Tracer()
    compiled = compile_app(app)
    entry, values = SUITE[app].default_args()
    config = RuntimeConfig(scheduler=scheduler, tracer=tracer)
    outcome = Runtime(compiled, config).run(entry, values)
    report = build_profile(
        tracer,
        ledger=outcome.ledger,
        app=app,
        entry=entry,
        scheduler=scheduler,
    ).to_json()

    counters = {
        name: value
        for name, value in sorted(report.get("counters", {}).items())
        if name.startswith(COUNTER_PREFIXES)
    }
    critical = report.get("critical_path", {})
    bottleneck = critical.get("bottleneck") or {}
    return {
        "app": app,
        "entry": entry,
        "scheduler": scheduler,
        "store_provenance": compiled.store.provenance or "cold",
        "fusion_mode": config.fusion,
        "specialize_enabled": bool(config.specialize.enabled),
        "simulated": {
            key: value
            for key, value in sorted(report.get("simulated", {}).items())
            if isinstance(value, (int, float))
        },
        "counters": counters,
        "critical_path": {
            "bottleneck": bottleneck.get("name"),
            "bottleneck_percent": bottleneck.get("percent"),
            "segment_names": sorted(
                {
                    seg.get("name")
                    for seg in critical.get("segments", [])
                    if seg.get("name")
                }
            ),
        },
    }


def collect_snapshot(
    bench_dir: str,
    label: str = "",
    profile_apps: "tuple | list" = DEFAULT_PROFILE_APPS,
    run_profiles: bool = True,
    seq: "int | None" = None,
) -> dict:
    """Aggregate one ``repro.trajectory/1`` snapshot from the bench
    reports in ``bench_dir`` plus (optionally) fresh deterministic
    profile runs. Raises ``FileNotFoundError`` when ``bench_dir`` holds
    no ``BENCH_*.json`` at all — an empty snapshot gates nothing and is
    always a collection mistake — and ``ValueError`` naming every
    report that is unreadable or not a valid ``repro.bench/1``
    envelope, so a truncated report cannot drop out of the gate
    unseen."""
    benches: dict = {}
    broken: list = []
    names = sorted(
        fn
        for fn in (os.listdir(bench_dir) if os.path.isdir(bench_dir) else [])
        if fn.startswith("BENCH_") and fn.endswith(".json")
    )
    for fn in names:
        path = os.path.join(bench_dir, fn)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            broken.append(f"{path}: unreadable: {exc}")
            continue
        problems = validate_bench(payload)
        if problems:
            broken.extend(f"{path}: {problem}" for problem in problems)
            continue
        benches[fn[len("BENCH_"):-len(".json")]] = {
            "source": fn,
            "metrics": dict(sorted(payload["metrics"].items())),
        }
    if broken:
        raise ValueError(
            "invalid bench report(s):\n  " + "\n  ".join(broken)
        )
    if not benches:
        raise FileNotFoundError(
            f"no BENCH_*.json reports under {bench_dir!r}; run "
            "`make bench-smoke` (or the benchmark suite) first"
        )

    profiles: dict = {}
    if run_profiles:
        for app in profile_apps:
            profiles[app] = _profile_app(app)

    provenances = sorted(
        {p["store_provenance"] for p in profiles.values()}
    ) or ["cold"]
    snapshot = {
        "schema": TRAJECTORY_SCHEMA,
        "label": label,
        "seq": seq if seq is not None else 0,
        "git": git_metadata(),
        "config": {
            "store_provenance": (
                provenances[0] if len(provenances) == 1 else "mixed"
            ),
            "fusion": (
                sorted({p["fusion_mode"] for p in profiles.values()})
                if profiles
                else ["auto"]
            )[0],
            "specialize": (
                "on"
                if any(p["specialize_enabled"] for p in profiles.values())
                else "off"
            ),
            "scheduler": "sequential",
            "seed_state": {
                "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
                "fault_plan_seed": None,
            },
        },
        "benches": benches,
        "profiles": profiles,
        "waivers": [],
    }
    return snapshot


# ----------------------------------------------------------------------
# Changelog storage
# ----------------------------------------------------------------------


def changelog_entries(changelog_dir: str) -> list:
    """``(path, payload)`` pairs for every snapshot in the changelog,
    sorted by filename (the ``NNNN-`` prefix makes that the series
    order). Unreadable files are skipped."""
    entries = []
    if not os.path.isdir(changelog_dir):
        return entries
    for fn in sorted(os.listdir(changelog_dir)):
        if not fn.endswith(".json"):
            continue
        path = os.path.join(changelog_dir, fn)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if (
            isinstance(payload, dict)
            and payload.get("schema") == TRAJECTORY_SCHEMA
        ):
            entries.append((path, payload))
    return entries


def save_snapshot(snapshot: dict, changelog_dir: str) -> str:
    """Write ``snapshot`` into the changelog as the next ``NNNN-<sha>``
    entry and return the path. The sequence number is (entries + 1), so
    interleaved collections never overwrite history."""
    os.makedirs(changelog_dir, exist_ok=True)
    seq = len(changelog_entries(changelog_dir)) + 1
    snapshot = dict(snapshot, seq=seq)
    short = snapshot.get("git", {}).get("short_sha", "unknown")
    path = os.path.join(changelog_dir, f"{seq:04d}-{short}.json")
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def validate_trajectory(payload) -> list:
    """Return a list of problems (empty = valid trajectory snapshot);
    the style (and CI role) of :func:`repro.obs.validate_profile`."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") != TRAJECTORY_SCHEMA:
        problems.append(
            f"schema must be {TRAJECTORY_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    git = payload.get("git")
    if not isinstance(git, dict) or not git.get("sha"):
        problems.append("git.sha is required")
    if not isinstance(payload.get("seq"), int) or payload.get("seq", 0) < 0:
        problems.append("seq must be a non-negative integer")
    config = payload.get("config")
    if not isinstance(config, dict):
        problems.append("config must be an object")
    else:
        for key in ("store_provenance", "fusion", "specialize"):
            if key not in config:
                problems.append(f"config: missing {key!r}")
    benches = payload.get("benches")
    if not isinstance(benches, dict):
        problems.append("benches must be an object")
    else:
        for bench, record in benches.items():
            if not isinstance(record, dict) or not isinstance(
                record.get("metrics"), dict
            ):
                problems.append(f"benches[{bench}]: metrics must be an object")
                continue
            for name, metric in record["metrics"].items():
                if not isinstance(metric, dict) or not isinstance(
                    metric.get("value"), (int, float)
                ):
                    problems.append(
                        f"benches[{bench}].metrics[{name}]: "
                        "value must be a number"
                    )
    if not isinstance(payload.get("profiles"), dict):
        problems.append("profiles must be an object")
    if not isinstance(payload.get("waivers"), list):
        problems.append("waivers must be a list")
    else:
        for i, waiver in enumerate(payload["waivers"]):
            if not isinstance(waiver, dict) or not waiver.get("metric"):
                problems.append(f"waivers[{i}]: metric is required")
            elif not waiver.get("reason"):
                problems.append(f"waivers[{i}]: reason is required")
    return problems


def validate_trajectory_file(path: str) -> dict:
    """Load and validate a snapshot; raises ``ValueError`` listing
    every problem, returns the payload when valid."""
    with open(path) as fh:
        payload = json.load(fh)
    problems = validate_trajectory(payload)
    if problems:
        raise ValueError(
            f"{path!r} is not a valid trajectory snapshot:\n  "
            + "\n  ".join(problems)
        )
    return payload


# ----------------------------------------------------------------------
# The flat metric view (diff / trend / gate all consume this)
# ----------------------------------------------------------------------


def snapshot_metrics(snapshot: dict) -> dict:
    """Every judged metric in a snapshot as one flat dict:

    * ``bench.<name>.<metric>`` from the aggregated bench reports,
    * ``profile.<app>.simulated.<key>`` (lower is better, modeled) —
      the deterministic critical-path times,
    * ``profile.<app>.counters.<name>`` (lower is better, modeled) —
      crossing/decision counts.
    """
    flat: dict = {}
    for bench, record in sorted(snapshot.get("benches", {}).items()):
        for name, metric in sorted(record.get("metrics", {}).items()):
            flat[f"bench.{bench}.{name}"] = {
                "value": metric["value"],
                "direction": metric.get("direction", "higher"),
                "kind": metric.get("kind", "modeled"),
                "unit": metric.get("unit", ""),
            }
    for app, profile in sorted(snapshot.get("profiles", {}).items()):
        for key, value in sorted(profile.get("simulated", {}).items()):
            flat[f"profile.{app}.simulated.{key}"] = {
                "value": value,
                "direction": "lower",
                "kind": "modeled",
                "unit": "s",
            }
        for name, value in sorted(profile.get("counters", {}).items()):
            flat[f"profile.{app}.counters.{name}"] = {
                "value": value,
                "direction": "lower",
                "kind": "modeled",
                "unit": "count",
            }
    return flat


def _classify(
    base: float, cur: float, direction: str, threshold_pct: float
) -> str:
    """Direction-aware movement: ``improved`` / ``regressed`` /
    ``within`` (inside the threshold band)."""
    if base == 0:
        return "within" if cur == base else (
            "improved" if (cur > base) == (direction == "higher")
            else "regressed"
        )
    delta_pct = 100.0 * (cur - base) / abs(base)
    worse = delta_pct < -threshold_pct if direction == "higher" \
        else delta_pct > threshold_pct
    better = delta_pct > threshold_pct if direction == "higher" \
        else delta_pct < -threshold_pct
    if worse:
        return "regressed"
    if better:
        return "improved"
    return "within"


def diff_snapshots(
    baseline: dict,
    current: dict,
    threshold_pct: float = DEFAULT_GATE_THRESHOLD_PCT,
) -> dict:
    """Per-metric delta of ``current`` against ``baseline``.

    Every metric present in either snapshot appears exactly once:
    shared metrics are classified direction-aware against the
    threshold; metrics only in ``current`` are ``added``; metrics only
    in ``baseline`` are ``removed`` (a disappearing bench bar is worth
    seeing, not silently dropping).
    """
    base_metrics = snapshot_metrics(baseline)
    cur_metrics = snapshot_metrics(current)
    entries = []
    for name in sorted(set(base_metrics) | set(cur_metrics)):
        base = base_metrics.get(name)
        cur = cur_metrics.get(name)
        if base is None:
            entries.append(
                {
                    "metric": name,
                    "classification": "added",
                    "current": cur["value"],
                    "direction": cur["direction"],
                    "kind": cur["kind"],
                }
            )
            continue
        if cur is None:
            entries.append(
                {
                    "metric": name,
                    "classification": "removed",
                    "baseline": base["value"],
                    "direction": base["direction"],
                    "kind": base["kind"],
                }
            )
            continue
        delta_pct = (
            100.0 * (cur["value"] - base["value"]) / abs(base["value"])
            if base["value"]
            else (0.0 if cur["value"] == base["value"] else float("inf"))
        )
        entries.append(
            {
                "metric": name,
                "classification": _classify(
                    base["value"], cur["value"],
                    cur["direction"], threshold_pct,
                ),
                "baseline": base["value"],
                "current": cur["value"],
                "delta_pct": round(delta_pct, 3)
                if delta_pct != float("inf")
                else None,
                "direction": cur["direction"],
                "kind": cur["kind"],
            }
        )
    counts: dict = {}
    for entry in entries:
        counts[entry["classification"]] = (
            counts.get(entry["classification"], 0) + 1
        )
    return {
        "schema": "repro.trajectory.diff/1",
        "baseline": _snapshot_id(baseline),
        "current": _snapshot_id(current),
        "threshold_pct": threshold_pct,
        "counts": counts,
        "entries": entries,
    }


def _snapshot_id(snapshot: dict) -> str:
    git = snapshot.get("git", {})
    label = snapshot.get("label") or ""
    seq = snapshot.get("seq", 0)
    short = git.get("short_sha", "unknown")
    return f"#{seq:04d} {short}" + (f" ({label})" if label else "")


def render_diff(diff: dict, show_within: bool = False) -> str:
    """Human-readable diff: regressions first, then improvements, then
    added/removed; ``within``-band metrics summarized unless asked."""
    lines = [
        f"trajectory diff: {diff['baseline']} -> {diff['current']} "
        f"(threshold {diff['threshold_pct']:g}%)"
    ]
    order = {"regressed": 0, "improved": 1, "added": 2, "removed": 3,
             "within": 4}
    entries = sorted(
        diff["entries"],
        key=lambda e: (order[e["classification"]], e["metric"]),
    )
    marks = {
        "regressed": "✗", "improved": "✓", "added": "+",
        "removed": "-", "within": "=",
    }
    shown = 0
    for entry in entries:
        cls = entry["classification"]
        if cls == "within" and not show_within:
            continue
        shown += 1
        if cls == "added":
            detail = f"(new) {entry['current']:.6g}"
        elif cls == "removed":
            detail = f"{entry['baseline']:.6g} (gone)"
        else:
            delta = entry.get("delta_pct")
            detail = (
                f"{entry['baseline']:.6g} -> {entry['current']:.6g}"
                + (f" ({delta:+.1f}%)" if delta is not None else "")
            )
        wall = "  [wall]" if entry.get("kind") == "wall" else ""
        lines.append(
            f"  {marks[cls]} {cls:<9s} {entry['metric']}: {detail}{wall}"
        )
    counts = diff["counts"]
    summary = ", ".join(
        f"{counts[k]} {k}" for k in order if counts.get(k)
    ) or "no metrics"
    lines.append(f"  ({summary}; {shown} shown)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trend rendering
# ----------------------------------------------------------------------


def _sparkline(values: list) -> str:
    finite = [v for v in values if isinstance(v, (int, float))]
    if not finite:
        return ""
    lo, hi = min(finite), max(finite)
    span = hi - lo
    chars = []
    for v in values:
        if not isinstance(v, (int, float)):
            chars.append(" ")
            continue
        frac = 0.5 if span == 0 else (v - lo) / span
        chars.append(_SPARK_CHARS[min(int(frac * 7.999), 7)])
    return "".join(chars)


def trend_report(snapshots: list) -> dict:
    """The whole-changelog series, per metric: every value in sequence
    order plus a first->last direction-aware classification (threshold
    0: any net movement counts)."""
    ids = [_snapshot_id(s) for s in snapshots]
    per_metric: dict = {}
    for i, snapshot in enumerate(snapshots):
        for name, metric in snapshot_metrics(snapshot).items():
            row = per_metric.setdefault(
                name,
                {
                    "values": [None] * len(snapshots),
                    "direction": metric["direction"],
                    "kind": metric["kind"],
                    "unit": metric["unit"],
                },
            )
            row["values"][i] = metric["value"]
    for name, row in per_metric.items():
        present = [v for v in row["values"] if v is not None]
        row["first"] = present[0] if present else None
        row["last"] = present[-1] if present else None
        if len(present) >= 2 and present[0]:
            row["net_pct"] = round(
                100.0 * (present[-1] - present[0]) / abs(present[0]), 3
            )
            row["net"] = _classify(
                present[0], present[-1], row["direction"], 0.0
            )
        else:
            row["net_pct"] = None
            row["net"] = "flat"
        row["sparkline"] = _sparkline(row["values"])
    return {
        "schema": "repro.trajectory.trend/1",
        "snapshots": ids,
        "points": len(snapshots),
        "metrics": dict(sorted(per_metric.items())),
    }


def render_trend(report: dict, metric_filter: str = "") -> str:
    """Text trend over the changelog: one sparkline row per metric,
    grouped by top-level prefix (``bench.<name>`` / ``profile.<app>``)."""
    lines = [
        f"performance trajectory: {report['points']} snapshot(s)"
    ]
    for snap_id in report["snapshots"]:
        lines.append(f"  {snap_id}")
    if not report["metrics"]:
        lines.append("(no metrics recorded)")
        return "\n".join(lines)
    marks = {"improved": "✓", "regressed": "✗", "within": "=", "flat": "·"}
    group = None
    for name, row in report["metrics"].items():
        if metric_filter and metric_filter not in name:
            continue
        prefix = ".".join(name.split(".")[:2])
        if prefix != group:
            group = prefix
            lines.append("")
            lines.append(f"{group}:")
        short = name[len(prefix) + 1:]
        net = (
            f"{row['net_pct']:+.1f}%"
            if row.get("net_pct") is not None
            else "  --  "
        )
        first = row["first"]
        last = row["last"]
        series = (
            f"{first:.4g} -> {last:.4g}"
            if first is not None and last is not None
            else "(absent)"
        )
        wall = " [wall]" if row.get("kind") == "wall" else ""
        lines.append(
            f"  {marks.get(row['net'], '·')} {short:<46s} "
            f"{row['sparkline']:<8s} {series:>24s} {net:>8s}{wall}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The regression gate
# ----------------------------------------------------------------------


def gate_snapshots(
    current: dict,
    baseline: dict,
    threshold_pct: float = DEFAULT_GATE_THRESHOLD_PCT,
) -> dict:
    """The CI gate: every *modeled* metric of ``baseline`` that
    regressed beyond ``threshold_pct`` in ``current``.

    Returns ``{"regressions": [...], "waived": [...], "checked": N}``;
    the caller exits nonzero when ``regressions`` is non-empty. Wall
    metrics and added/removed metrics never gate (a removed bar is a
    review concern, not a CI failure). Waivers recorded in the current
    snapshot (``bench gate --bless``) move a regression into
    ``waived`` with its annotation."""
    diff = diff_snapshots(baseline, current, threshold_pct)
    waivers = {
        w.get("metric"): w
        for w in current.get("waivers", [])
        if isinstance(w, dict)
    }
    regressions = []
    waived = []
    checked = 0
    for entry in diff["entries"]:
        if entry["classification"] in ("added", "removed"):
            continue
        if entry.get("kind") != "modeled":
            continue
        checked += 1
        if entry["classification"] != "regressed":
            continue
        arrow = (
            f"{entry['baseline']:.6g} -> {entry['current']:.6g}"
            + (
                f" ({entry['delta_pct']:+.1f}%)"
                if entry.get("delta_pct") is not None
                else ""
            )
        )
        message = (
            f"{entry['metric']}: {arrow}, {entry['direction']} is better "
            f"(threshold {threshold_pct:g}%)"
        )
        waiver = waivers.get(entry["metric"])
        if waiver is not None:
            waived.append(f"{message} — waived: {waiver.get('reason', '')}")
        else:
            regressions.append(message)
    return {
        "schema": "repro.trajectory.gate/1",
        "baseline": diff["baseline"],
        "current": diff["current"],
        "threshold_pct": threshold_pct,
        "checked": checked,
        "regressions": regressions,
        "waived": waived,
    }


def add_waivers(
    snapshot_path: str, metrics: list, reason: str
) -> dict:
    """Record an annotated waiver for each metric into the snapshot at
    ``snapshot_path`` (the ``bench gate --bless`` path: an intentional
    regression is blessed *in the record*, never by silently editing a
    baseline). Returns the updated snapshot."""
    if not reason:
        raise ValueError("a waiver requires a non-empty --reason")
    snapshot = validate_trajectory_file(snapshot_path)
    existing = {
        w.get("metric") for w in snapshot["waivers"] if isinstance(w, dict)
    }
    blessed_by = git_metadata()
    for metric in metrics:
        if metric in existing:
            continue
        snapshot["waivers"].append(
            {
                "metric": metric,
                "reason": reason,
                "blessed_at": blessed_by.get("sha", "unknown"),
            }
        )
    with open(snapshot_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snapshot
