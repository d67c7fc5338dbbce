"""Artifact cache: modeled warm-start speedup over cold codegen.

The tentpole claim of docs/CACHING.md, measured: a cold compile pays
the modeled codegen cost of every backend (bytecode emission is cheap;
OpenCL codegen costs milliseconds; Verilog synthesis costs modeled
*seconds* per artifact), while a warm start pays only manifest
verification plus payload deserialization — modeled as a flat overhead
and a disk-bandwidth term. The acceptance bar is a >= 5x modeled
speedup of the backend compile path, summed over the harvested app
suite; the actual factor is orders of magnitude larger because Verilog
synthesis dominates the cold path.

Results land in ``benchmarks/out/BENCH_artifact_cache.json`` — one
JSON object with per-app cold/warm modeled seconds and the aggregate
speedup. Wall-clock is reported as a sanity signal only; the modeled
clock is the accepted metric (same convention as BENCH_marshal).
"""

import time

from repro.apps import SUITE
from repro.backends.artifacts import CacheOptions
from repro.compiler import CompileOptions, CompilerSession

from harness import bench_metric, format_table, write_bench_report

#: Modeled speedup the warm path must clear, summed across the suite.
ACCEPTANCE_SPEEDUP = 5.0


def test_bench_artifact_cache_warm_start(benchmark, tmp_path, capsys):
    cache = CacheOptions(
        cache_dir=str(tmp_path / "cache"), mode="readwrite"
    )
    options = CompileOptions(cache=cache)
    names = sorted(SUITE)

    def run():
        apps = {}
        cold_wall = time.perf_counter()
        cold_session = CompilerSession(options)
        for name in names:
            result = cold_session.compile(
                SUITE[name].source, filename=f"<{name}.lime>"
            )
            assert not result.warm, f"{name}: first compile must be cold"
            apps[name] = {"modeled_cold_s": result.modeled_compile_s}
        cold_wall = time.perf_counter() - cold_wall

        warm_wall = time.perf_counter()
        warm_session = CompilerSession(options)
        for name in names:
            result = warm_session.compile(
                SUITE[name].source, filename=f"<{name}.lime>"
            )
            assert result.warm, f"{name}: second compile must warm-start"
            apps[name]["modeled_warm_s"] = result.modeled_compile_s
            apps[name]["payload_bytes"] = sum(
                info.get("payload_bytes", 0)
                for info in result.cache_info.values()
            )
        warm_wall = time.perf_counter() - warm_wall
        return apps, cold_wall, warm_wall

    apps, cold_wall, warm_wall = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    rows = []
    for name in sorted(apps):
        entry = apps[name]
        entry["speedup"] = (
            entry["modeled_cold_s"] / entry["modeled_warm_s"]
        )
        rows.append(
            [
                name,
                f"{entry['modeled_cold_s'] * 1e3:,.1f}ms",
                f"{entry['modeled_warm_s'] * 1e6:,.0f}us",
                f"{entry['payload_bytes']:,}",
                f"{entry['speedup']:,.0f}x",
            ]
        )
    total_cold = sum(e["modeled_cold_s"] for e in apps.values())
    total_warm = sum(e["modeled_warm_s"] for e in apps.values())
    speedup = total_cold / total_warm
    rows.append(
        [
            "TOTAL",
            f"{total_cold * 1e3:,.1f}ms",
            f"{total_warm * 1e6:,.0f}us",
            f"{sum(e['payload_bytes'] for e in apps.values()):,}",
            f"{speedup:,.0f}x",
        ]
    )
    print(
        "\n[artifact-cache] modeled backend compile path, cold vs "
        "warm start:\n"
        + format_table(
            ["app", "cold", "warm", "payload", "speedup"], rows
        )
    )

    write_bench_report(
        "artifact_cache",
        {
            "totals.modeled_speedup": bench_metric(
                speedup, unit="x", direction="higher"
            ),
            "totals.modeled_cold_s": bench_metric(
                total_cold, unit="s", direction="lower"
            ),
            "totals.modeled_warm_s": bench_metric(
                total_warm, unit="s", direction="lower"
            ),
            "totals.cold_wall_s": bench_metric(
                cold_wall, unit="s", direction="lower", kind="wall"
            ),
            "totals.warm_wall_s": bench_metric(
                warm_wall, unit="s", direction="lower", kind="wall"
            ),
        },
    )

    assert speedup >= ACCEPTANCE_SPEEDUP, (
        f"warm start only {speedup:.2f}x the cold compile path on the "
        f"modeled clock; the cache is not amortizing backend codegen"
    )
    # Every single app clears the bar on its own too — the speedup is
    # not carried by one Verilog-heavy outlier.
    for name, entry in apps.items():
        assert entry["speedup"] >= ACCEPTANCE_SPEEDUP, name
