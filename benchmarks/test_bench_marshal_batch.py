"""Batched wire-format fast path: throughput vs per-element crossings.

The tentpole claim of docs/PERFORMANCE.md, measured: streaming 1000 int
values through a marshaling boundary one at a time pays ~2.7us of fixed
serialize/JNI/convert cost (plus link latency) per value *each way*;
crossing in 0x09 batch frames amortizes all of that over the batch. The
acceptance bar is a >= 2x modeled throughput improvement at batch size
64 on the 1000-element stream; the actual improvement is far larger.

Results land in ``benchmarks/out/BENCH_marshal.json`` — one JSON object
with the microbenchmark sweep and an app-level batch_size=1 vs 64
comparison (see docs/PERFORMANCE.md for how to read it). The fast tests
here run in the tier-1 suite (and ``make bench-smoke``); the
``slow``-marked variants sweep full-scale streams.
"""

import pytest

from repro.apps import compile_app, workloads
from repro.runtime import Runtime, RuntimeConfig
from repro.runtime.marshaling import MarshalingBoundary

from harness import (
    bench_metric,
    format_table,
    marshal_stream_seconds,
    write_bench_report,
)

STREAM_ITEMS = 1000
BATCH_SIZES = [8, 64, 256, 1000]

#: App-level comparison workloads: filter pipelines that actually drain
#: their FIFOs through the batched device boundary, at reduced sizes.
APP_WORKLOADS = {
    "bitflip": lambda: workloads.bitflip_args(256),
    "gray_pipeline": lambda: workloads.gray_pipeline_args(256),
}


def _app_seconds(name, batch_size):
    entry, args = APP_WORKLOADS[name]()
    runtime = Runtime(
        compile_app(name), RuntimeConfig(batch_size=batch_size)
    )
    outcome = runtime.run(entry, args)
    return outcome


def test_bench_marshal_batch_throughput(benchmark, capsys):
    def run():
        per_element_s = marshal_stream_seconds(STREAM_ITEMS, 1)
        batched = {
            size: marshal_stream_seconds(STREAM_ITEMS, size)
            for size in BATCH_SIZES
        }
        return per_element_s, batched

    per_element_s, batched = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            1,
            f"{per_element_s * 1e6:.1f}us",
            f"{STREAM_ITEMS / per_element_s:,.0f}/s",
            "1.00x",
        ]
    ]
    for size in BATCH_SIZES:
        rows.append(
            [
                size,
                f"{batched[size] * 1e6:.1f}us",
                f"{STREAM_ITEMS / batched[size]:,.0f}/s",
                f"{per_element_s / batched[size]:.2f}x",
            ]
        )
    print(
        "\n[marshal] 1000-int stream, modeled boundary time by batch "
        "size:\n"
        + format_table(["batch", "total", "throughput", "speedup"], rows)
    )

    # App level: the same knob, end to end. Output equality is the
    # differential suite's job; here we only require it not to regress.
    apps = {}
    for name in sorted(APP_WORKLOADS):
        scalar = _app_seconds(name, 1)
        fast = _app_seconds(name, 64)
        assert scalar.value == fast.value, name
        apps[name] = {
            "batch_1_s": scalar.seconds,
            "batch_64_s": fast.seconds,
            "improvement": scalar.seconds / fast.seconds,
        }

    improvement_64 = per_element_s / batched[64]
    metrics = {
        "stream.per_element_s": bench_metric(
            per_element_s, unit="s", direction="lower"
        ),
        "stream.throughput_improvement_at_64": bench_metric(
            improvement_64, unit="x", direction="higher"
        ),
    }
    for size in BATCH_SIZES:
        metrics[f"stream.batched_s.{size}"] = bench_metric(
            batched[size], unit="s", direction="lower"
        )
    for name, entry in apps.items():
        metrics[f"apps.{name}.improvement"] = bench_metric(
            entry["improvement"], unit="x", direction="higher"
        )
        metrics[f"apps.{name}.batch_64_s"] = bench_metric(
            entry["batch_64_s"], unit="s", direction="lower"
        )
    write_bench_report("marshal", metrics)

    # The acceptance bar: batching must at least double the modeled
    # throughput of the per-element path on this stream.
    assert improvement_64 >= 2.0, (
        f"batched throughput only {improvement_64:.2f}x the per-element "
        f"path; the fast path is not amortizing fixed crossing costs"
    )
    # Bigger batches amortize strictly better on a fixed stream.
    assert batched[1000] <= batched[64] <= batched[8] < per_element_s
    for name, entry in apps.items():
        assert entry["improvement"] >= 1.0, (
            f"{name}: batch_size=64 modeled slower than per-element"
        )


@pytest.mark.slow
def test_bench_marshal_batch_large_stream(benchmark):
    # Full-scale sweep: 100k elements. The fixed-cost amortization
    # saturates (per-byte costs dominate), so the improvement over
    # per-element crossing grows with N before leveling off.
    n = 100_000
    def run():
        return (
            marshal_stream_seconds(n, 1),
            marshal_stream_seconds(n, 4096),
        )

    per_element_s, batched_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert per_element_s / batched_s >= 10.0


@pytest.mark.slow
def test_bench_marshal_batch_apps_default_scale(benchmark):
    # App-level differential at the apps' default (full) workloads.
    from repro.apps import SUITE

    def run():
        out = {}
        for name in sorted(APP_WORKLOADS):
            entry, args = SUITE[name].default_args()
            scalar = Runtime(
                compile_app(name), RuntimeConfig(batch_size=1)
            ).run(entry, args)
            fast = Runtime(
                compile_app(name), RuntimeConfig(batch_size=64)
            ).run(entry, args)
            assert scalar.value == fast.value, name
            out[name] = (scalar.seconds, fast.seconds)
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, (scalar_s, fast_s) in results.items():
        assert fast_s <= scalar_s, name
