"""Task fusion: boundary crossings and modeled time, fused vs unfused.

The tentpole claim of docs/FUSION.md, measured on the marshaling-bound
apps of ``BENCH_marshal.json``: fusing the two-stage gray_pipeline
stream collapses four boundary crossings per batch into two (one in,
one out for the whole span), halving the modeled graph time; fusing
the photo_pipeline map chain collapses two kernel launches (each with
its own round trip) into one composite kernel.

Results land in ``benchmarks/out/BENCH_fusion.json`` — per app: the
crossing counts, the modeled seconds, and the speedup on the device
path. The acceptance bar is a >= 2x modeled speedup on the fused
device path with strictly fewer crossings; runs in the tier-1 suite
and ``make bench-smoke``.
"""

from repro.apps import compile_app, workloads
from repro.compiler import CompileOptions
from repro.ir.fusion import FusionOptions
from repro.obs import Tracer
from repro.runtime import Runtime, RuntimeConfig

from harness import bench_metric, format_table, write_bench_report

AUTO = CompileOptions(fusion=FusionOptions(mode="auto"))

#: The marshaling-bound workloads of BENCH_marshal.json, plus the map
#: chain. device_path selects the ledger bucket fusion accelerates:
#: the stream pipeline crosses inside the graph, the map chain in
#: per-call offloads.
APPS = {
    "gray_pipeline": (lambda: workloads.gray_pipeline_args(256), "graph_s"),
    "photo_pipeline": (
        lambda: workloads.photo_pipeline_args(256),
        "offload_s",
    ),
}


def _measure(name, fused):
    entry, args = APPS[name][0]()
    compiled = compile_app(name, AUTO if fused else CompileOptions())
    tracer = Tracer()
    outcome = Runtime(
        compiled,
        RuntimeConfig(
            scheduler="sequential",
            tracer=tracer,
            fusion="auto" if fused else "off",
        ),
    ).run(entry, args)
    counters = tracer.counters.snapshot()
    summary = outcome.ledger.summary()
    return {
        "crossings": counters.get("marshal.crossings", 0),
        "total_s": summary["total_s"],
        "device_path_s": summary[APPS[name][1]],
        "value": repr(outcome.value),
    }


def test_bench_fusion_speedup(benchmark, capsys):
    def run():
        return {
            name: {
                "unfused": _measure(name, fused=False),
                "fused": _measure(name, fused=True),
            }
            for name in sorted(APPS)
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    report = {}
    for name, modes in sorted(results.items()):
        unfused, fused = modes["unfused"], modes["fused"]
        # Fusion must be invisible in the answer...
        assert unfused["value"] == fused["value"], name
        # ...strictly cheaper at the boundary...
        assert fused["crossings"] < unfused["crossings"], name
        # ...and >= 2x faster on the device path it collapses (the
        # whole intermediate round trip disappears).
        speedup = unfused["device_path_s"] / fused["device_path_s"]
        assert speedup >= 2.0, (
            f"{name}: fused device path only {speedup:.2f}x faster; "
            f"fusion is not eliminating the intermediate crossings"
        )
        end_to_end = unfused["total_s"] / fused["total_s"]
        report[name] = {
            "device_path": APPS[name][1],
            "unfused": {
                k: v for k, v in unfused.items() if k != "value"
            },
            "fused": {k: v for k, v in fused.items() if k != "value"},
            "device_path_speedup": speedup,
            "end_to_end_speedup": end_to_end,
        }
        rows.append(
            [
                name,
                f"{unfused['crossings']:g} -> {fused['crossings']:g}",
                f"{unfused['device_path_s'] * 1e6:.2f}us",
                f"{fused['device_path_s'] * 1e6:.2f}us",
                f"{speedup:.2f}x",
                f"{end_to_end:.2f}x",
            ]
        )

    print(
        "\n[fusion] fused vs unfused, sequential scheduler:\n"
        + format_table(
            [
                "app",
                "crossings",
                "unfused dev",
                "fused dev",
                "dev speedup",
                "end-to-end",
            ],
            rows,
        )
    )

    metrics = {}
    for name, entry in report.items():
        metrics[f"{name}.device_path_speedup"] = bench_metric(
            entry["device_path_speedup"], unit="x", direction="higher"
        )
        metrics[f"{name}.end_to_end_speedup"] = bench_metric(
            entry["end_to_end_speedup"], unit="x", direction="higher"
        )
        metrics[f"{name}.fused.crossings"] = bench_metric(
            entry["fused"]["crossings"], unit="count", direction="lower"
        )
        metrics[f"{name}.fused.device_path_s"] = bench_metric(
            entry["fused"]["device_path_s"], unit="s", direction="lower"
        )
    write_bench_report("fusion", metrics)
