"""E2 — Figure 2: the compilation toolchain.

Compiles the entire application suite through the frontend and all
three backends, and reports the artifact matrix: which tasks received
bytecode / OpenCL / Verilog implementations and which were excluded and
why. This is the textual equivalent of Figure 2's artifact flow (and of
the IDE's per-task markers in Figure 4's top half).
"""

from repro.apps import SUITE
from repro.compiler import CompilerSession, compile_report

from harness import bench_metric, format_table, write_bench_report


def _suite_compile():
    results = {}
    for name, spec in SUITE.items():
        results[name] = CompilerSession().compile(spec.source, filename=name)
    return results


def test_bench_compile_suite(benchmark):
    """Wall time to push the whole suite through the toolchain."""
    results = benchmark.pedantic(_suite_compile, rounds=1, iterations=1)
    assert len(results) == len(SUITE)


def test_bench_fig2_artifact_matrix(benchmark, capsys):
    results = benchmark.pedantic(_suite_compile, rounds=1, iterations=1)
    rows = []
    totals = {"bytecode": 0, "gpu": 0, "fpga": 0, "excluded": 0}
    for name, result in sorted(results.items()):
        gpu = len(result.store.for_device("gpu"))
        fpga = len(result.store.for_device("fpga"))
        excluded = len(result.store.exclusions)
        graphs = len(result.task_graphs)
        rows.append([name, graphs, 1, gpu, fpga, excluded])
        totals["bytecode"] += 1
        totals["gpu"] += gpu
        totals["fpga"] += fpga
        totals["excluded"] += excluded
    table = format_table(
        ["program", "graphs", "bytecode", "gpu", "fpga", "exclusions"],
        rows,
    )
    print("\n[E2] Toolchain artifact matrix:\n" + table)
    write_bench_report(
        "fig2_toolchain",
        {
            "artifacts.gpu": bench_metric(
                totals["gpu"], unit="count", direction="higher"
            ),
            "artifacts.fpga": bench_metric(
                totals["fpga"], unit="count", direction="higher"
            ),
            "artifacts.excluded": bench_metric(
                totals["excluded"], unit="count", direction="lower"
            ),
        },
    )

    # Structural claims from Section 3:
    # 1. The CPU backend always compiles the entire program.
    assert totals["bytecode"] == len(SUITE)
    # 2. Every map-flavor program produced at least one GPU artifact.
    for name, spec in SUITE.items():
        if spec.flavor in ("map", "reduce", "hybrid"):
            assert results[name].store.for_device("gpu"), name
    # 3. The FPGA backend is narrower: the float-typed map kernels are
    #    not synthesizable, so FPGA artifacts exist only for the
    #    bit/int streaming programs.
    fpga_programs = {
        name for name, r in results.items() if r.store.for_device("fpga")
    }
    assert fpga_programs == {
        "bitflip", "crc8", "parity", "gray_pipeline", "hybrid",
    }
    # 4. Exclusions carry human-readable reasons.
    some = [e for r in results.values() for e in r.store.exclusions]
    assert all(e.reason for e in some)


def test_bench_fig2_report_renders(benchmark):
    result = CompilerSession().compile(SUITE["bitflip"].source)
    text = benchmark.pedantic(
        lambda: compile_report(result), rounds=1, iterations=1
    )
    assert "task graphs:" in text
    assert "source(1) => [flip] => sink" in text
    assert "bytecode:program" in text
    assert "gpu:" in text and "fpga:" in text
