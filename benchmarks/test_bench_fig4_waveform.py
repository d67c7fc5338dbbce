"""E4 — Figure 4 (bottom): co-execution with the Verilog simulator.

Drives the generated Bitflip module with the figure's 9 input bits and
checks the waveform facts the paper narrates:

* 9 transitions on ``inReady`` (one per input);
* the FIFO "produces a value on the next rising edge of the clock" —
  ``inData`` goes high one cycle after ``inReady``;
* "another three cycles later, the output of the module is ready" —
  one cycle to read, one to compute, one to publish;
* the module I/O "is not fully pipelined" (initiation interval 3 by
  default); the pipelined variant is the ablation.

The VCD waveform is written to the benchmark output directory
(``harness.OUT_DIR``) for inspection in any waveform viewer.
"""

import os

import pytest

from repro.apps import compile_app
from repro.compiler import CompileOptions
from repro.devices.fpga import FPGASimulator
from repro.values import parse_bit_literal

import harness
from harness import bench_metric, write_bench_report

# Figure 4 drives 9 input bits; we use the literal from the test deck.
NINE_BITS = [int(b) for b in parse_bit_literal("110010111")]


def bitflip_bundle(pipelined=False):
    compiled = compile_app(
        "bitflip", options=CompileOptions(fpga_pipelined=pipelined)
    )
    (artifact,) = compiled.store.for_device("fpga")
    return artifact.payload


def run_waveform(pipelined=False):
    bundle = bitflip_bundle(pipelined)
    sim = FPGASimulator(period_ns=4)
    return sim.run_stream(
        bundle.elaborate(), list(NINE_BITS), return_to_zero=True
    )


def test_bench_fig4_waveform(benchmark, capsys):
    result = benchmark.pedantic(run_waveform, rounds=1, iterations=1)
    # Functional: every bit flipped, in order.
    assert result.outputs == [1 - b for b in NINE_BITS]
    # 9 transitions on inReady.
    assert len(result.vcd.rising_edges("inReady")) == 9
    assert len(result.details["enqueue_times"]) == 9
    # FIFO latency: inData one cycle after inReady (period = 4ns).
    in_ready_t = result.vcd.rising_edges("inReady")[0]
    fifo_t = result.vcd.rising_edges("fifo_valid")[0]
    assert fifo_t - in_ready_t == 4
    # Read + compute + publish: outReady three cycles after the FIFO.
    out_t = result.vcd.rising_edges("outReady")[0]
    assert out_t - fifo_t == 3 * 4
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    vcd_path = os.path.join(harness.OUT_DIR, "fig4_bitflip.vcd")
    with open(vcd_path, "w") as f:
        f.write(result.vcd.render())
    print(
        f"\n[E4] Figure 4 waveform: 9 inputs, {result.cycles} cycles, "
        f"latency 4 cycles (1 FIFO + read/compute/publish); "
        f"VCD written to {vcd_path}"
    )
    benchmark.extra_info["cycles"] = result.cycles


def test_bench_fig4_pipelining_ablation(benchmark, capsys):
    """The paper notes its module 'is not fully pipelined'; compare the
    default II=3 module against the II=1 variant on a longer stream."""
    stream = [i & 1 for i in range(256)]

    def run_both():
        results = {}
        for pipelined in (False, True):
            bundle = bitflip_bundle(pipelined)
            sim = FPGASimulator()
            results[pipelined] = sim.run_stream(
                bundle.elaborate(), list(stream)
            )
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    plain, piped = results[False], results[True]
    assert plain.outputs == piped.outputs
    print(
        f"\n[E4-ablation] 256-bit stream: II=3 module {plain.cycles} "
        f"cycles ({plain.throughput_items_per_cycle:.2f} items/cycle) "
        f"vs II=1 module {piped.cycles} cycles "
        f"({piped.throughput_items_per_cycle:.2f} items/cycle)"
    )
    # Non-pipelined: about one item per 3-4 cycles.
    assert 2.5 < 1 / plain.throughput_items_per_cycle < 4.5
    # Pipelined: approaches one item per cycle.
    assert piped.throughput_items_per_cycle > 0.85
    assert piped.cycles < plain.cycles / 2
    write_bench_report(
        "fig4_waveform",
        {
            "stream256.ii3.cycles": bench_metric(
                plain.cycles, unit="cycles", direction="lower"
            ),
            "stream256.ii1.cycles": bench_metric(
                piped.cycles, unit="cycles", direction="lower"
            ),
            "stream256.ii1.items_per_cycle": bench_metric(
                piped.throughput_items_per_cycle,
                unit="items/cycle",
                direction="higher",
            ),
        },
    )


def test_bench_fig4_synthesis_report(benchmark, capsys):
    """Per-module synthesis estimates (the vendor-flow stand-in)."""
    from harness import format_table

    rows = []
    for app in ("bitflip", "crc8", "parity", "gray_pipeline"):
        compiled = compile_app(app)
        for artifact in compiled.store.for_device("fpga"):
            report = artifact.payload.synthesis
            rows.append(
                [
                    report.module,
                    report.luts,
                    report.flipflops,
                    report.brams,
                    f"{report.fmax_hz / 1e6:.0f}MHz",
                ]
            )

    table = benchmark.pedantic(
        lambda: format_table(
            ["module", "LUTs", "FFs", "BRAMs", "Fmax"], rows
        ),
        rounds=1,
        iterations=1,
    )
    print("\n[E4] FPGA synthesis estimates:\n" + table)
    # The CRC/parity datapaths (unrolled loops) cost far more logic
    # than the single-gate bitflip.
    luts = {r[0]: r[1] for r in rows}
    assert luts["mod_Bitflip_flip"] < 8
    assert luts["mod_Crc8_step"] > luts["mod_Bitflip_flip"] * 10
    assert luts["mod_Parity_parity"] > luts["mod_Bitflip_flip"] * 10
