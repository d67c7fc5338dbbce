#!/usr/bin/env python3
"""Quickstart: compile and run the paper's Figure 1 example.

Compiles the Bitflip Lime class through the full Liquid Metal
toolchain (bytecode + OpenCL + Verilog backends), prints the compile
report, and runs the ``taskFlip`` task graph with automatic task
substitution onto the simulated GPU.

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.compiler import CompilerSession, compile_report
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_BIT, ValueArray, parse_bit_literal

LIME_SOURCE = """
public class Bitflip {
    local static bit flip(bit b) {
        return ~b;
    }
    local static bit[[]] mapFlip(bit[[]] input) {
        var flipped = Bitflip @ flip(input);
        return flipped;
    }
    static bit[[]] taskFlip(bit[[]] input) {
        bit[] result = new bit[input.length];
        var flipit = input.source(1)
            => ([ task flip ])
            => result.<bit>sink();
        flipit.finish();
        return new bit[[]](result);
    }
}
"""


def main() -> None:
    print("compiling Figure 1 ...")
    compiled = CompilerSession().compile(LIME_SOURCE, filename="Bitflip.lime")
    print(compile_report(compiled))
    print()

    stream = ValueArray(KIND_BIT, parse_bit_literal("110010111"))
    print(f"input : {stream!r}")

    # Accelerated run: the runtime substitutes the [flip] region.
    runtime = Runtime(compiled)
    outcome = runtime.run("Bitflip.taskFlip", [stream])
    graph_id, decisions = runtime.substitution_log[0]
    chosen = decisions[0].device if decisions else "bytecode"
    print(f"output: {outcome.value!r}   (flip ran on: {chosen})")
    print(f"simulated end-to-end time: {outcome.seconds * 1e6:.2f} us")

    # Same graph pinned to bytecode, for comparison.
    plain = Runtime(
        compiled,
        RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
    ).run("Bitflip.taskFlip", [stream])
    print(
        f"bytecode-only time:        {plain.seconds * 1e6:.2f} us "
        "(tiny streams stay faster on the CPU — exactly why the "
        "runtime lets you direct placement)"
    )

    # The data-parallel form of the same computation.
    map_result = runtime.call("Bitflip.mapFlip", [stream])
    assert map_result == outcome.value
    print(f"mapFlip agrees: {map_result!r}")


if __name__ == "__main__":
    main()
