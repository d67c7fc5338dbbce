"""Property-based cross-layer invariants.

The deepest guarantees of the reproduction, checked over randomized
programs and inputs:

* shallow optimizations never change observable results;
* the FPGA datapath (symbolic if-conversion + RTL evaluation) computes
  exactly what the bytecode interpreter computes;
* GPU filter execution is bit-identical to the CPU path;
* the threaded and sequential schedulers agree;
* value semantics (immutability, structural equality) hold under
  arbitrary construction orders.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.bytecode import Interpreter, compile_module
from repro.ir import build_ir
from repro.lime import analyze
from repro.values import KIND_INT, ValueArray

# ---------------------------------------------------------------------------
# Random integer expression programs
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "c")


@st.composite
def int_exprs(draw, depth=0):
    """A random Lime int expression over parameters a, b, c."""
    if depth >= 4 or draw(st.booleans()):
        leaf = draw(
            st.one_of(
                st.sampled_from(_NAMES),
                st.integers(min_value=-50, max_value=50).map(
                    lambda v: f"({v})" if v < 0 else str(v)
                ),
            )
        )
        return leaf
    kind = draw(
        st.sampled_from(["+", "-", "*", "&", "|", "^", "min", "ternary", "shift"])
    )
    left = draw(int_exprs(depth=depth + 1))
    right = draw(int_exprs(depth=depth + 1))
    if kind == "min":
        return f"Math.min({left}, {right})"
    if kind == "ternary":
        third = draw(int_exprs(depth=depth + 1))
        return f"(({left}) < ({right}) ? ({third}) : ({right}))"
    if kind == "shift":
        amount = draw(st.integers(min_value=0, max_value=8))
        op = draw(st.sampled_from(["<<", ">>"]))
        return f"(({left}) {op} {amount})"
    return f"(({left}) {kind} ({right}))"


def _program_for(expr_text):
    return (
        "class P { local static int f(int a, int b, int c) "
        f"{{ return {expr_text}; }} }}"
    )


def _interp(source, optimized):
    module = build_ir(analyze(source), run_optimizations=optimized)
    return Interpreter(compile_module(module))


class TestOptimizationSoundness:
    @settings(max_examples=60, deadline=None)
    @given(
        int_exprs(),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    def test_optimized_matches_unoptimized(self, expr, a, b, c):
        source = _program_for(expr)
        plain = _interp(source, optimized=False)
        optimized = _interp(source, optimized=True)
        assert plain.call("P.f", [a, b, c]) == optimized.call(
            "P.f", [a, b, c]
        )

    @settings(max_examples=40, deadline=None)
    @given(int_exprs())
    def test_optimization_never_grows_code(self, expr):
        source = _program_for(expr)
        plain = _interp(source, optimized=False)
        optimized = _interp(source, optimized=True)
        assert len(optimized.program.functions["P.f"].code) <= len(
            plain.program.functions["P.f"].code
        )


class TestDatapathEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        int_exprs(),
        st.integers(-(2**20), 2**20),
        st.integers(-(2**20), 2**20),
        st.integers(-(2**20), 2**20),
    )
    def test_fpga_datapath_matches_interpreter(self, expr, a, b, c):
        from repro.backends.verilog.codegen import lower_datapath
        from repro.backends.verilog.datapath import DatapathBuilder
        from repro.errors import ExclusionNotice

        source = _program_for(expr)
        module = build_ir(analyze(source))
        try:
            datapath = DatapathBuilder(module).build("P.f")
        except ExclusionNotice:
            return  # legitimately unsynthesizable shapes are skipped
        interp = Interpreter(compile_module(module))
        expected = interp.call("P.f", [a, b, c])
        got = lower_datapath(datapath)({"a": a, "b": b, "c": c})
        assert got == expected

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=12))
    def test_rtl_stream_matches_interpreter(self, items):
        """Full RTL simulation of a nontrivial filter vs bytecode."""
        from repro.backends.verilog import compile_fpga
        from repro.devices.fpga import FPGASimulator

        source = """
        class T {
            local static int f(int x) {
                int y = x * 3 - 7;
                if (y < 0) { y = -y; }
                return (y ^ (y >> 2)) + 1;
            }
            static void m(int[[]] xs, int[] out) {
                var t = xs.source(1) => ([ task f ]) => out.sink();
                t.finish();
            }
        }
        """
        module = build_ir(analyze(source))
        interp = Interpreter(compile_module(module))
        expected = [interp.call("T.f", [x]) for x in items]
        bundle = compile_fpga(module).artifacts[0].payload
        result = FPGASimulator().run_stream(
            bundle.elaborate(), [bundle.encode(x) for x in items]
        )
        assert [bundle.decode(r) for r in result.outputs] == expected


class TestDeviceEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.integers(-(2**15), 2**15), min_size=1, max_size=64
        )
    )
    def test_gpu_filter_matches_cpu(self, xs):
        from repro.apps import compile_app
        from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

        compiled = compile_app("gray_pipeline")
        arr = ValueArray(KIND_INT, xs)
        gpu = Runtime(compiled).call("GrayCoder.pipeline", [arr])
        cpu = Runtime(
            compiled,
            RuntimeConfig(policy=SubstitutionPolicy(use_accelerators=False)),
        ).call("GrayCoder.pipeline", [arr])
        assert gpu == cpu

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=48))
    def test_schedulers_agree(self, xs):
        from repro.apps import compile_app
        from repro.runtime import Runtime, RuntimeConfig

        compiled = compile_app("crc8")
        arr = ValueArray(KIND_INT, xs)
        threaded = Runtime(
            compiled, RuntimeConfig(scheduler="threaded")
        ).call("Crc8.checksums", [arr])
        sequential = Runtime(
            compiled, RuntimeConfig(scheduler="sequential")
        ).call("Crc8.checksums", [arr])
        assert threaded == sequential


class TestValueSemantics:
    @given(st.lists(st.integers(-100, 100)))
    def test_freeze_thaw_roundtrip(self, xs):
        from repro.values import MutableArray

        mutable = MutableArray(KIND_INT, xs)
        assert mutable.freeze().thaw().freeze() == mutable.freeze()

    @given(st.lists(st.integers(-100, 100), min_size=1))
    def test_value_array_hash_consistency(self, xs):
        a = ValueArray(KIND_INT, xs)
        b = ValueArray(KIND_INT, list(xs))
        assert a == b and hash(a) == hash(b)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_bit_pack_density_invariant(self, bits_in):
        from repro.values import Bit, serialize
        from repro.values.base import KIND_BIT

        arr = ValueArray(KIND_BIT, [Bit(b) for b in bits_in])
        wire = serialize(arr)
        # tag + elem + u32 + ceil(n/8) payload bytes.
        assert len(wire) == 1 + 1 + 4 + (len(bits_in) + 7) // 8
