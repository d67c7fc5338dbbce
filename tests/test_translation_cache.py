"""Where the interpreter's and the FPGA simulator's generated Python
lives: built lazily, once per program object, shared by every runtime
over it, safe to publish from concurrent threads, and never part of a
pickled artifact payload, its digest or dataclass equality."""

import pickle
import sys
import threading

import pytest

from repro.apps import SUITE, workloads
from repro.backends.bytecode import Interpreter
from repro.backends.bytecode import translate
from repro.backends.bytecode.translate import RUNNER
from repro.backends.bytecode.ops import wrap_int
from repro.backends.verilog.codegen import lower_datapath
from repro.compiler import compile_program
from repro.errors import BackendError
from repro.ir import nodes as ir
from repro.lime import types as ty
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

BYTECODE = SubstitutionPolicy(use_accelerators=False)

SHARED_HELPER = """
public class Twice {
    local static int mix(int x) {
        int h = x * 31 + 7;
        for (int i = 0; i < 4; i++) {
            h = h ^ (h >> 3);
        }
        return h;
    }
    local static int first(int x) { return Twice.mix(x) + 1; }
    local static int second(int x) { return Twice.mix(x) * 2; }
    static int[[]] pipeline(int[[]] input) {
        int[] result = new int[input.length];
        var g = input.source(1)
            => ([ task first => task second ])
            => result.<int>sink();
        g.finish();
        return new int[[]](result);
    }
}
"""


def fresh(name):
    return compile_program(SUITE[name].source, filename=f"<{name}.lime>")


@pytest.fixture
def translations(monkeypatch):
    """Counts translations per qualified function name."""
    counts: dict = {}
    original = translate._translate

    def counting(function):
        counts[function.qualified_name] = (
            counts.get(function.qualified_name, 0) + 1
        )
        return original(function)

    monkeypatch.setattr(translate, "_translate", counting)
    return counts


class TestPayloads:
    @pytest.mark.parametrize("name", ["mandelbrot", "crc8"])
    def test_payload_pickles_identically_after_a_run(self, name):
        compiled = fresh(name)
        payloads = [a.payload for a in compiled.store.all()]
        before = [pickle.dumps(p, protocol=4) for p in payloads]
        entry, args = workloads.small_args(name)
        Runtime(compiled, RuntimeConfig(policy=BYTECODE)).run(entry, args)
        Runtime(compiled).run(entry, args)
        functions = compiled.bytecode_program.functions.values()
        assert any(RUNNER in f.__dict__ for f in functions)
        after = [pickle.dumps(p, protocol=4) for p in payloads]
        assert after == before

    def test_crc8_bundle_caches_its_lowered_datapath(self):
        compiled = fresh("crc8")
        (fpga,) = compiled.store.for_device("fpga")
        bundle = fpga.payload
        before = pickle.dumps(bundle, protocol=4)
        assert bundle.compute(0x5A) == bundle.compute(0x5A)
        assert "_datapath_fn" in bundle.__dict__
        assert pickle.dumps(bundle, protocol=4) == before
        assert pickle.loads(before) == bundle

    def test_translated_function_equals_untranslated_copy(self):
        compiled = fresh("saxpy")
        copy = pickle.loads(pickle.dumps(compiled.bytecode_program))
        entry, args = workloads.small_args("saxpy")
        Runtime(compiled, RuntimeConfig(policy=BYTECODE)).run(entry, args)
        assert RUNNER not in copy.functions[entry].__dict__
        assert compiled.bytecode_program == copy


class TestSharing:
    def test_each_function_translated_once_across_runtimes(self, translations):
        compiled = fresh("kmeans")
        entry, args = workloads.small_args("kmeans")
        values = [
            Runtime(compiled, RuntimeConfig(policy=policy)).run(
                entry, args
            ).value
            for policy in (BYTECODE, SubstitutionPolicy(), BYTECODE)
        ]
        assert values[0] == values[1] == values[2]
        assert translations
        assert set(translations.values()) == {1}

    def test_translation_is_lazy(self, translations):
        compiled = fresh("saxpy")
        assert translations == {}
        functions = compiled.bytecode_program.functions.values()
        assert not any(RUNNER in f.__dict__ for f in functions)

    def test_generated_code_is_named_after_the_method(self):
        compiled = fresh("saxpy")
        entry, args = workloads.small_args("saxpy")
        Runtime(compiled, RuntimeConfig(policy=BYTECODE)).run(entry, args)
        function = compiled.bytecode_program.functions[entry]
        code = function.__dict__[RUNNER].__code__
        assert code.co_name == f"<bytecode {entry}>"
        assert code.co_filename == f"<bytecode {entry}>"


class TestConcurrentFirstCalls:
    def test_threads_first_call_the_same_function(self, translations):
        # More threads than cores and a short switch interval, so first
        # calls overlap; a lost publish would translate a function twice.
        workers = 8
        program = compile_program(SHARED_HELPER).bytecode_program
        barrier = threading.Barrier(workers, timeout=30)
        results = [None] * workers

        def worker(slot):
            interp = Interpreter(program)
            barrier.wait()
            value = interp.call("Twice.first", [slot])
            results[slot] = (value, interp.cycles)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert translations == {"Twice.first": 1, "Twice.mix": 1}
        reference = Interpreter(compile_program(SHARED_HELPER).bytecode_program)
        for slot, result in enumerate(results):
            before = reference.cycles
            value = reference.call("Twice.first", [slot])
            assert result == (value, reference.cycles - before)

    def test_threaded_scheduler_matches_sequential(self):
        data = workloads.int_array(64, -1000, 1000, seed=3)

        def run(scheduler):
            compiled = compile_program(SHARED_HELPER)
            runtime = Runtime(compiled, RuntimeConfig(
                policy=BYTECODE, scheduler=scheduler, fusion="off",
            ))
            out = runtime.run("Twice.pipeline", [data])
            return (
                list(out.value),
                out.ledger.host_cycles,
                out.ledger.total_s,
                sorted(runtime.profile(top=100)),
            )

        assert run("threaded") == run("sequential")


class TestDatapathLowering:
    """The FPGA datapath is one generated function per DAG."""

    def test_shared_nodes_evaluate_once(self):
        # x doubled 40 times: a tree walk would visit 2**40 leaves.
        node = ir.ELocal(ty.INT, "x")
        for _ in range(40):
            node = ir.EBinary(ty.INT, "+", node, node)
        fn = lower_datapath(node)
        assert fn({"x": 3}) == wrap_int(3 << 40)
        assert fn.__code__.co_name == "<datapath>"

    def test_ternary_arms_are_total(self):
        # Both arms are computed before the select, so a guarded
        # division by zero must not raise: the divider yields 0.
        x = ir.ELocal(ty.INT, "x")
        guarded = ir.ETernary(
            ty.INT,
            ir.EBinary(ty.BOOLEAN, "!=", x, ir.EConst(ty.INT, 0)),
            ir.EBinary(ty.INT, "/", ir.EConst(ty.INT, 100), x),
            ir.EBinary(ty.INT, "%", ir.EConst(ty.INT, 7), x),
        )
        assert lower_datapath(guarded)({"x": 0}) == 0
        assert lower_datapath(guarded)({"x": -7}) == -14

    def test_unknown_operator_rejected_while_lowering(self):
        x = ir.ELocal(ty.INT, "x")
        bad = ir.ETernary(
            ty.INT, ir.EConst(ty.BOOLEAN, False),
            ir.EBinary(ty.INT, "**", x, x), x,
        )
        with pytest.raises(BackendError):
            lower_datapath(bad)
