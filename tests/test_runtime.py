"""End-to-end runtime tests: compilation -> substitution -> co-execution."""

import pytest

from tests.lime_sources import FIGURE1
from repro.backends.common import BYTECODE, FPGA, GPU
from repro.compiler import CompileOptions, CompilerSession
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_BIT, ValueArray, parse_bit_literal


def bits(text):
    return ValueArray(KIND_BIT, parse_bit_literal(text))


def make_runtime(source=FIGURE1, policy=None, scheduler="threaded", **compile_kwargs):
    compiled = CompilerSession(
        CompileOptions(**compile_kwargs)
    ).compile(source)
    config = RuntimeConfig(scheduler=scheduler)
    if policy is not None:
        config.policy = policy
    return Runtime(compiled, config)


class TestTaskFlipEndToEnd:
    def test_taskflip_on_accelerator(self):
        runtime = make_runtime()
        result = runtime.call("Bitflip.taskFlip", [bits("110010111")])
        assert result == bits("001101000")

    def test_taskflip_bytecode_only(self):
        policy = SubstitutionPolicy(use_accelerators=False)
        runtime = make_runtime(policy=policy)
        result = runtime.call("Bitflip.taskFlip", [bits("110010111")])
        assert result == bits("001101000")

    def test_taskflip_sequential_scheduler(self):
        runtime = make_runtime(scheduler="sequential")
        result = runtime.call("Bitflip.taskFlip", [bits("100")])
        assert result == bits("011")

    def test_accelerated_matches_bytecode(self):
        accelerated = make_runtime()
        plain = make_runtime(policy=SubstitutionPolicy(use_accelerators=False))
        for text in ("1", "0", "10", "110010111", "1" * 64):
            arg = bits(text)
            assert accelerated.call(
                "Bitflip.taskFlip", [arg]
            ) == plain.call("Bitflip.taskFlip", [arg])

    def test_substitution_decision_logged(self):
        runtime = make_runtime()
        runtime.call("Bitflip.taskFlip", [bits("110010111")])
        graph_id, decisions = runtime.substitution_log[0]
        assert len(decisions) == 1
        # Default device order prefers the GPU artifact.
        assert decisions[0].device == GPU

    def test_manual_direction_to_fpga(self):
        # "that choice can be manually directed" (Section 4.2).
        compiled = CompilerSession().compile(FIGURE1)
        flip_task_id = compiled.task_graphs[0].stages[1].task_id
        policy = SubstitutionPolicy(directives={flip_task_id: FPGA})
        runtime = Runtime(compiled, RuntimeConfig(policy=policy))
        result = runtime.call("Bitflip.taskFlip", [bits("100")])
        assert result == bits("011")
        _, decisions = runtime.substitution_log[0]
        assert decisions[0].device == FPGA

    def test_manual_direction_to_bytecode(self):
        compiled = CompilerSession().compile(FIGURE1)
        flip_task_id = compiled.task_graphs[0].stages[1].task_id
        policy = SubstitutionPolicy(directives={flip_task_id: BYTECODE})
        runtime = Runtime(compiled, RuntimeConfig(policy=policy))
        result = runtime.call("Bitflip.taskFlip", [bits("100")])
        assert result == bits("011")
        _, decisions = runtime.substitution_log[0]
        assert decisions == []

    def test_graph_timing_recorded(self):
        runtime = make_runtime()
        outcome = runtime.run("Bitflip.taskFlip", [bits("110010111")])
        assert len(outcome.ledger.graph_runs) == 1
        run = outcome.ledger.graph_runs[0]
        assert run.wall_s > 0
        assert outcome.seconds > 0

    def test_device_offload_recorded(self):
        runtime = make_runtime()
        outcome = runtime.run("Bitflip.taskFlip", [bits("110010111")])
        offloads = [
            o for o in outcome.ledger.offloads if o.kind == "filter-batch"
        ]
        assert len(offloads) == 1
        assert offloads[0].items == 9
        assert offloads[0].transfer_s > 0


class TestMapReduceOffload:
    SOURCE = """
    class M {
        local static float sq(float x) { return x * x; }
        local static float add(float a, float b) { return a + b; }
        static float sumsq(float[[]] xs) {
            return M ! add(M @ sq(xs));
        }
    }
    """

    def array(self, n):
        from repro.values import KIND_FLOAT

        return ValueArray(KIND_FLOAT, [float(i) for i in range(n)])

    def expected(self, n):
        total = 0.0
        for i in range(n):
            import struct

            sq = struct.unpack("<f", struct.pack("<f", float(i) * float(i)))[0]
            total = struct.unpack(
                "<f", struct.pack("<f", total + sq)
            )[0]
        return total

    def test_small_map_stays_on_cpu(self):
        runtime = make_runtime(self.SOURCE)
        outcome = runtime.run("M.sumsq", [self.array(8)])
        assert outcome.value == pytest.approx(self.expected(8))
        assert outcome.ledger.offloads == []

    def test_large_map_offloads_to_gpu(self):
        runtime = make_runtime(self.SOURCE)
        outcome = runtime.run("M.sumsq", [self.array(256)])
        assert outcome.value == pytest.approx(self.expected(256), rel=1e-5)
        kinds = {o.kind for o in outcome.ledger.offloads}
        assert kinds == {"map", "reduce"}

    def test_gpu_and_cpu_results_identical(self):
        gpu_rt = make_runtime(self.SOURCE)
        cpu_rt = make_runtime(
            self.SOURCE, policy=SubstitutionPolicy(use_accelerators=False)
        )
        arg = self.array(512)
        assert gpu_rt.call("M.sumsq", [arg]) == cpu_rt.call(
            "M.sumsq", [arg]
        )

    def test_offload_timing_parts(self):
        runtime = make_runtime(self.SOURCE)
        outcome = runtime.run("M.sumsq", [self.array(1024)])
        for offload in outcome.ledger.offloads:
            assert offload.kernel_s > 0
            assert offload.transfer_s > 0
            assert offload.total_s == pytest.approx(
                offload.kernel_s + offload.transfer_s
            )


class TestPolicies:
    def test_prefer_larger_substitution(self):
        source = """
        class P {
            local static int inc(int x) { return x + 1; }
            local static int dbl(int x) { return x * 2; }
            static int run(int[[]] xs) {
                int[] out = new int[xs.length];
                var t = xs.source(1) => ([ task inc => task dbl ]) => out.sink();
                t.finish();
                int s = 0;
                for (int i = 0; i < out.length; i++) { s += out[i]; }
                return s;
            }
        }
        """
        from repro.values import KIND_INT

        runtime = make_runtime(source)
        xs = ValueArray(KIND_INT, list(range(10)))
        total = runtime.call("P.run", [xs])
        assert total == sum((x + 1) * 2 for x in range(10))
        _, decisions = runtime.substitution_log[0]
        assert len(decisions) == 1
        assert len(decisions[0].covered_task_ids) == 2  # fused span won

    def test_prefer_smaller_ablation(self):
        source = """
        class P {
            local static int inc(int x) { return x + 1; }
            local static int dbl(int x) { return x * 2; }
            static int run(int[[]] xs) {
                int[] out = new int[xs.length];
                var t = xs.source(1) => ([ task inc => task dbl ]) => out.sink();
                t.finish();
                return out[0];
            }
        }
        """
        from repro.values import KIND_INT

        policy = SubstitutionPolicy(prefer_larger=False)
        runtime = make_runtime(source, policy=policy)
        xs = ValueArray(KIND_INT, [5])
        assert runtime.call("P.run", [xs]) == 12
        _, decisions = runtime.substitution_log[0]
        assert all(len(d.covered_task_ids) == 1 for d in decisions)
        assert len(decisions) == 2

    def test_communication_aware_policy_rejects_tiny_stream(self):
        policy = SubstitutionPolicy(communication_aware=True)
        runtime = make_runtime(policy=policy)
        result = runtime.call("Bitflip.taskFlip", [bits("10")])
        assert result == bits("01")
        _, decisions = runtime.substitution_log[0]
        # Two bits over PCIe: transfer swamps compute; stays on CPU.
        assert decisions == []


class TestRunOutcome:
    def test_stdout_captured(self):
        source = 'class T { static void m() { println("running"); } }'
        runtime = make_runtime(source)
        outcome = runtime.run("T.m")
        assert outcome.output == "running\n"

    def test_host_time_positive(self):
        source = (
            "class T { static int m() { int s = 0; "
            "for (int i = 0; i < 100; i++) { s += i; } return s; } }"
        )
        runtime = make_runtime(source)
        outcome = runtime.run("T.m")
        assert outcome.ledger.host_s > 0
        assert outcome.ledger.graph_s == 0
