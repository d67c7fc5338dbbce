"""Direct unit tests for the SIMT GPU simulator."""

import pytest

from tests.lime_sources import SAXPY
from repro.apps import compile_app
from repro.backends.bytecode import Interpreter
from repro.backends.opencl import compile_gpu
from repro.compiler import CompilerSession
from repro.devices.gpu import GPUSimulator, GTX580
from repro.errors import DeviceError
from repro.ir import build_ir
from repro.lime import analyze
from repro.values import KIND_FLOAT, KIND_INT, ValueArray


def gpu_for(source):
    compiled = CompilerSession().compile(source)
    backend_artifacts = {
        a.artifact_id: a for a in compiled.store.for_device("gpu")
    }
    return GPUSimulator(compiled.bytecode_program), backend_artifacts


class TestRunMap:
    def test_simple_map(self):
        gpu, artifacts = gpu_for(SAXPY)
        kernel = artifacts["gpu:map:Saxpy.axpy"].payload
        xs = ValueArray(KIND_FLOAT, [1.0, 2.0])
        ys = ValueArray(KIND_FLOAT, [10.0, 20.0])
        execution = gpu.run_map(kernel, [xs, ys])
        assert list(execution.outputs) == pytest.approx([12.5, 25.0])
        assert execution.timing.work_items == 2

    def test_broadcast_map(self):
        source = """
        class B {
            local static int addBase(int x, int base) { return x + base; }
            static int[[]] m(int[[]] xs, int base) {
                return B @ addBase(xs, base);
            }
        }
        """
        gpu, artifacts = gpu_for(source)
        kernel = artifacts["gpu:map:B.addBase"].payload
        assert kernel.properties["broadcast"] == (False, True)
        xs = ValueArray(KIND_INT, [1, 2, 3])
        execution = gpu.run_map(kernel, [xs, 100])
        assert list(execution.outputs) == [101, 102, 103]

    def test_broadcast_array_counts_bytes_once(self):
        source = """
        class L {
            local static int lookup(int i, int[[]] table) { return table[i]; }
            static int[[]] m(int[[]] idx, int[[]] table) {
                return L @ lookup(idx, table);
            }
        }
        """
        gpu, artifacts = gpu_for(source)
        kernel = artifacts["gpu:map:L.lookup"].payload
        idx = ValueArray(KIND_INT, [0, 1, 0, 1])
        table = ValueArray(KIND_INT, list(range(1000)))
        execution = gpu.run_map(kernel, [idx, table])
        assert list(execution.outputs) == [0, 1, 0, 1]
        # Memory traffic: 4 mapped ints + 1000 broadcast ints + 4 out,
        # not 4 x 1000.
        # memory_s * bandwidth ~= bytes
        spec = GTX580
        modeled_bytes = (
            execution.timing.memory_s * spec.mem_bandwidth_bytes_per_s
        )
        assert modeled_bytes < 8192

    def test_length_mismatch_rejected(self):
        gpu, artifacts = gpu_for(SAXPY)
        kernel = artifacts["gpu:map:Saxpy.axpy"].payload
        with pytest.raises(DeviceError):
            gpu.run_map(
                kernel,
                [
                    ValueArray(KIND_FLOAT, [1.0]),
                    ValueArray(KIND_FLOAT, [1.0, 2.0]),
                ],
            )

    def test_kernel_log_accumulates(self):
        gpu, artifacts = gpu_for(SAXPY)
        kernel = artifacts["gpu:map:Saxpy.axpy"].payload
        xs = ValueArray(KIND_FLOAT, [1.0])
        gpu.run_map(kernel, [xs, xs])
        gpu.run_map(kernel, [xs, xs])
        assert len(gpu.kernel_log) == 2
        assert gpu.total_kernel_time > 0


class TestRunReduce:
    def test_reduce_matches_fold(self):
        gpu, artifacts = gpu_for(SAXPY)
        kernel = artifacts["gpu:reduce:Saxpy.add"].payload
        xs = ValueArray(KIND_FLOAT, [1.0, 2.0, 3.0, 4.0])
        execution = gpu.run_reduce(kernel, xs)
        assert execution.outputs == pytest.approx(10.0)
        assert execution.timing.details["tree_depth"] == 2

    def test_empty_reduce_rejected(self):
        gpu, artifacts = gpu_for(SAXPY)
        kernel = artifacts["gpu:reduce:Saxpy.add"].payload
        with pytest.raises(DeviceError):
            gpu.run_reduce(kernel, ValueArray(KIND_FLOAT, []))


class TestIsolation:
    def test_gpu_cycles_do_not_leak_into_host_interpreter(self):
        """The GPU simulator uses a private interpreter; host cycle
        accounting must be unaffected by kernel execution."""
        compiled = compile_app("saxpy")
        host = Interpreter(compiled.bytecode_program)
        gpu = GPUSimulator(compiled.bytecode_program)
        kernel = compiled.store.for_device("gpu")[0].payload
        before = host.cycles
        xs = ValueArray(KIND_FLOAT, [1.0] * 64)
        gpu.run(kernel, [2.0, xs, xs])  # (a, xs, ys): 'a' is broadcast
        assert host.cycles == before

    def test_unknown_kernel_kind(self):
        compiled = compile_app("saxpy")
        gpu = GPUSimulator(compiled.bytecode_program)
        kernel = compiled.store.for_device("gpu")[0].payload
        import dataclasses

        broken = dataclasses.replace(kernel, kind="wat")
        with pytest.raises(DeviceError):
            gpu.run(broken, [])
