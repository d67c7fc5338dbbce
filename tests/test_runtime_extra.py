"""Extra runtime behaviours: chunked sources, multi-input filters,
start()/finish() semantics, multiple graphs, dynamic graphs."""

import pytest

from repro.compiler import CompilerSession
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.values import KIND_BIT, KIND_INT, Bit, ValueArray


def runtime_for(source, **config):
    return Runtime(CompilerSession().compile(source), RuntimeConfig(**config))


class TestChunkedSource:
    SOURCE = """
    class Chunks {
        local static int ones(bit[[]] chunk) {
            int count = 0;
            for (int i = 0; i < chunk.length; i++) {
                if (chunk[i] == bit.one) { count += 1; }
            }
            return count;
        }
        static int[[]] countOnes(bit[[]] stream) {
            int[] out = new int[stream.length / 4];
            var t = stream.source(4) => ([ task ones ]) => out.<int>sink();
            t.finish();
            return new int[[]](out);
        }
    }
    """

    def bits(self, values):
        return ValueArray(KIND_BIT, [Bit(v) for v in values])

    def test_source_rate_4_chunks(self):
        runtime = runtime_for(self.SOURCE)
        stream = self.bits([1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1])
        result = runtime.call("Chunks.countOnes", [stream])
        assert list(result) == [2, 3, 1]

    def test_gpu_excludes_chunked_filter_without_crashing(self):
        compiled = CompilerSession().compile(self.SOURCE)
        # The task consumes bit[[]] chunks: no GPU filter artifact, but
        # an exclusion explaining why.
        gpu_filters = [
            a
            for a in compiled.store.for_device("gpu")
            if getattr(a.payload, "kind", "") == "filter"
        ]
        assert gpu_filters == []
        reasons = [
            e.reason
            for e in compiled.store.exclusions
            if e.device == "gpu"
        ]
        assert any("non-scalar" in r for r in reasons)


class TestMultiInputFilter:
    SOURCE = """
    class Pairs {
        local static int add(int a, int b) {
            return a + b;
        }
        static int[[]] pairSums(int[[]] xs) {
            int[] out = new int[xs.length / 2];
            var t = xs.source(1) => ([ task add ]) => out.<int>sink();
            t.finish();
            return new int[[]](out);
        }
    }
    """

    def test_consumes_two_items_per_firing(self):
        # Section 2.2: the actor fires "when the port contains
        # sufficient data to satisfy the argument requirements".
        runtime = runtime_for(self.SOURCE)
        xs = ValueArray(KIND_INT, [1, 2, 3, 4, 5, 6])
        assert list(runtime.call("Pairs.pairSums", [xs])) == [3, 7, 11]

    def test_odd_stream_is_runtime_error(self):
        from repro.errors import RuntimeGraphError

        runtime = runtime_for(self.SOURCE, scheduler="sequential")
        xs = ValueArray(KIND_INT, [1, 2, 3])
        with pytest.raises(RuntimeGraphError):
            runtime.call("Pairs.pairSums", [xs])

    def test_backends_exclude_multi_input(self):
        compiled = CompilerSession().compile(self.SOURCE)
        reasons = {
            e.device for e in compiled.store.exclusions
        }
        assert reasons == {"gpu", "fpga"}


class TestStartFinish:
    SOURCE = """
    class SF {
        local static int dbl(int x) { return x * 2; }
        static int[[]] viaStart(int[[]] xs) {
            int[] out = new int[xs.length];
            var t = xs.source(1) => task dbl => out.<int>sink();
            t.start();
            t.finish();
            return new int[[]](out);
        }
        static int[[]] startOnly(int[[]] xs) {
            int[] out = new int[xs.length];
            var t = xs.source(1) => task dbl => out.<int>sink();
            t.start();
            return new int[[]](out);
        }
    }
    """

    def test_start_then_finish(self):
        runtime = runtime_for(self.SOURCE)
        xs = ValueArray(KIND_INT, [1, 2, 3])
        assert list(runtime.call("SF.viaStart", [xs])) == [2, 4, 6]

    def test_start_executes_eagerly(self):
        # Documented deviation: start() completes eagerly (finite
        # sources), so results are already visible.
        runtime = runtime_for(self.SOURCE)
        xs = ValueArray(KIND_INT, [5])
        assert list(runtime.call("SF.startOnly", [xs])) == [10]


class TestMultipleGraphs:
    SOURCE = """
    class Multi {
        local static int inc(int x) { return x + 1; }
        local static int dec(int x) { return x - 1; }
        static int run(int[[]] xs) {
            int[] ups = new int[xs.length];
            int[] downs = new int[xs.length];
            var t1 = xs.source(1) => ([ task inc ]) => ups.<int>sink();
            t1.finish();
            var t2 = xs.source(1) => ([ task dec ]) => downs.<int>sink();
            t2.finish();
            int s = 0;
            for (int i = 0; i < xs.length; i++) {
                s += ups[i] * downs[i];
            }
            return s;
        }
    }
    """

    def test_two_graphs_two_runs(self):
        runtime = runtime_for(self.SOURCE)
        xs = ValueArray(KIND_INT, [2, 3, 4])
        outcome = runtime.run("Multi.run", [xs])
        assert outcome.value == sum((x + 1) * (x - 1) for x in [2, 3, 4])
        assert len(outcome.ledger.graph_runs) == 2

    def test_distinct_graph_ids(self):
        compiled = CompilerSession().compile(self.SOURCE)
        ids = [g.graph_id for g in compiled.task_graphs]
        assert len(set(ids)) == 2


class TestDynamicGraph:
    SOURCE = """
    class Dyn {
        local static int neg(int x) { return -x; }
        static int[[]] maybe(int[[]] xs, boolean go) {
            int[] out = new int[xs.length];
            if (go) {
                var t = xs.source(1) => task neg => out.<int>sink();
                t.finish();
            } else {
                for (int i = 0; i < xs.length; i++) { out[i] = xs[i]; }
            }
            return new int[[]](out);
        }
    }
    """

    def test_dynamic_graph_runs_on_bytecode(self):
        # No static shape (built under control flow, no reloc brackets)
        # -> the graph still executes, purely via the runtime.
        runtime = runtime_for(self.SOURCE)
        xs = ValueArray(KIND_INT, [1, -2, 3])
        assert list(runtime.call("Dyn.maybe", [xs, True])) == [-1, 2, -3]
        assert list(runtime.call("Dyn.maybe", [xs, False])) == [1, -2, 3]

    def test_dynamic_graph_has_no_static_ids(self):
        compiled = CompilerSession().compile(self.SOURCE)
        assert compiled.task_graphs == []


class TestDeterminism:
    def test_simulated_times_exactly_reproducible(self):
        """EXPERIMENTS.md claims simulated times are exactly
        reproducible; verify for a full accelerated run."""
        from repro.apps import SUITE, compile_app

        entry, args = SUITE["crc8"].default_args()

        def one_run():
            runtime = Runtime(
                compile_app("crc8"), RuntimeConfig(scheduler="sequential")
            )
            outcome = runtime.run(entry, args)
            return outcome.value, outcome.seconds

        value_a, seconds_a = one_run()
        value_b, seconds_b = one_run()
        assert value_a == value_b
        assert seconds_a == seconds_b  # bit-exact, not approximately

    def test_threaded_timing_matches_sequential(self):
        """The per-stage cycle accounting is schedule-independent, so
        even the threaded scheduler's *simulated* time is deterministic
        and equals the sequential scheduler's."""
        from repro.apps import SUITE, compile_app

        entry, args = SUITE["gray_pipeline"].default_args()
        compiled = compile_app("gray_pipeline")
        threaded = Runtime(
            compiled, RuntimeConfig(scheduler="threaded")
        ).run(entry, args)
        sequential = Runtime(
            compiled, RuntimeConfig(scheduler="sequential")
        ).run(entry, args)
        assert threaded.value == sequential.value
        assert threaded.seconds == pytest.approx(
            sequential.seconds, rel=1e-9
        )
