"""Tests for the repro.obs tracing subsystem and the options API.

Covers the null-tracer fast path, span nesting and attribute integrity
across a threaded-scheduler run, Chrome trace-event export round-trips,
the ``CompileOptions`` object, ``RuntimeConfig`` validation
and ``with_overrides``, and the substitution-policy directives
defensive copy.
"""

import json

import pytest

from tests.lime_sources import FIGURE1
from repro.apps import SUITE
from repro.compiler import CompileOptions, CompilerSession, compile_report
from repro.errors import ConfigurationError, TraceExportError
from repro.obs import (
    NULL_TRACER,
    Counters,
    Tracer,
    render_span_tree,
    to_chrome_trace,
    to_json_lines,
    validate_trace_events,
    validate_trace_file,
    write_chrome_trace,
)
from repro.obs.export import span_to_event
from repro.obs.tracer import _NULL_SPAN
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy


def traced_run(app="bitflip", scheduler="threaded"):
    """Compile and run one suite app with a shared tracer."""
    tracer = Tracer()
    compiled = CompilerSession(
        CompileOptions(tracer=tracer)
    ).compile(SUITE[app].source)
    entry, args = SUITE[app].default_args()
    outcome = Runtime(
        compiled, RuntimeConfig(scheduler=scheduler, tracer=tracer)
    ).run(entry, args)
    return tracer, outcome


class TestNullTracer:
    def test_span_is_shared_singleton(self):
        a = NULL_TRACER.span("run.offload", device="gpu")
        b = NULL_TRACER.span("compile.frontend")
        assert a is b is _NULL_SPAN

    def test_records_nothing(self):
        with NULL_TRACER.span("x", items=3) as span:
            span.set(more=True)
        NULL_TRACER.counters.add("offload.map.taken")
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.counters.snapshot() == {}
        assert NULL_TRACER.current() is None
        assert not NULL_TRACER.enabled

    def test_default_compile_and_run_stay_silent(self):
        compiled = CompilerSession().compile(FIGURE1)
        assert compiled.tracer is NULL_TRACER
        entry, args = SUITE["bitflip"].default_args()
        outcome = Runtime(compiled).run(entry, args)
        assert outcome.trace is None
        assert len(NULL_TRACER) == 0


class TestCompileSpans:
    def test_phase_spans_nest_under_compile(self):
        tracer = Tracer()
        CompilerSession(CompileOptions(tracer=tracer)).compile(FIGURE1)
        (root,) = tracer.find("compile")
        names = {s.name for s in tracer.children_of(root)}
        assert {
            "compile.frontend",
            "compile.ir",
            "compile.backend.bytecode",
            "compile.backend.opencl",
            "compile.backend.verilog",
        } <= names

    def test_backend_spans_carry_kernel_children(self):
        tracer = Tracer()
        CompilerSession(
            CompileOptions(tracer=tracer)
        ).compile(SUITE["saxpy"].source)
        kernels = tracer.find("compile.backend.opencl.kernel")
        assert kernels
        assert all("kind" in s.attributes for s in kernels)
        (verilog,) = tracer.find("compile.backend.verilog")
        modules = tracer.children_of(verilog)
        assert all("fmax_hz" in m.attributes for m in modules)

    def test_compile_report_appends_span_tree(self):
        tracer = Tracer()
        result = CompilerSession(
            CompileOptions(tracer=tracer)
        ).compile(FIGURE1)
        report = compile_report(result, trace=True)
        assert "compile.frontend" in report
        # Without trace= the report is unchanged.
        assert "compile.frontend" not in compile_report(result)


class TestRuntimeSpans:
    def test_threaded_run_nests_stage_spans(self):
        tracer, outcome = traced_run("bitflip", scheduler="threaded")
        assert outcome.trace is tracer
        (run_root,) = tracer.find("run")
        (graph,) = tracer.find("run.graph")
        stages = tracer.find("run.graph.stage")
        # Worker threads nest under the graph span via explicit parent.
        assert stages and all(s.parent_id == graph.span_id for s in stages)
        assert {s.attributes["task_id"] for s in stages}
        assert all("device" in s.attributes for s in stages)
        assert all(s.finished and s.duration_us >= 0 for s in tracer.spans)

    def test_sequential_run_equivalent_spans(self):
        tracer, _ = traced_run("bitflip", scheduler="sequential")
        stages = tracer.find("run.graph.stage")
        assert stages
        assert all(
            s.attributes["scheduler"] == "sequential" for s in stages
        )

    def test_offload_and_marshal_spans(self):
        tracer, _ = traced_run("saxpy")
        offloads = tracer.find("run.offload")
        assert offloads
        marshals = tracer.find_prefix("run.marshal.")
        assert marshals
        offload_ids = {s.span_id for s in offloads}
        assert any(m.parent_id in offload_ids for m in marshals)
        assert all(m.attributes["bytes"] > 0 for m in marshals)
        assert tracer.counters.get("offload.map.taken") >= 1

    def test_substitution_decision_spans(self):
        tracer, _ = traced_run("bitflip")
        subs = tracer.find("run.substitution")
        assert subs
        assert any(s.attributes.get("kind") == "graph" for s in subs)
        counters = tracer.counters.snapshot()
        assert counters.get("substitution.candidates", 0) >= 1


class TestCounters:
    def test_add_and_snapshot_sorted(self):
        counters = Counters()
        counters.add("b")
        counters.add("a", 2)
        counters.add("b", 3)
        assert counters.get("b") == 4
        assert list(counters.snapshot()) == ["a", "b"]

    def test_thread_safety(self):
        import threading

        counters = Counters()

        def bump():
            for _ in range(1000):
                counters.add("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counters.get("n") == 4000


class TestExport:
    def test_chrome_trace_round_trip(self, tmp_path):
        tracer, _ = traced_run("bitflip")
        path = tmp_path / "bitflip.trace.json"
        payload = write_chrome_trace(tracer, str(path))
        assert validate_trace_events(payload) == []
        loaded = validate_trace_file(str(path))
        names = {e["name"] for e in loaded["traceEvents"]}
        assert {"compile", "run", "run.graph.stage"} <= names
        x_events = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        ids = {e["args"]["span_id"] for e in x_events}
        for event in x_events:
            parent = event["args"].get("parent_id")
            assert parent is None or parent in ids
        assert loaded["otherData"]["counters"]

    def test_thread_metadata_events(self):
        tracer, _ = traced_run("bitflip")
        payload = to_chrome_trace(tracer, process_name="test-proc")
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["name"] == "process_name"
            and e["args"]["name"] == "test-proc"
            for e in meta
        )
        tids = {e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        named = {e["tid"] for e in meta if e["name"] == "thread_name"}
        assert tids <= named

    def test_json_lines_parse_and_mirror_spans(self):
        tracer, _ = traced_run("bitflip")
        lines = [
            json.loads(line)
            for line in to_json_lines(tracer).splitlines()
        ]
        spans = [o for o in lines if o["type"] == "span"]
        counters = [o for o in lines if o["type"] == "counter"]
        assert len(spans) == len(tracer.spans)
        assert counters
        assert all("name" in o and "duration_us" in o for o in spans)

    def test_validate_rejects_malformed(self, tmp_path):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"traceEvents": "nope"}) != []
        problems = validate_trace_events(
            {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "tid": 1}]}
        )
        assert any("phase" in p for p in problems)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TraceExportError):
            validate_trace_file(str(bad))

    def test_render_span_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("compile"):
            with tracer.span("compile.frontend", classes=1):
                pass
        tree = render_span_tree(tracer)
        lines = tree.splitlines()
        assert lines[0].startswith("compile ")
        assert lines[1].startswith("  compile.frontend")
        assert "classes=1" in lines[1]


class TestSpanToEventEdgeCases:
    """Edge cases of the Chrome exporter's per-span conversion."""

    @staticmethod
    def _frozen_tracer():
        """A tracer whose clock only moves when told to."""
        now = [0.0]
        tracer = Tracer(clock=lambda: now[0])
        return tracer, now

    def test_zero_duration_span_exports_valid_event(self):
        tracer, _ = self._frozen_tracer()
        with tracer.span("run.marshal.to_device"):
            pass  # clock never advances: a genuine zero-length span
        (span,) = tracer.spans
        assert span.duration_us == 0.0
        event = span_to_event(span)
        assert event["dur"] == 0.0
        assert event["ph"] == "X"
        assert validate_trace_events({"traceEvents": [event]}) == []

    def test_non_string_attribute_values_are_jsonable(self):
        tracer, now = self._frozen_tracer()

        class Opaque:
            def __repr__(self):
                return "<opaque thing>"

        with tracer.span(
            "run.offload",
            count=3,
            ratio=0.5,
            flag=True,
            nothing=None,
            shape=(4, 8),
            nested={"k": (1, 2), 5: "five"},
            opaque=Opaque(),
        ):
            now[0] += 10.0
        (span,) = tracer.spans
        event = span_to_event(span)
        args = event["args"]
        assert args["count"] == 3 and args["ratio"] == 0.5
        assert args["flag"] is True and args["nothing"] is None
        assert args["shape"] == [4, 8]  # tuples become JSON arrays
        assert args["nested"] == {"k": [1, 2], "5": "five"}  # keys coerced
        assert args["opaque"] == "<opaque thing>"
        json.dumps(event)  # the whole event must serialize

    def test_nested_parent_ordering_in_chrome_output(self):
        tracer, now = self._frozen_tracer()
        with tracer.span("run"):
            now[0] += 1.0
            with tracer.span("run.graph"):
                now[0] += 2.0
                with tracer.span("run.graph.stage", task_id="s0"):
                    now[0] += 3.0
            now[0] += 1.0
        payload = to_chrome_trace(tracer)
        x_events = {
            e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"
        }
        run = x_events["run"]
        graph = x_events["run.graph"]
        stage = x_events["run.graph.stage"]
        # Spans complete innermost-first, so children precede parents
        # in the event list; nesting is reconstructed from ts/dur.
        order = [e["name"] for e in payload["traceEvents"] if e["ph"] == "X"]
        assert order.index("run.graph.stage") < order.index("run.graph")
        assert order.index("run.graph") < order.index("run")
        # Parent ids chain the tree explicitly too.
        assert stage["args"]["parent_id"] == graph["args"]["span_id"]
        assert graph["args"]["parent_id"] == run["args"]["span_id"]
        assert "parent_id" not in run["args"]
        # And each child's window sits inside its parent's.
        for child, parent in ((stage, graph), (graph, run)):
            assert child["ts"] >= parent["ts"]
            assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]

    def test_metrics_sections_in_exports(self):
        tracer, _ = traced_run("bitflip")
        payload = to_chrome_trace(tracer)
        other = payload["otherData"]
        assert other["histograms"]["marshal.crossing_us"]["count"] >= 2
        lines = [
            json.loads(line)
            for line in to_json_lines(tracer).splitlines()
        ]
        kinds = {o["type"] for o in lines}
        assert "histogram" in kinds


class TestOptionsAPI:
    def test_options_object(self):
        result = CompilerSession(
            CompileOptions(enable_gpu=False)
        ).compile(FIGURE1)
        assert result.gpu_backend is None
        assert result.compile_options.enable_gpu is False

    def test_options_hashable_and_replace(self):
        base = CompileOptions()
        piped = base.replace(fpga_pipelined=True)
        assert base != piped
        assert len({base, piped, CompileOptions()}) == 2

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="enable_quantum"):
            CompileOptions(enable_quantum=True)
        with pytest.raises(TypeError, match="enable_quantum"):
            CompileOptions().replace(enable_quantum=True)

    def test_no_deprecation_from_options_path(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            CompilerSession(CompileOptions()).compile(FIGURE1)


class TestRuntimeConfigValidation:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError, match="scheduler"):
            RuntimeConfig(scheduler="fibers")

    def test_nonpositive_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="device_batch_size"):
            RuntimeConfig(device_batch_size=0)
        with pytest.raises(ConfigurationError, match="map_offload_min_items"):
            RuntimeConfig(map_offload_min_items=-1)
        with pytest.raises(ConfigurationError, match="fpga_max_clock_hz"):
            RuntimeConfig(fpga_max_clock_hz=0)

    def test_with_overrides_builder(self):
        base = RuntimeConfig()
        derived = base.with_overrides(scheduler="sequential")
        assert derived.scheduler == "sequential"
        assert base.scheduler == "threaded"  # original untouched
        with pytest.raises(ConfigurationError, match="no_such_knob"):
            base.with_overrides(no_such_knob=1)
        with pytest.raises(ConfigurationError):
            base.with_overrides(device_batch_size=-5)


class TestPolicyIsolation:
    def test_directives_defensively_copied_from_caller_dict(self):
        directives = {"t1": "bytecode"}
        policy = SubstitutionPolicy(directives=directives)
        directives["t2"] = "gpu"
        assert "t2" not in policy.directives

    def test_shared_policy_isolated_per_runtime(self):
        compiled = CompilerSession().compile(FIGURE1)
        policy = SubstitutionPolicy()
        rt_a = Runtime(compiled, RuntimeConfig(policy=policy))
        rt_b = Runtime(compiled, RuntimeConfig(policy=policy))
        rt_a.policy.directives["Bitflip.flip"] = "bytecode"
        assert "Bitflip.flip" not in rt_b.policy.directives
        assert "Bitflip.flip" not in policy.directives
