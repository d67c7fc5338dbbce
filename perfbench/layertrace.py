"""Span recorder for the traced run, wrapped around each layer from outside.

Nothing under ``src/`` is changed: :class:`LayerTracer` replaces each
layer's public entry points with timing wrappers while it is installed and
puts the originals back when it is removed. A name is patched where its
caller looks it up (``repro.compiler`` imports ``analyze``, ``build_ir``,
``make_cpu_artifact``, ``compile_gpu`` and ``compile_fpga`` by name, the
engine imports ``plan_substitutions`` and the service ``load_journal``).

Each span records its layer, start, end, parent and the row or job it
belongs to; spans stay in memory until :meth:`LayerTracer.write`. Spans
nest per thread. Worker threads of the threaded scheduler have no span of
their own to nest under, so their outermost spans are adopted by the
scheduler span that started them. A layer's self time is its span time
minus the union of its children's intervals.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


class LayerTracer:
    """Installs timing wrappers on every layer and aggregates the spans."""

    def __init__(self):
        self.spans: list = []      # (sid, layer, start, end, parent, tag)
        self.counts: dict = defaultdict(int)
        self._journal_sizes: dict = {}
        self._run_started: dict = {}   # job id -> Runtime.run start
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter = None       # (sid, tag) of a threaded scheduler span
        self._submitted: dict = {}     # job id -> submit return time
        self._lock = threading.Lock()
        self._undo: list = []

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def tag(self, value: str) -> None:
        """Attribute the calling thread's next spans to ``value``."""
        self._local.tag = value

    def _call(self, layer, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent, tag = stack[-1]
        elif self._adopter is not None:
            parent, tag = self._adopter
        else:
            parent = 0
            tag = (getattr(self._local, "tag", None)
                   or threading.current_thread().name)
        sid = next(self._ids)
        stack.append((sid, tag))
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, layer, start, end, parent, tag))

    def _wrap(self, layer, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer._call(layer, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name, layer, after=None, wrapper=None):
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, wrapper or self._wrap(layer, original, after))

    def _count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import repro.compiler as compiler
        import repro.runtime.engine as engine
        import repro.service.service as service_mod
        from repro.backends.artifacts import ArtifactCache
        from repro.backends.bytecode.interpreter import Interpreter
        from repro.devices.fpga.simulator import FPGASimulator
        from repro.devices.gpu.simulator import GPUSimulator
        from repro.errors import AdmissionRejected
        from repro.runtime.checkpoint import CheckpointRecorder
        from repro.runtime.marshaling import MarshalingBoundary
        from repro.runtime.scheduler import (
            SequentialScheduler,
            ThreadedScheduler,
        )
        from repro.service.journal import JobJournal

        count = self._count

        def after_analyze(args, result):
            count("lime.calls")
            count("lime.chars", len(args[0]))

        def after_ir(args, module):
            count("ir.functions", len(module.functions))

        def after_backend(key):
            def after(args, backend):
                count(key, len(backend.artifacts))
            return after

        self._patch(compiler, "analyze", "lime", after_analyze)
        self._patch(compiler, "build_ir", "ir", after_ir)
        self._patch(compiler, "make_cpu_artifact", "backends.bytecode")
        self._patch(compiler, "compile_gpu", "backends.opencl",
                    after_backend("backends.opencl.artifacts"))
        self._patch(compiler, "compile_fpga", "backends.verilog",
                    after_backend("backends.verilog.artifacts"))
        self._patch(compiler.CompilerSession, "compile", "compiler")

        def after_load(args, entry):
            count("artifacts.hits" if entry is not None
                  else "artifacts.misses")

        def after_store(args, entry):
            count("artifacts.bytes_stored", entry.payload_bytes)

        self._patch(ArtifactCache, "load", "artifacts.load", after_load)
        self._patch(ArtifactCache, "store", "artifacts.store", after_store)

        tracer = self
        call_original = Interpreter.__dict__["call"]
        depth: dict = defaultdict(int)

        def interp_call(interp, *args, **kwargs):
            # Cycles are taken from the outermost call on each
            # interpreter: the threaded scheduler's workers call into
            # the runtime's interpreter while its entry call is active.
            key = id(interp)
            with tracer._lock:
                outer = depth[key] == 0
                depth[key] += 1
            before = interp.cycles
            try:
                return tracer._call("interp", call_original,
                                    (interp,) + args, kwargs)
            finally:
                with tracer._lock:
                    depth[key] -= 1
                    tracer.counts["interp.calls"] += 1
                    if outer:
                        tracer.counts["interp.cycles"] += (
                            interp.cycles - before
                        )

        self._patch(Interpreter, "call", None, wrapper=interp_call)

        def after_gpu(args, execution):
            count("gpu.kernels")
            count("gpu.items", len(execution.per_item_cycles)
                  or len(args[2]))

        for name in ("run_map", "run_reduce", "run_filter"):
            self._patch(GPUSimulator, name, "gpu", after_gpu)

        def after_fpga(args, result):
            count("fpga.runs")
            count("fpga.cycles", result.cycles)

        self._patch(FPGASimulator, "run_stream", "fpga", after_fpga)

        def after_marshal(args, result):
            count("marshal.crossings")
            count("marshal.bytes", result[1].num_bytes)

        for name in ("to_device", "from_device", "to_device_batch",
                     "from_device_batch"):
            self._patch(MarshalingBoundary, name, "marshal", after_marshal)

        self._patch(engine, "plan_substitutions", "substitution",
                    lambda args, result: count("substitution.plans"))
        self._patch(SequentialScheduler, "run_to_completion", "scheduler",
                    lambda args, result: count("scheduler.graphs"))
        threaded_run = ThreadedScheduler.__dict__["run_to_completion"]

        def threaded(*args, **kwargs):
            stack = tracer._stack()
            adopter = tracer._adopter

            def adopting(*inner, **inner_kw):
                tracer._adopter = stack[-1]
                try:
                    return threaded_run(*inner, **inner_kw)
                finally:
                    tracer._adopter = adopter

            result = tracer._call("scheduler", adopting, args, kwargs)
            count("scheduler.graphs")
            return result

        self._patch(ThreadedScheduler, "run_to_completion", None,
                    wrapper=threaded)

        from repro.runtime.engine import Runtime

        run_original = Runtime.__dict__["run"]

        def run(runtime, *args, **kwargs):
            job_id = runtime.config.job_id
            if job_id is not None:
                with tracer._lock:
                    tracer._run_started.setdefault(job_id, _clock())
            count("engine.runs")
            return tracer._call("engine", run_original,
                                (runtime,) + args, kwargs)

        self._patch(Runtime, "run", None, wrapper=run)
        self._patch(Runtime, "__init__", "engine")

        self._patch(compiler.CompilerSession, "compile_cached", "session",
                    lambda args, result: count("session.compile_cached"))

        submit_original = service_mod.CoExecutionService.__dict__["submit"]

        def submit(*args, **kwargs):
            try:
                job_id = tracer._call(
                    "service.submit", submit_original, args, kwargs
                )
            except AdmissionRejected:
                count("service.rejected")
                raise
            with tracer._lock:
                tracer._submitted[job_id] = _clock()
            return job_id

        self._patch(service_mod.CoExecutionService, "submit", None,
                    wrapper=submit)

        def after_append(args, result):
            journal = args[0]
            size = os.path.getsize(journal.path)
            with tracer._lock:
                last = tracer._journal_sizes.get(journal.path, size)
                tracer._journal_sizes[journal.path] = size
                tracer.counts["journal.records"] += 1
                tracer.counts["journal.bytes"] += size - last

        self._patch(JobJournal, "append", "journal.append", after_append)
        self._patch(service_mod, "load_journal", "journal.load")

        for name in ("quiesce", "flush"):
            self._patch(CheckpointRecorder, name, None,
                        wrapper=self._checkpoint_wrapper(
                            CheckpointRecorder.__dict__[name]))

    def _checkpoint_wrapper(self, fn):
        tracer = self

        def wrapper(recorder, *args, **kwargs):
            frames = recorder.frames_persisted
            nbytes = recorder.bytes_persisted
            result = tracer._call("checkpoint", fn, (recorder,) + args,
                                  kwargs)
            tracer._count("checkpoint.frames",
                          recorder.frames_persisted - frames)
            tracer._count("checkpoint.bytes",
                          recorder.bytes_persisted - nbytes)
            return result

        return wrapper

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- results --------------------------------------------------------

    def self_times(self) -> dict:
        """Layer -> summed self time (seconds)."""
        children = defaultdict(list)
        for sid, _layer, start, end, parent, _tag in self.spans:
            if parent:
                children[parent].append((start, end))
        totals: dict = defaultdict(float)
        for sid, layer, start, end, _parent, _tag in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, cursor)
                c_end = min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[layer] += (end - start) - covered
        return totals

    def cycles(self) -> tuple:
        """``(interp.cycles, fpga.cycles)`` so far."""
        return (self.counts["interp.cycles"], self.counts["fpga.cycles"])

    def queue_waits_ms(self) -> list:
        """Submit return to ``Runtime.run`` start, per job (a job that
        started before ``submit`` returned waited 0)."""
        return [
            max(0.0, self._run_started[job] - returned) * 1e3
            for job, returned in self._submitted.items()
            if job in self._run_started
        ]

    def memo_misses(self) -> int:
        """``compile_cached`` calls that ran the toolchain."""
        sessions = {sid for sid, layer, *_ in self.spans
                    if layer == "session"}
        return sum(1 for _sid, layer, _s, _e, parent, _t in self.spans
                   if layer == "compiler" and parent in sessions)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields,
        then one array per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                ["id", "layer", "start", "end", "parent", "tag"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
