"""The Liquid Metal runtime engine (Section 4).

The engine owns the bytecode interpreter (our JVM stand-in), the device
simulators, the artifact store, and the timing ledger. It implements
the interpreter's :class:`Services` interface, which is how "the
generated bytecode that instantiates a task also provides the runtime
with the unique identifiers … generated by the backend compilers"
(Section 4.1): MKSOURCE/MKSINK/MKTASK opcodes call straight into
:meth:`make_source` / :meth:`make_sink` / :meth:`make_task`.

Execution is functionally real; time is simulated (see
:mod:`repro.runtime.timing`). ``start()`` on a task graph is executed
eagerly (sources are finite, so eager completion is observationally
equivalent for linear pipelines); ``finish()`` joins.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field

from repro.backends.bytecode.interpreter import Interpreter, Services
from repro.backends.common import BYTECODE, FPGA, GPU
from repro.compiler import CompileResult, CompilerSession
from repro.ir.fusion import FUSION_MODES
from repro.devices.cpu import CPUSpec
from repro.devices.fpga.simulator import FPGASimulator
from repro.devices.gpu.simulator import GPUSimulator
from repro.devices.gpu.timing import GTX580, GPUSpec
from repro.devices.interconnect import PCIE_GEN2_X8, PCIE_GEN2_X16, Link
from repro.errors import (
    ConfigurationError,
    LiquidMetalError,
    RuntimeGraphError,
)
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.adaptive import AdaptiveTask
from repro.runtime.faults import NULL_INJECTOR, as_injector
from repro.runtime.graph import Pipeline
from repro.runtime.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    RUN_BYTECODE,
    RUN_DEVICE,
    RUN_PROBE,
    HealthPolicy,
    HealthRegistry,
)
from repro.runtime.marshaling import MarshalingBoundary
from repro.runtime.scheduler import SequentialScheduler, ThreadedScheduler
from repro.runtime.specialize import (
    KernelSpecializer,
    SpecializationPolicy,
)
from repro.runtime.supervisor import RetryPolicy, Supervisor
from repro.runtime.substitution import (
    SubstitutionPolicy,
    apply_substitutions,
    plan_substitutions,
)
from repro.runtime.tasks import (
    ExecutionContext,
    FilterTask,
    SinkTask,
    SourceTask,
)
from repro.runtime.timing import OffloadRecord, TimingLedger
from repro.values import ValueArray, serialize, serialize_batch


#: Scheduler names accepted by :class:`RuntimeConfig`.
SCHEDULERS = ("threaded", "sequential")


def _value_eq(a, b) -> bool:
    try:
        return bool(a == b)
    except Exception:
        return a is b


def _outputs_match(expected, actual) -> bool:
    """Element-wise shadow-probe comparison: the device output must
    equal the authoritative bytecode output exactly — a wrong-answer
    device counts as a probe failure, not just a crashing one."""
    if isinstance(expected, list) != isinstance(actual, list):
        return False
    if isinstance(expected, list):
        return len(expected) == len(actual) and all(
            _value_eq(e, a) for e, a in zip(expected, actual)
        )
    return _value_eq(expected, actual)


@dataclass
class RuntimeConfig:
    """Knobs for the runtime; defaults mirror the paper's setup.

    Validated eagerly: constructing an invalid config raises
    :class:`repro.errors.ConfigurationError` immediately instead of
    failing deep inside the engine. Derive per-call variants with
    :meth:`with_overrides` rather than mutating a shared config.
    """

    cpu: CPUSpec = field(default_factory=CPUSpec)
    gpu: GPUSpec = field(default_factory=lambda: GTX580)
    gpu_link: Link = PCIE_GEN2_X16
    fpga_link: Link = PCIE_GEN2_X8
    policy: SubstitutionPolicy = field(default_factory=SubstitutionPolicy)
    scheduler: str = "threaded"       # 'threaded' | 'sequential'
    map_offload_min_items: int = 64   # below this, CPU wins on transfer
    device_batch_size: int = 4096
    #: Marshaling batch: FIFO elements packed into ONE wire buffer and
    #: charged ONE crossing when a device stage fires. batch_size=1 is
    #: the per-element slow path; larger values amortize the fixed
    #: serialize/JNI/convert costs (docs/PERFORMANCE.md).
    batch_size: int = 4096
    fpga_max_clock_hz: float = 250e6
    tracer: object = NULL_TRACER      # repro.obs.Tracer when tracing
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Circuit-breaker policy for device spans (docs/RESILIENCE.md).
    #: The default (cooldown_s=None) keeps demotion permanent; a finite
    #: cool-down turns it into a quarantine with shadow-probe recovery.
    health: HealthPolicy = field(default_factory=HealthPolicy)
    fault_plan: object = None         # repro.runtime.faults.FaultPlan
    stage_timeout_s: "float | None" = None  # threaded stage watchdog
    #: Service-job attribution (docs/SERVICE.md): stamped onto
    #: RetryExhaustedError / DeviceTimeoutError raised by this runtime
    #: so multi-tenant error reports can name the job they belong to.
    #: None for standalone runs.
    job_id: "str | None" = None
    tenant: "str | None" = None
    #: Runtime task-fusion mode (docs/FUSION.md): 'auto' (default —
    #: substitution may take any multi-stage artifact, the historical
    #: behavior), 'off' (single-stage substitutions only: the honest
    #: unfused baseline), or 'plan' (multi-stage substitutions allowed
    #: only for spans the FusionPlan sanctions).
    fusion: str = "auto"
    #: The repro.fusion/1 plan for fusion='plan'; defaults to the plan
    #: the compilation itself applied (CompileResult.fusion_plan).
    fusion_plan: object = None
    #: Runtime kernel specialization (docs/FUSION.md); off by default.
    specialize: SpecializationPolicy = field(
        default_factory=SpecializationPolicy
    )

    def __post_init__(self):
        self.validate()

    def validate(self) -> "RuntimeConfig":
        """Reject invalid knob combinations; returns self."""
        if self.scheduler not in SCHEDULERS:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; "
                f"expected one of {', '.join(SCHEDULERS)}"
            )
        if self.device_batch_size < 1:
            raise ConfigurationError(
                f"device_batch_size must be positive, "
                f"got {self.device_batch_size}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.map_offload_min_items < 1:
            raise ConfigurationError(
                f"map_offload_min_items must be positive, "
                f"got {self.map_offload_min_items}"
            )
        if self.fpga_max_clock_hz <= 0:
            raise ConfigurationError(
                f"fpga_max_clock_hz must be positive, "
                f"got {self.fpga_max_clock_hz}"
            )
        if self.stage_timeout_s is not None and self.stage_timeout_s <= 0:
            raise ConfigurationError(
                f"stage_timeout_s must be positive (or None), "
                f"got {self.stage_timeout_s}"
            )
        if self.fusion not in FUSION_MODES:
            raise ConfigurationError(
                f"unknown fusion mode {self.fusion!r}; "
                f"expected one of {', '.join(FUSION_MODES)}"
            )
        self.specialize.validate()
        return self

    def with_overrides(self, **overrides) -> "RuntimeConfig":
        """A validated copy with the given fields changed — the
        builder callers use instead of mutating shared configs."""
        unknown = set(overrides) - {
            f.name for f in dataclasses.fields(self)
        }
        if unknown:
            raise ConfigurationError(
                "unknown RuntimeConfig fields: "
                + ", ".join(sorted(unknown))
            )
        return dataclasses.replace(self, **overrides)


@dataclass
class RunOutcome:
    """Result of one runtime invocation."""

    value: object
    ledger: TimingLedger
    output: str
    trace: object = None     # the Tracer, when tracing was enabled

    @property
    def seconds(self) -> float:
        return self.ledger.total_s


class Runtime(Services):
    """Co-execution runtime over a compiled program."""

    def __init__(self, compiled: CompileResult, config: RuntimeConfig | None = None,
                 health_registry: "HealthRegistry | None" = None,
                 cancel_token=None, session: "CompilerSession | None" = None,
                 checkpointer=None):
        self.compiled = compiled
        self.config = (config or RuntimeConfig()).validate()
        # Task fusion at dispatch time (docs/FUSION.md): the mode gates
        # which multi-stage artifacts substitution may take; the plan
        # (explicit, or the one the compilation applied) is the
        # sanction list for mode='plan'.
        self.fusion_mode = self.config.fusion
        self.fusion_plan = (
            self.config.fusion_plan
            if self.config.fusion_plan is not None
            else getattr(compiled, "fusion_plan", None)
        )
        if self.fusion_mode == "plan" and self.fusion_plan is None:
            raise ConfigurationError(
                "runtime fusion mode 'plan' needs a plan: pass "
                "RuntimeConfig(fusion_plan=FusionPlan.load(...)) or "
                "compile with fusion enabled"
            )
        self.trace = self.config.tracer
        self.metrics = getattr(self.trace, "metrics", NULL_METRICS)
        # Snapshot the policy so two Runtime instances handed the same
        # policy object cannot observe each other's directive edits
        # (dataclasses.replace re-runs the defensive directives copy).
        self.policy = dataclasses.replace(self.config.policy)
        self.store = compiled.store
        self.interp = Interpreter(compiled.bytecode_program, services=self)
        self.gpu = GPUSimulator(compiled.bytecode_program, self.config.gpu)
        # Fault injection + supervision (docs/RESILIENCE.md): every
        # device executor runs under the supervisor's retry policy and
        # degrades to the bytecode artifact on exhausted retries.
        self.faults = as_injector(self.config.fault_plan, tracer=self.trace)
        self.supervisor = Supervisor(
            self.config.retry,
            tracer=self.trace,
            job_id=self.config.job_id,
            tenant=self.config.tenant,
        )
        # Cooperative cancellation (docs/SERVICE.md): when a token is
        # attached, task loops poll it at firing/batch boundaries.
        self.cancel_token = cancel_token
        # Pipelines currently inside run_to_completion — what a
        # cross-thread teardown needs to drain.
        self._active_pipelines: list = []
        # Device health (docs/RESILIENCE.md): every offload is mediated
        # by a per-(device, span) circuit breaker; the listener keeps
        # the substitution policy in sync (revocable bytecode pin while
        # OPEN, lifted when the breaker goes HALF_OPEN/CLOSED).
        # A service passes its own service-scoped registry so breaker
        # state is shared across jobs (docs/SERVICE.md); this runtime
        # then only *subscribes* its policy-sync hook, and close()
        # unsubscribes it.
        self._shared_health = health_registry is not None
        self.health = health_registry or HealthRegistry(
            self.config.health, tracer=self.trace
        )
        self.health.add_listener(self._on_breaker_transition)
        self.gpu_boundary = MarshalingBoundary(
            self.config.gpu_link,
            tracer=self.trace,
            injector=self.faults,
            name="gpu",
        )
        self.fpga_boundary = MarshalingBoundary(
            self.config.fpga_link,
            tracer=self.trace,
            injector=self.faults,
            name="fpga",
        )
        self.ledger = TimingLedger(self.config.cpu.clock_hz)
        # Kernel specialization (docs/FUSION.md): opt-in. The variant
        # compiles go through a CompilerSession (content-addressed in
        # its artifact cache); a service passes its own session so
        # specializations are shared across jobs.
        if self.config.specialize.enabled:
            owner = session
            if owner is None:
                owner = CompilerSession(compiled.compile_options)
            self.specializer = KernelSpecializer(
                self.config.specialize,
                owner.compile_specialized,
                tracer=self.trace,
                charge=lambda seconds: self.ledger.add_host_cycles(
                    int(seconds * self.config.cpu.clock_hz)
                ),
            )
        else:
            self.specializer = None
        self._lock = threading.RLock()
        if self.config.scheduler == "sequential":
            self.scheduler = SequentialScheduler()
        else:
            self.scheduler = ThreadedScheduler(
                stage_timeout_s=self.config.stage_timeout_s,
                job_id=self.config.job_id,
                tenant=self.config.tenant,
            )
        self.substitution_log: list = []
        self.adaptation_log: list = []
        # Crash-consistent checkpointing (docs/RECOVERY.md): when a
        # recorder is attached, every device decision point is
        # memoized (capture) or served from the last persisted frame
        # (replay), and quiescent points persist frames.
        self.checkpointer = checkpointer
        if checkpointer is not None:
            checkpointer.attach(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def cancel(self, reason: str = "cancelled"):
        """Trip this runtime's cancel token (creating one if the
        runtime was built without). Cooperative: running task loops
        observe the trip at their next firing/batch boundary and raise
        :class:`~repro.errors.JobCancelledError`; a subsequent
        :meth:`run` fails immediately. Returns the token."""
        from repro.runtime.cancel import CancelToken

        token = self.cancel_token
        if token is None:
            token = self.cancel_token = CancelToken(
                job_id=self.config.job_id, tenant=self.config.tenant
            )
        token.cancel(reason)
        return token

    def shutdown_active(self, timeout_s: float = 0.5) -> bool:
        """Drain every pipeline currently executing (bounded wait) —
        the teardown half of :meth:`cancel` when the run thread is
        wedged on a FIFO. True when every worker thread joined."""
        ok = True
        for pipeline in list(self._active_pipelines):
            ok = self.scheduler.shutdown(pipeline, timeout_s) and ok
        return ok

    def close(self) -> None:
        """Detach this runtime from shared service infrastructure: a
        shared health registry keeps living after the job, so the
        runtime's policy-sync listener must not. Idempotent."""
        if self._shared_health:
            self.health.remove_listener(self._on_breaker_transition)

    def run(self, qualified: str, args: list | None = None) -> RunOutcome:
        """Invoke an entry point and account its simulated time."""
        token = self.cancel_token
        if token is not None:
            token.check()
        self.ledger = TimingLedger(self.config.cpu.clock_hz)
        before = self.interp.cycles
        out_before = len(self.interp.stdout)
        with self.trace.span("run", entry=qualified) as span:
            value = self.interp.call(qualified, list(args or []))
            self.ledger.add_host_cycles(self.interp.cycles - before)
            span.set(
                host_cycles=self.interp.cycles - before,
                simulated_s=self.ledger.total_s,
            )
        output = "".join(self.interp.stdout[out_before:])
        return RunOutcome(
            value=value,
            ledger=self.ledger,
            output=output,
            trace=self.trace if self.trace.enabled else None,
        )

    def call(self, qualified: str, args: list | None = None):
        """Invoke an entry point, returning just the value."""
        return self.run(qualified, args).value

    def profile(self, top: int = 10) -> list:
        """Inclusive per-method profile: [(qualified, calls, cycles)]
        sorted by cycles — the runtime-introspection hook the paper
        lists as a current direction (Section 7)."""
        rows = [
            (name, stats[0], stats[1])
            for name, stats in self.interp.method_stats.items()
        ]
        rows.sort(key=lambda r: r[2], reverse=True)
        return rows[:top]

    def metered_call(self, qualified: str, args: list):
        """Thread-safe interpreter call returning (value, cycles)."""
        with self._lock:
            before = self.interp.cycles
            value = self.interp.call(qualified, args)
            return value, self.interp.cycles - before

    # ------------------------------------------------------------------
    # Services: data-parallel operators
    # ------------------------------------------------------------------

    def _find_artifact(self, task_id: str, device: str):
        for artifact in self.store.for_task(task_id):
            if artifact.device == device:
                return artifact
        return None

    def _observe_offload(self, record: OffloadRecord) -> None:
        """Feed the metrics registry from one offload record: batch
        size, kernel latency, and amortized per-item latency (all in
        simulated time, so profile histograms are deterministic)."""
        metrics = self.metrics
        metrics.histogram("offload.batch.items").observe(record.items)
        metrics.histogram("offload.kernel_us").observe(record.kernel_s * 1e6)
        if record.items:
            metrics.histogram("offload.item_latency_us").observe(
                record.total_s / record.items * 1e6
            )

    def execute_map(self, method: str, args: list, broadcast, interp):
        recorder = self.checkpointer
        if recorder is None:
            return self._execute_map_impl(method, args, broadcast, interp)
        mapped = [a for a, b in zip(args, broadcast) if not b]
        n = len(mapped[0]) if mapped else 0
        result = recorder.around_map(
            f"map:{method}", n,
            lambda: self._execute_map_impl(method, args, broadcast, interp),
        )
        self.checkpoint_quiesce()
        return result

    def _execute_map_impl(self, method: str, args: list, broadcast, interp):
        mapped = [a for a, b in zip(args, broadcast) if not b]
        n = len(mapped[0]) if mapped else 0
        artifact = self._find_artifact(f"map:{method}", GPU)
        policy = self.policy
        counters = self.trace.counters
        counters.add("offload.map.considered")
        with self.trace.span(
            "run.substitution", kind="map", task=f"map:{method}", items=n
        ) as span:
            eligible = (
                artifact is not None
                and policy.use_accelerators
                and GPU in policy.device_order
                and n >= self.config.map_offload_min_items
            )
            action = RUN_BYTECODE
            if eligible:
                # The breaker speaks BEFORE the directive check: an
                # OPEN breaker whose quarantine expired flips to
                # HALF_OPEN here, which lifts its health pin so
                # allows() below sees the re-promoted span.
                action = self.health.decide(
                    GPU, artifact.artifact_id, [f"map:{method}"]
                )
            offload = (
                eligible
                and action in (RUN_DEVICE, RUN_PROBE)
                and policy.allows(artifact, [f"map:{method}"])
            )
            span.set(
                taken=offload,
                device=GPU if offload else BYTECODE,
                target=artifact.artifact_id if artifact else None,
                breaker=action if eligible else None,
            )
        if offload:
            counters.add("offload.map.taken")
            return self._supervised_offload(
                artifact,
                task_name=f"map:{method}",
                attempt=lambda: self._gpu_map(artifact, args, broadcast),
                fallback=lambda: Services.execute_map(
                    self, method, args, broadcast, interp
                ),
                probe=action == RUN_PROBE,
            )
        counters.add("offload.map.cpu")
        if eligible and action == RUN_BYTECODE:
            # Served by the interpreter while the breaker is OPEN:
            # charge the CPU time to the quarantine clock so the
            # cool-down can expire and a later call gets probed.
            cycles_before = self.interp.cycles
            result = super().execute_map(method, args, broadcast, interp)
            self.health.on_fallback(
                GPU,
                artifact.artifact_id,
                self.ledger.cycles_to_seconds(
                    self.interp.cycles - cycles_before
                ),
            )
            return result
        return super().execute_map(method, args, broadcast, interp)

    def _gpu_map(self, artifact, args: list, broadcast):
        resident = ()
        if self.specializer is not None:
            artifact, resident = self.specializer.observe(
                artifact, args, broadcast
            )
        kernel = artifact.payload
        with self.trace.span(
            "run.offload",
            kind="map",
            target=artifact.artifact_id,
            device=GPU,
            specialized=bool(resident),
        ) as span:
            transfers = []
            for pos, (arg, is_broadcast) in enumerate(
                zip(args, broadcast)
            ):
                if is_broadcast and not isinstance(arg, ValueArray):
                    continue  # scalar broadcast rides in the launch packet
                if pos in resident:
                    # Guard-resident operand: already on the device and
                    # digest-verified by the specialization guard — no
                    # re-marshaling (the specialization win).
                    self.trace.counters.add("specialize.resident_skip")
                    continue
                _, record = self.gpu_boundary.to_device(arg)
                transfers.append(record)
            execution = self.gpu.run_map(kernel, args)
            _, back = self.gpu_boundary.from_device(
                serialize(execution.outputs)
            )
            transfers.append(back)
            record = OffloadRecord(
                kind="map",
                target=artifact.artifact_id,
                device=GPU,
                items=len(execution.outputs),
                kernel_s=execution.timing.kernel_s,
                transfers=transfers,
                launch_s=execution.timing.launch_s,
                compute_s=execution.timing.compute_s,
                memory_s=execution.timing.memory_s,
            )
            self.ledger.add_offload(record)
            self._observe_offload(record)
            span.set(
                items=record.items,
                kernel_s=record.kernel_s,
                transfer_s=record.transfer_s,
                bytes=sum(t.num_bytes for t in transfers),
            )
        return list(execution.outputs)

    def execute_reduce(self, method: str, array, interp):
        recorder = self.checkpointer
        if recorder is None:
            return self._execute_reduce_impl(method, array, interp)
        result = recorder.around_reduce(
            f"reduce:{method}", len(array),
            lambda: self._execute_reduce_impl(method, array, interp),
        )
        self.checkpoint_quiesce()
        return result

    def _execute_reduce_impl(self, method: str, array, interp):
        artifact = self._find_artifact(f"reduce:{method}", GPU)
        policy = self.policy
        counters = self.trace.counters
        counters.add("offload.reduce.considered")
        with self.trace.span(
            "run.substitution",
            kind="reduce",
            task=f"reduce:{method}",
            items=len(array),
        ) as span:
            eligible = (
                artifact is not None
                and policy.use_accelerators
                and GPU in policy.device_order
                and len(array) >= self.config.map_offload_min_items
            )
            action = RUN_BYTECODE
            if eligible:
                action = self.health.decide(
                    GPU, artifact.artifact_id, [f"reduce:{method}"]
                )
            offload = (
                eligible
                and action in (RUN_DEVICE, RUN_PROBE)
                and policy.allows(artifact, [f"reduce:{method}"])
            )
            span.set(
                taken=offload,
                device=GPU if offload else BYTECODE,
                target=artifact.artifact_id if artifact else None,
                breaker=action if eligible else None,
            )
        if offload:
            counters.add("offload.reduce.taken")
            return self._supervised_offload(
                artifact,
                task_name=f"reduce:{method}",
                attempt=lambda: self._gpu_reduce(artifact, array),
                fallback=lambda: Services.execute_reduce(
                    self, method, array, interp
                ),
                probe=action == RUN_PROBE,
            )
        counters.add("offload.reduce.cpu")
        if eligible and action == RUN_BYTECODE:
            cycles_before = self.interp.cycles
            result = super().execute_reduce(method, array, interp)
            self.health.on_fallback(
                GPU,
                artifact.artifact_id,
                self.ledger.cycles_to_seconds(
                    self.interp.cycles - cycles_before
                ),
            )
            return result
        return super().execute_reduce(method, array, interp)

    def _gpu_reduce(self, artifact, array):
        kernel = artifact.payload
        with self.trace.span(
            "run.offload",
            kind="reduce",
            target=artifact.artifact_id,
            device=GPU,
        ) as span:
            _, out = self.gpu_boundary.to_device(array)
            execution = self.gpu.run_reduce(kernel, array)
            _, back = self.gpu_boundary.from_device(
                serialize(execution.outputs)
            )
            record = OffloadRecord(
                kind="reduce",
                target=artifact.artifact_id,
                device=GPU,
                items=len(array),
                kernel_s=execution.timing.kernel_s,
                transfers=[out, back],
                launch_s=execution.timing.launch_s,
                compute_s=execution.timing.compute_s,
                memory_s=execution.timing.memory_s,
            )
            self.ledger.add_offload(record)
            self._observe_offload(record)
            span.set(
                items=record.items,
                kernel_s=record.kernel_s,
                transfer_s=record.transfer_s,
                bytes=out.num_bytes + back.num_bytes,
            )
        return execution.outputs

    # ------------------------------------------------------------------
    # Services: task-graph construction
    # ------------------------------------------------------------------

    def make_source(self, array, rate, task_id):
        return SourceTask(array, rate, task_id)

    def make_sink(self, array, task_id):
        return SinkTask(array, task_id)

    def make_task(self, method, task_id, arity, relocatable, instance=None):
        return FilterTask(
            method, arity, task_id, relocatable, instance=instance
        )

    def connect(self, left, right):
        return Pipeline.connect(left, right)

    def graph_start(self, graph, blocking, graph_id, interp) -> None:
        pipeline = Pipeline.of(graph)
        if pipeline.started:
            return  # finish() after start(): already executed eagerly
        pipeline.validate()
        executed = self._substitute(pipeline, graph_id)
        run = self.ledger.new_graph_run(graph_id or "dynamic")
        ctx = ExecutionContext(self, run)
        cycles_before = self.interp.cycles
        token = self.cancel_token
        if token is not None:
            token.check()
        with self.trace.span(
            "run.graph",
            graph_id=graph_id or "dynamic",
            stages=len(executed.tasks),
            scheduler=self.scheduler.name,
        ) as span:
            self._active_pipelines.append(executed)
            try:
                self.scheduler.run_to_completion(executed, ctx)
            finally:
                self._active_pipelines.remove(executed)
            span.set(wall_s=run.wall_s)
        # CPU cycles burned inside graph stages are modeled through the
        # per-stage pipeline model, not as serial host time.
        self.interp.cycles = cycles_before
        pipeline.started = True
        pipeline.graph_run = run
        # A finished graph is a quiescent point under both schedulers.
        self.checkpoint_quiesce()

    def checkpoint_quiesce(self, inline: bool = False) -> None:
        """Give the checkpoint recorder a chance to persist a frame.

        Only quiescent points qualify: with pipelines in flight a frame
        would capture half-finished concurrent stages, so the call is a
        no-op — except for the sequential scheduler's stage-boundary
        calls (``inline=True``), where mid-graph execution is genuinely
        quiescent.
        """
        recorder = self.checkpointer
        if recorder is None:
            return
        if self._active_pipelines and not inline:
            return
        recorder.quiesce()

    # ------------------------------------------------------------------
    # Substitution
    # ------------------------------------------------------------------

    def _substitute(self, pipeline: Pipeline, graph_id) -> Pipeline:
        policy = self.policy
        estimator = self._cost_estimator(pipeline)
        with self.trace.span(
            "run.substitution",
            kind="graph",
            graph_id=graph_id or "dynamic",
            tasks=len(pipeline.tasks),
            fusion=self.fusion_mode,
        ) as span:
            decisions = plan_substitutions(
                pipeline,
                self.store,
                policy,
                cost_estimator=estimator,
                counters=self.trace.counters,
                fusion_mode=self.fusion_mode,
                fusion_plan=self.fusion_plan,
            )
            fused_spans = sum(
                1 for d in decisions if len(d.covered_task_ids) > 1
            )
            if fused_spans:
                self.trace.counters.add(
                    "fusion.graph.substituted", fused_spans
                )
            span.set(
                decisions=len(decisions),
                devices=",".join(d.device for d in decisions) or BYTECODE,
                fused_spans=fused_spans,
            )
        self.substitution_log.append((graph_id, decisions))
        if policy.adaptive:
            return self._apply_adaptive(pipeline, decisions)

        def factory(artifact):
            span_tasks = [
                t
                for t in pipeline.tasks
                if t.task_id in artifact.manifest.task_ids
            ]
            executor = self._supervised_executor(artifact, span_tasks)
            if self.checkpointer is not None:
                executor = self.checkpointer.wrap_stage(
                    artifact.artifact_id, executor
                )
            return executor

        return apply_substitutions(
            pipeline,
            decisions,
            self.store,
            factory,
            batch_size=self.config.batch_size,
        )

    def _apply_adaptive(self, pipeline: Pipeline, decisions) -> Pipeline:
        """Replace each substituted span with an AdaptiveTask that holds
        both the bytecode filters and the device artifact (runtime
        adaptation — the paper's future work, Section 4.2)."""
        if not decisions:
            return pipeline
        by_start = {d.start_index: d for d in decisions}
        new_tasks: list = []
        index = 0
        while index < len(pipeline.tasks):
            decision = by_start.get(index)
            if decision is None:
                new_tasks.append(pipeline.tasks[index])
                index += 1
                continue
            span = pipeline.tasks[
                index : index + len(decision.covered_task_ids)
            ]
            artifact = self.store.lookup(decision.artifact_id)
            adaptable = all(
                isinstance(t, FilterTask)
                and t.arity == 1
                and t.instance is None
                for t in span
            )
            if adaptable:
                new_tasks.append(
                    AdaptiveTask(
                        artifact_id=decision.artifact_id,
                        device_kind=decision.device,
                        covered_task_ids=decision.covered_task_ids,
                        device_executor=self._supervised_executor(
                            artifact, span
                        ),
                        cpu_methods=[t.method for t in span],
                        batch_size=self.config.device_batch_size,
                    )
                )
            else:
                from repro.runtime.tasks import DeviceTask

                new_tasks.append(
                    DeviceTask(
                        artifact_id=decision.artifact_id,
                        device=decision.device,
                        covered_task_ids=decision.covered_task_ids,
                        executor=self._supervised_executor(artifact, span),
                        batch_size=self.config.batch_size,
                    )
                )
            index += len(decision.covered_task_ids)
        return Pipeline(new_tasks)

    def _cost_estimator(self, pipeline: Pipeline):
        """Estimate (transfer_s, cpu_s) for substituting a span — used
        by the communication-aware policy (the paper's future work)."""
        source = pipeline.tasks[0]
        n = len(source.array) if isinstance(source, SourceTask) else 1024

        def estimate(artifact, covered_ids):
            if artifact.device == GPU:
                boundary = self.gpu_boundary
            else:
                boundary = self.fpga_boundary
            elem_bytes = 4
            num_bytes = n * elem_bytes
            transfer_s = 2 * (
                boundary.link.transfer_time(num_bytes)
                + boundary.costs.serialize_fixed_s
                + num_bytes * boundary.costs.serialize_per_byte_s
            )
            # Probe the CPU cost of one item through the covered chain.
            methods = [
                t.method
                for t in pipeline.tasks
                if isinstance(t, FilterTask) and t.task_id in covered_ids
            ]
            cycles = 0
            sample = source.array[0] if n else None
            value = sample
            for method in methods:
                value, used = self.metered_call(method, [value])
                cycles += used
            self.interp.cycles -= cycles  # probing is free
            cpu_s = n * cycles / self.config.cpu.clock_hz
            return transfer_s, cpu_s

        return estimate

    def _executor_for(self, artifact):
        if artifact.device == GPU:
            return self._gpu_filter_executor(artifact)
        if artifact.device == FPGA:
            return self._fpga_filter_executor(artifact)
        raise RuntimeGraphError(
            f"no executor for device {artifact.device!r}"
        )

    # ------------------------------------------------------------------
    # Supervision: retry, demotion, bytecode fallback
    # ------------------------------------------------------------------

    @property
    def demotion_log(self) -> list:
        """Runtime re-substitutions taken so far
        (:class:`~repro.runtime.supervisor.DemotionRecord`)."""
        return self.supervisor.demotions

    def _on_breaker_transition(self, record, transition) -> None:
        """Keep the substitution policy in sync with breaker state:
        OPEN installs a revocable (health-scoped) bytecode pin on the
        covered span; HALF_OPEN and CLOSED lift it again so the span is
        eligible for (probationary) re-substitution. User-authored
        directives are never touched (`SubstitutionPolicy.promote`)."""
        if transition.to_state == OPEN:
            self.policy.demote(record.covered_task_ids, health=True)
        elif transition.to_state in (HALF_OPEN, CLOSED):
            self.policy.promote(record.covered_task_ids)

    def _record_demotion(self, artifact, record=None) -> None:
        """Report a retry-exhausted device failure into the health
        registry — the demotion directive of runtime re-substitution.
        With the default policy (no cool-down) the breaker opens and
        stays open, which is PR 2's permanent demotion; with a finite
        cool-down the pin is a quarantine the breaker can later lift."""
        self.health.on_failure(
            artifact.device,
            artifact.artifact_id,
            record.backoff_s if record is not None else 0.0,
            error=record.error if record is not None else "",
            covered_task_ids=artifact.manifest.task_ids,
        )

    def _charged_offload_s(self, offloads_before: int) -> float:
        """Simulated seconds of the offload records charged to the
        ledger since ``offloads_before`` — the breaker clock advance
        for a successful device execution."""
        return sum(
            record.total_s
            for record in self.ledger.offloads[offloads_before:]
        )

    def _supervised_offload(self, artifact, task_name, attempt, fallback,
                            probe=False):
        """Run one data-parallel offload under the supervisor: consult
        the fault injector, retry transient failures, and on exhausted
        retries report the failure to the health registry (which opens
        the breaker and pins the span) and replay on the interpreter.
        With ``probe=True`` the offload is a HALF_OPEN shadow probe
        instead: bytecode is authoritative, the device runs in shadow,
        and the element-wise comparison is the probe verdict."""
        key = artifact.artifact_id
        device = artifact.device
        covered = list(artifact.manifest.task_ids)
        sites = [key, task_name, *covered]

        def run_device():
            self.faults.check(
                "device", sites, device=device, task_id=task_name
            )
            outputs = attempt()
            if isinstance(outputs, list):
                outputs = self.faults.transform_outputs(
                    "device", sites, outputs,
                    device=device, task_id=task_name,
                )
            return outputs

        if probe:
            with self.trace.span(
                "probe.shadow", key=key, device=device, kind=task_name
            ) as span:
                cycles_before = self.interp.cycles
                expected = fallback()
                bytecode_s = self.ledger.cycles_to_seconds(
                    self.interp.cycles - cycles_before
                )
                offloads_before = len(self.ledger.offloads)
                ok, reason = True, "clean"
                try:
                    outputs = run_device()
                    if not _outputs_match(expected, outputs):
                        ok, reason = False, "mismatch"
                except LiquidMetalError as exc:
                    ok, reason = False, type(exc).__name__
                device_s = self._charged_offload_s(offloads_before)
                span.set(
                    ok=ok, reason=reason,
                    bytecode_s=bytecode_s, device_s=device_s,
                )
            self.health.on_probe(
                device, key, ok, bytecode_s + device_s, reason=reason
            )
            return expected

        demoted: list = []

        def on_demote(record, error):
            demoted.append(record)
            self._record_demotion(artifact, record)

        offloads_before = len(self.ledger.offloads)
        result = self.supervisor.run(
            run_device,
            task_id=task_name,
            device=device,
            fallback=fallback,
            covered_task_ids=covered,
            on_demote=on_demote,
        )
        if not demoted:
            self.health.on_success(
                device, key, self._charged_offload_s(offloads_before)
            )
        return result

    def _supervised_executor(self, artifact, span_tasks):
        """Wrap a device filter-batch executor with the circuit
        breaker, fault injection, the retry policy, and graceful
        degradation. Every batch boundary is a breaker decision:
        CLOSED offloads under the supervisor (exhausted retries report
        a failure, open the breaker, and replay the batch on bytecode);
        OPEN serves the batch from the bytecode span (advancing the
        quarantine clock); HALF_OPEN runs a shadow probe — bytecode is
        authoritative, the device output is compared element-wise, and
        enough clean probes re-promote the span."""
        base = self._executor_for(artifact)
        fallback_fn = self._bytecode_fallback(span_tasks)
        covered = list(artifact.manifest.task_ids)
        key = artifact.artifact_id
        device = artifact.device
        sites = [key, *covered]

        def run_device_batch(items):
            self.faults.check("device", sites, device=device, task_id=key)
            outputs, seconds = base(items)
            outputs = self.faults.transform_outputs(
                "device", sites, outputs, device=device, task_id=key
            )
            return outputs, seconds

        def shadow_probe(items):
            with self.trace.span(
                "probe.shadow",
                key=key,
                device=device,
                kind="filter-batch",
                items=len(items),
            ) as span:
                expected, bytecode_s = fallback_fn(items)
                ok, reason, device_s = True, "clean", 0.0
                try:
                    outputs, device_s = run_device_batch(items)
                    if not _outputs_match(expected, outputs):
                        ok, reason = False, "mismatch"
                except LiquidMetalError as exc:
                    ok, reason = False, type(exc).__name__
                span.set(
                    ok=ok, reason=reason,
                    bytecode_s=bytecode_s, device_s=device_s,
                )
            seconds = bytecode_s + device_s
            self.health.on_probe(device, key, ok, seconds, reason=reason)
            return expected, seconds

        def run_supervised(items):
            demoted: list = []

            def on_demote(record, error):
                demoted.append(record)
                self._record_demotion(artifact, record)

            outputs, seconds = self.supervisor.run(
                lambda: run_device_batch(items),
                task_id=key,
                device=device,
                fallback=(
                    None
                    if fallback_fn is None
                    else lambda: fallback_fn(items)
                ),
                covered_task_ids=covered,
                on_demote=on_demote,
            )
            if demoted:
                # The batch was served by the bytecode replay while
                # the breaker opened; charge it to the quarantine
                # clock so the cool-down can expire.
                self.health.on_fallback(device, key, seconds)
            else:
                self.health.on_success(device, key, seconds)
            return outputs, seconds

        def execute(items: list):
            action = self.health.decide(device, key, covered)
            if fallback_fn is not None:
                if action == RUN_BYTECODE:
                    outputs, seconds = fallback_fn(items)
                    self.health.on_fallback(device, key, seconds)
                    return outputs, seconds
                if action == RUN_PROBE:
                    return shadow_probe(items)
            return run_supervised(items)

        return execute

    def _bytecode_fallback(self, span_tasks):
        """Build a replay function for a substituted span from its
        original bytecode filters: ``fallback(items) -> (outputs,
        seconds)``, matching the device executor contract. Returns
        ``None`` when the span's filters are unknown (no degradation
        possible — the supervisor then raises RetryExhaustedError)."""
        steps = [
            (t.method, t.arity, t.instance)
            for t in span_tasks
            if isinstance(t, FilterTask)
        ]
        if not steps:
            return None

        def fallback(items: list):
            out = list(items)
            cycles = 0
            for method, arity, instance in steps:
                staged = []
                for i in range(0, len(out), arity):
                    call_args = list(out[i : i + arity])
                    if instance is not None:
                        call_args = [instance] + call_args
                    value, used = self.metered_call(method, call_args)
                    cycles += used
                    staged.append(value)
                out = staged
            return out, self.ledger.cycles_to_seconds(cycles)

        return fallback

    def _gpu_filter_executor(self, artifact):
        kernel = artifact.payload

        def execute(items: list):
            with self.trace.span(
                "run.offload",
                kind="filter-batch",
                target=artifact.artifact_id,
                device=GPU,
                items=len(items),
            ) as span:
                # Batched fast path: the whole firing crosses as one
                # 0x09 frame (one header, one fixed crossing cost) in
                # each direction; the ValueArray coerces elements to
                # the kernel's declared parameter kind first.
                in_array = ValueArray(kernel.param_kinds[0], items)
                _, out_record = self.gpu_boundary.to_device_batch(
                    in_array, kind=kernel.param_kinds[0]
                )
                execution = self.gpu.run_filter(kernel, list(in_array))
                out_array = ValueArray(kernel.result_kind, execution.outputs)
                _, back_record = self.gpu_boundary.from_device_batch(
                    serialize_batch(out_array, kind=kernel.result_kind)
                )
                record = OffloadRecord(
                    kind="filter-batch",
                    in_graph=True,
                    target=artifact.artifact_id,
                    device=GPU,
                    items=len(items),
                    kernel_s=execution.timing.kernel_s,
                    transfers=[out_record, back_record],
                    launch_s=execution.timing.launch_s,
                    compute_s=execution.timing.compute_s,
                    memory_s=execution.timing.memory_s,
                )
                self.ledger.add_offload(record)
                self._observe_offload(record)
                seconds = (
                    out_record.total_s
                    + execution.timing.kernel_s
                    + back_record.total_s
                )
                span.set(
                    kernel_s=execution.timing.kernel_s,
                    bytes=out_record.num_bytes + back_record.num_bytes,
                    simulated_s=seconds,
                )
            return list(out_array), seconds

        return execute

    def _fpga_filter_executor(self, artifact):
        bundle = artifact.payload
        clock_hz = min(
            bundle.synthesis.fmax_hz, self.config.fpga_max_clock_hz
        )

        def execute(items: list):
            with self.trace.span(
                "run.offload",
                kind="filter-batch",
                target=artifact.artifact_id,
                device=FPGA,
                items=len(items),
            ) as span:
                in_array = ValueArray(bundle.in_kind, items)
                _, out_record = self.fpga_boundary.to_device_batch(
                    in_array, kind=bundle.in_kind
                )
                simulator = FPGASimulator(clock_hz=clock_hz)
                raw_items = [bundle.encode(v) for v in items]
                result = simulator.run_stream(bundle.elaborate(), raw_items)
                outputs = [bundle.decode(raw) for raw in result.outputs]
                out_array = ValueArray(bundle.out_kind, outputs)
                _, back_record = self.fpga_boundary.from_device_batch(
                    serialize_batch(out_array, kind=bundle.out_kind)
                )
                record = OffloadRecord(
                    kind="filter-batch",
                    in_graph=True,
                    target=artifact.artifact_id,
                    device=FPGA,
                    items=len(items),
                    kernel_s=result.seconds,
                    transfers=[out_record, back_record],
                    compute_s=result.seconds,
                )
                self.ledger.add_offload(record)
                self._observe_offload(record)
                seconds = (
                    out_record.total_s + result.seconds + back_record.total_s
                )
                span.set(
                    cycles=result.cycles,
                    bytes=out_record.num_bytes + back_record.num_bytes,
                    simulated_s=seconds,
                )
            return outputs, seconds

        return execute
