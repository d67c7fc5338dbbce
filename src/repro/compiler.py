"""The Liquid Metal compiler driver (Figure 2).

The public entry point is :class:`CompilerSession`: it owns the
compilation knobs (:class:`CompileOptions`), the observability handle
(the options' tracer and its metrics registry), and — when enabled —
the content-addressed artifact cache
(:class:`repro.backends.artifacts.ArtifactCache`), so repeated
compilations of the same program warm-start from cached artifacts
instead of re-running backend codegen (docs/CACHING.md)::

    session = CompilerSession(CompileOptions(cache=CacheOptions(
        cache_dir=".repro-cache", mode="readwrite")))
    result = session.compile(lime_source)

A compilation runs the frontend (type-check), shallow optimizations,
and bytecode emission for the *entire* program; the backend device
compilers (OpenCL for GPUs, Verilog for FPGAs) each compile the task
sub-graphs they support. The result feeds the runtime's artifact store
for task substitution.

``compile_report`` renders the textual equivalent of the toolchain
overview — which tasks got which artifacts and why others were
excluded (the information the Eclipse IDE plugin surfaces as editor
markers in Figure 4). Pass ``trace=`` to append the recorded span
tree of the compilation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from dataclasses import dataclass, field

from repro.backends.artifacts import (
    ArtifactCache,
    CacheOptions,
    cache_key,
    modeled_compile_s,
)
from repro.backends.bytecode.compiler import compile_module, make_cpu_artifact
from repro.backends.common import Artifact, ArtifactStore, Manifest
from repro.backends.opencl.compiler import compile_gpu
from repro.backends.verilog.compiler import compile_fpga
from repro.ir import build_ir
from repro.ir.fusion import FusionOptions, fuse_module
from repro.lime import analyze
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class CompileOptions:
    """Immutable compilation knobs.

    Frozen so one options object can be shared between cached
    compilations and threads; derive variants with :meth:`replace`.
    ``tracer`` threads a :class:`repro.obs.Tracer` through the driver
    and all three backends (``compile.*`` spans); the default null
    tracer records nothing and costs nothing. ``cache`` is the
    validated artifact-cache sub-options block
    (:class:`repro.backends.artifacts.CacheOptions`); the default is
    ``mode='off'`` — no cache I/O at all.
    """

    enable_gpu: bool = True
    enable_fpga: bool = True
    fpga_pipelined: bool = False
    fpga_max_stage_depth: "int | None" = None
    run_optimizations: bool = True
    tracer: object = NULL_TRACER
    cache: CacheOptions = field(default_factory=CacheOptions)
    #: Task-fusion sub-options (docs/FUSION.md); default mode='off'
    #: leaves the IR exactly as before. Not part of any backend's
    #: cache-key slice — fused IR changes keys via its fingerprint.
    fusion: FusionOptions = field(default_factory=FusionOptions)

    def replace(self, **overrides) -> "CompileOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **overrides)


@dataclass
class CachedBackend:
    """Stands in for a backend compiler object on a warm start.

    A cache hit never constructs the real backend (that is the point),
    but downstream consumers still want ``.artifacts``/``.exclusions``
    — this stub carries them plus the cache entry it came from.
    """

    backend: str
    artifacts: list
    exclusions: list
    entry: object = None

    @property
    def cached(self) -> bool:
        return True


@dataclass
class CompileResult:
    """Everything the compilation produced."""

    source: str
    checked: object           # CheckedProgram
    module: object            # IRModule
    bytecode_artifact: Artifact
    store: ArtifactStore
    gpu_backend: object = None
    fpga_backend: object = None
    compile_options: "CompileOptions | None" = None
    #: Per-backend cache outcome: backend id -> {state: off|hit|miss,
    #: modeled_s, key?, payload_bytes?} (docs/CACHING.md).
    cache_info: dict = field(default_factory=dict)
    #: The applied repro.fusion/1 plan, or None when fusion was off
    #: (docs/FUSION.md).
    fusion_plan: object = None

    @property
    def bytecode_program(self):
        return self.bytecode_artifact.payload

    @property
    def task_graphs(self) -> list:
        return self.module.task_graphs

    @property
    def tracer(self):
        """The tracer the compilation recorded into (null when
        tracing was disabled)."""
        if self.compile_options is None:
            return NULL_TRACER
        return self.compile_options.tracer

    @property
    def warm(self) -> bool:
        """True when every enabled backend loaded from the cache."""
        return bool(self.cache_info) and all(
            info["state"] == "hit" for info in self.cache_info.values()
        )

    @property
    def modeled_compile_s(self) -> float:
        """Modeled seconds the backend compile path cost: codegen
        seconds for cold/off backends, load seconds for warm ones."""
        return sum(
            info.get("modeled_s", 0.0) for info in self.cache_info.values()
        )

    def artifact_texts(self, device: str) -> dict:
        """Generated source text per artifact id for one device."""
        return {
            a.artifact_id: a.text
            for a in self.store.for_device(device)
            if a.text
        }


class CompilerSession:
    """The toolchain entry point: options + cache + observability.

    A session holds everything a sequence of compilations shares — the
    frozen :class:`CompileOptions`, the
    :class:`~repro.backends.artifacts.ArtifactCache` handle (when
    ``options.cache`` enables one), and the obs registry (the options'
    tracer and its metrics/counters). ``compile`` runs the frontend and
    IR lowering, then resolves each enabled backend *through the
    cache*: a hit loads verified artifacts without invoking backend
    codegen at all; a miss compiles and (in ``readwrite`` mode) writes
    the entry back. ``harvest`` pre-populates the cache for the whole
    application suite ahead of time (AOT harvesting).
    """

    def __init__(self, options: "CompileOptions | None" = None, cache=None):
        self.options = options or CompileOptions()
        self.tracer = self.options.tracer
        if cache is not None:
            self.cache = cache
        elif self.options.cache.enabled:
            self.cache = ArtifactCache(self.options.cache)
        else:
            self.cache = None
        # In-memory memo for compile_cached: source digest -> result.
        # One lock serializes compilation across service job threads so
        # N concurrent submissions of one app compile it once and share
        # the (read-only) CompileResult.
        self._memo_lock = threading.Lock()
        self._memo: dict = {}

    @property
    def counters(self):
        return self.tracer.counters

    @property
    def metrics(self):
        """The session's metrics registry (null when tracing is off)."""
        from repro.obs.metrics import NULL_METRICS

        return getattr(self.tracer, "metrics", NULL_METRICS)

    # -- backend resolution ---------------------------------------------

    def _compile_backend(self, backend_id: str, module, tracer):
        """Cold path: run one backend compiler, with its usual span."""
        if backend_id == "bytecode":
            with tracer.span("compile.backend.bytecode") as bc_span:
                cpu_artifact = make_cpu_artifact(module)
                bc_span.set(
                    functions=len(cpu_artifact.payload.functions),
                    artifact_id=cpu_artifact.artifact_id,
                )
            return [cpu_artifact], [], None
        if backend_id == "opencl":
            with tracer.span("compile.backend.opencl") as gpu_span:
                backend = compile_gpu(module, tracer=tracer)
                gpu_span.set(
                    artifacts=len(backend.artifacts),
                    exclusions=len(backend.exclusions),
                )
            return list(backend.artifacts), list(backend.exclusions), backend
        if backend_id == "verilog":
            with tracer.span(
                "compile.backend.verilog",
                pipelined=self.options.fpga_pipelined,
            ) as fpga_span:
                backend = compile_fpga(
                    module,
                    pipelined=self.options.fpga_pipelined,
                    max_stage_depth=self.options.fpga_max_stage_depth,
                    tracer=tracer,
                )
                fpga_span.set(
                    artifacts=len(backend.artifacts),
                    exclusions=len(backend.exclusions),
                )
            return list(backend.artifacts), list(backend.exclusions), backend
        raise ValueError(f"unknown backend id {backend_id!r}")

    def _resolve_backend(self, backend_id: str, module, tracer):
        """One backend through the cache: hit loads, miss compiles
        (and stores in readwrite mode). Returns
        ``(artifacts, exclusions, backend_obj, info)``."""
        info: dict = {"state": "off"}
        key = None
        if self.cache is not None:
            key = cache_key(
                module,
                backend_id,
                self.options,
                self.cache.options.device_family,
            )
            info["key"] = key
            if self.cache.options.readable:
                entry = self.cache.load(backend_id, key, tracer=tracer)
                if entry is not None:
                    info.update(
                        state="hit",
                        modeled_s=entry.modeled_load_s,
                        modeled_cold_s=entry.modeled_compile_s,
                        payload_bytes=entry.payload_bytes,
                    )
                    stub = CachedBackend(
                        backend_id,
                        entry.artifacts,
                        entry.exclusions,
                        entry,
                    )
                    return entry.artifacts, entry.exclusions, stub, info
        artifacts, exclusions, backend = self._compile_backend(
            backend_id, module, tracer
        )
        info["modeled_s"] = modeled_compile_s(backend_id, artifacts)
        if self.cache is not None:
            info["state"] = "miss"
            if self.cache.options.writable:
                entry = self.cache.store(
                    backend_id, key, artifacts, exclusions, tracer=tracer
                )
                info["payload_bytes"] = entry.payload_bytes
        return artifacts, exclusions, backend, info

    # -- compilation ----------------------------------------------------

    def compile(
        self, source: str, filename: str = "<lime>"
    ) -> CompileResult:
        """Run the whole toolchain over Lime source text."""
        options = self.options
        tracer = self.tracer
        counters = tracer.counters
        cache_info: dict = {}
        with tracer.span(
            "compile", filename=filename, source_chars=len(source)
        ) as compile_span:
            with tracer.span("compile.frontend", filename=filename):
                checked = analyze(source, filename)
            with tracer.span(
                "compile.ir", run_optimizations=options.run_optimizations
            ) as ir_span:
                module = build_ir(
                    checked, run_optimizations=options.run_optimizations
                )
                ir_span.set(
                    functions=len(module.functions),
                    task_graphs=len(module.task_graphs),
                )
            fusion_plan = None
            if options.fusion.enabled:
                with tracer.span(
                    "compile.fusion", mode=options.fusion.mode
                ) as fusion_span:
                    fusion_plan = fuse_module(
                        module,
                        options.fusion.mode,
                        plan_path=options.fusion.plan_path,
                        profile=self._load_profile(
                            options.fusion.profile_path
                        ),
                    )
                    map_groups = len(fusion_plan.map_groups)
                    graph_groups = len(fusion_plan.graph_groups)
                    fusion_span.set(
                        map_groups=map_groups,
                        graph_groups=graph_groups,
                        rejected=len(fusion_plan.rejected),
                    )
                    counters.add("fusion.map.fused", map_groups)
                    counters.add("fusion.graph.planned", graph_groups)
                    counters.add(
                        "fusion.plan.rejected", len(fusion_plan.rejected)
                    )
            store = ArtifactStore()
            bc_artifacts, _, _, bc_info = self._resolve_backend(
                "bytecode", module, tracer
            )
            cache_info["bytecode"] = bc_info
            cpu_artifact = bc_artifacts[0]
            store.add(cpu_artifact)
            gpu_backend = None
            fpga_backend = None
            if options.enable_gpu:
                artifacts, exclusions, gpu_backend, info = (
                    self._resolve_backend("opencl", module, tracer)
                )
                cache_info["opencl"] = info
                for artifact in artifacts:
                    store.add(artifact)
                for exclusion in exclusions:
                    store.add_exclusion(exclusion)
            if options.enable_fpga:
                artifacts, exclusions, fpga_backend, info = (
                    self._resolve_backend("verilog", module, tracer)
                )
                cache_info["verilog"] = info
                for artifact in artifacts:
                    store.add(artifact)
                for exclusion in exclusions:
                    store.add_exclusion(exclusion)
            for exclusion in store.exclusions:
                counters.add(
                    f"compile.exclude[{exclusion.device}] {exclusion.reason}"
                )
            states = {info["state"] for info in cache_info.values()}
            if states == {"hit"}:
                store.provenance = "warm"
            elif "hit" in states:
                store.provenance = "mixed"
            else:
                store.provenance = "cold"
            compile_span.set(
                artifacts=len(store),
                exclusions=len(store.exclusions),
                artifact_source=store.provenance,
            )
        return CompileResult(
            source=source,
            checked=checked,
            module=module,
            bytecode_artifact=cpu_artifact,
            store=store,
            gpu_backend=gpu_backend,
            fpga_backend=fpga_backend,
            compile_options=options,
            cache_info=cache_info,
            fusion_plan=fusion_plan,
        )

    def compile_cached(
        self, source: str, filename: str = "<lime>"
    ) -> CompileResult:
        """Memoized :meth:`compile` for long-lived sessions.

        Keyed on a digest of the source text (the filename is labeling
        only), so a co-execution service compiling the same program
        for many jobs pays the toolchain once and every job shares one
        read-only :class:`CompileResult` — runtimes never mutate it.
        Thread-safe.
        """
        key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        with self._memo_lock:
            result = self._memo.get(key)
            if result is None:
                self.counters.add("session.compile.memo_miss")
                result = self._memo[key] = self.compile(
                    source, filename=filename
                )
            else:
                self.counters.add("session.compile.memo_hit")
        return result

    # -- profile / specialization ---------------------------------------

    @staticmethod
    def _load_profile(path: str) -> "dict | None":
        """The repro.profile/1 payload gating fusion, or None."""
        if not path:
            return None
        from repro.errors import ConfigurationError

        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read profile report {path!r}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"profile report {path!r} is not valid JSON: {exc}"
            ) from exc

    def compile_specialized(
        self, artifact: Artifact, guard: str, tracer=None
    ):
        """Compile a specialized variant of one device kernel.

        ``guard`` is the specialization guard digest (the content hash
        of the stable operands the runtime observed —
        :mod:`repro.runtime.specialize`). The variant is the same
        executable payload under a guarded identity
        (``<generic>@spec:<guard>``): bit-identical results by
        construction, with the modeled win coming from skipping
        re-marshaling of guard-resident operands. Content-addressed in
        the artifact cache under backend id ``specialize`` and keyed on
        (generic artifact id, guard, device family), so a service that
        re-observes the same stable operands warm-loads the variant
        instead of re-specializing. Returns ``(artifact, info)`` with
        the usual cache-info dict (docs/FUSION.md).
        """
        tracer = tracer or self.tracer
        base = artifact.manifest
        spec_id = f"{base.artifact_id}@spec:{guard[:12]}"
        info: dict = {"state": "off"}
        key = None
        if self.cache is not None:
            material = json.dumps(
                {
                    "schema": "repro.specialize/1",
                    "artifact": base.artifact_id,
                    "guard": guard,
                    "device_family": self.cache.options.device_family,
                },
                sort_keys=True,
            )
            key = hashlib.sha256(material.encode("utf-8")).hexdigest()
            info["key"] = key
            if self.cache.options.readable:
                entry = self.cache.load("specialize", key, tracer=tracer)
                if entry is not None:
                    info.update(
                        state="hit",
                        modeled_s=entry.modeled_load_s,
                        payload_bytes=entry.payload_bytes,
                    )
                    return entry.artifacts[0], info
        with tracer.span(
            "compile.specialize",
            artifact=base.artifact_id,
            guard=guard[:12],
        ) as spec_span:
            manifest = Manifest(
                artifact_id=spec_id,
                device=base.device,
                task_ids=list(base.task_ids),
                graph_id=base.graph_id,
                source_language=base.source_language,
                properties={
                    **base.properties,
                    "specialized": True,
                    "guard": guard,
                    "generic": base.artifact_id,
                },
            )
            specialized = Artifact(
                manifest=manifest,
                payload=artifact.payload,
                text=artifact.text,
            )
            spec_span.set(artifact_id=spec_id)
        info["modeled_s"] = modeled_compile_s("specialize", [specialized])
        if self.cache is not None:
            info["state"] = "miss"
            if self.cache.options.writable:
                entry = self.cache.store(
                    "specialize", key, [specialized], [], tracer=tracer
                )
                info["payload_bytes"] = entry.payload_bytes
        return specialized, info

    # -- cache operations -----------------------------------------------

    def cache_stats(self) -> dict:
        """The cache's machine-readable stats (raises when disabled)."""
        self._require_cache()
        return self.cache.stats()

    def _require_cache(self):
        from repro.errors import ConfigurationError

        if self.cache is None:
            raise ConfigurationError(
                "this CompilerSession has no artifact cache; pass "
                "CompileOptions(cache=CacheOptions(cache_dir=..., "
                "mode='readwrite'))"
            )

    def harvest(
        self,
        apps: "list | None" = None,
        verify: bool = True,
        pin: bool = False,
    ) -> dict:
        """AOT-harvest the cache for a whole application suite.

        Compiles every named suite app (default: all of
        ``repro.apps.SUITE``) through this session so the cache is
        populated ahead of time, then — with ``verify=True`` — compiles
        each app a second time and confirms every backend warm-starts.
        ``pin=True`` pins every harvested entry against LRU eviction.
        Returns the ``repro.harvest/1`` report.
        """
        from repro.apps import SUITE

        self._require_cache()
        names = sorted(apps) if apps else sorted(SUITE)
        unknown = [n for n in names if n not in SUITE]
        if unknown:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                "unknown suite apps: " + ", ".join(unknown)
            )
        report = {
            "schema": "repro.harvest/1",
            "cache_dir": self.cache.root,
            "device_family": self.cache.options.device_family,
            "apps": {},
            "totals": {
                "modeled_cold_s": 0.0,
                "modeled_warm_s": 0.0,
                "payload_bytes": 0,
                "verified": verify,
                "all_warm": True,
            },
        }
        for name in names:
            spec = SUITE[name]
            with self.tracer.span("harvest.app", app=name):
                result = self.compile(
                    spec.source, filename=f"<{name}.lime>"
                )
            record = {
                "backends": {
                    backend: {
                        "state": info["state"],
                        "modeled_s": info.get("modeled_s", 0.0),
                        "payload_bytes": info.get("payload_bytes", 0),
                    }
                    for backend, info in result.cache_info.items()
                },
                "modeled_cold_s": sum(
                    info.get("modeled_cold_s", info.get("modeled_s", 0.0))
                    for info in result.cache_info.values()
                ),
                "payload_bytes": sum(
                    info.get("payload_bytes", 0)
                    for info in result.cache_info.values()
                ),
            }
            if pin:
                for info in result.cache_info.values():
                    if "key" in info:
                        self.cache.pin(info["key"])
            if verify:
                warm = self.compile(
                    spec.source, filename=f"<{name}.lime>"
                )
                record["warm"] = warm.warm
                record["modeled_warm_s"] = warm.modeled_compile_s
                report["totals"]["all_warm"] &= warm.warm
                report["totals"]["modeled_warm_s"] += (
                    record["modeled_warm_s"]
                )
            report["totals"]["modeled_cold_s"] += record["modeled_cold_s"]
            report["totals"]["payload_bytes"] += record["payload_bytes"]
            report["apps"][name] = record
        totals = report["totals"]
        if verify and totals["modeled_warm_s"] > 0:
            totals["modeled_speedup"] = (
                totals["modeled_cold_s"] / totals["modeled_warm_s"]
            )
        return report


def compile_report(result: CompileResult, trace=None) -> str:
    """Human-readable toolchain summary (Experiment E2).

    ``trace`` appends the recorded compile/run span tree: pass a
    :class:`repro.obs.Tracer`, or ``True`` to use the tracer the
    compilation itself recorded into.
    """
    lines = ["Liquid Metal compilation report", "=" * 34, ""]
    lines.append("task graphs:")
    if not result.task_graphs:
        lines.append("  (none discovered statically)")
    for graph in result.task_graphs:
        lines.append(f"  {graph.graph_id}: {graph.describe()}")
    lines.append("")
    lines.append("artifacts:")
    for artifact in result.store.all():
        manifest = artifact.manifest
        tasks = ", ".join(manifest.task_ids) or "(whole program)"
        lines.append(
            f"  [{manifest.device:8s}] {manifest.artifact_id}"
        )
        lines.append(f"             implements: {tasks}")
    lines.append("")
    lines.append("exclusions:")
    if not result.store.exclusions:
        lines.append("  (none)")
    for exclusion in result.store.exclusions:
        lines.append(
            f"  [{exclusion.device:8s}] {exclusion.task_id}: "
            f"{exclusion.reason}"
        )
    cache_used = any(
        info.get("state") != "off" for info in result.cache_info.values()
    )
    if cache_used:
        lines.append("")
        lines.append(f"artifact source: {result.store.provenance}")
        for backend, info in sorted(result.cache_info.items()):
            modeled = info.get("modeled_s", 0.0) * 1e6
            lines.append(
                f"  [{backend:8s}] {info['state']:4s} "
                f"(modeled {modeled:,.0f}us)"
            )
    tracer = result.tracer if trace is True else trace
    if tracer is not None and getattr(tracer, "enabled", False):
        from repro.obs.export import render_span_tree

        lines.append("")
        lines.append("trace:")
        for line in render_span_tree(tracer).splitlines():
            lines.append("  " + line)
    return "\n".join(lines)
