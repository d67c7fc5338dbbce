"""Command-line interface: the design flow of Section 5 without the
IDE.

Subcommands::

    python -m repro compile  prog.lime            # toolchain report
    python -m repro run      prog.lime C.m 1 2.5  # execute an entry point
    python -m repro trace    mandelbrot           # traced run -> Chrome JSON
    python -m repro profile  mandelbrot           # utilization + critical path
    python -m repro harvest  --cache-dir d/       # AOT-populate the cache
    python -m repro cache    stats --cache-dir d/ # cache maintenance
    python -m repro fuse     gray_pipeline        # plan task fusion
    python -m repro markers  prog.lime            # IDE-style marker view
    python -m repro graphs   prog.lime            # discovered task graphs
    python -m repro disas    prog.lime            # bytecode disassembly
    python -m repro emit-opencl  prog.lime        # generated OpenCL C
    python -m repro emit-verilog prog.lime        # generated Verilog
    python -m repro emit-testbench prog.lime      # self-checking Verilog TB
    python -m repro format   prog.lime            # pretty-print/normalize
    python -m repro build    prog.lime -o out/    # on-disk artifact repo

Every compiling command accepts the artifact-cache flags uniformly
(docs/CACHING.md): ``--cache-dir DIR`` warm-starts backend compilation
from the content-addressed cache (``readwrite`` by default;
``--cache-mode read`` consumes without writing back), ``--no-cache``
disables cache I/O even when a directory is given, and
``--cache-max-bytes`` bounds the on-disk size (LRU eviction).
``harvest`` pre-populates a cache for the whole app suite; ``cache
{stats,purge,verify}`` inspect and maintain one.

``run``, ``trace``, and ``profile`` accept ``--fusion
{off,auto,plan=FILE}`` (docs/FUSION.md): ``off`` forces the honest
unfused baseline (every stage crosses the marshaling boundary on its
own), ``auto`` fuses every legal group at compile time and lets the
runtime substitute whole-span artifacts, and ``plan=FILE`` replays a
saved ``repro.fusion/1`` plan deterministically. ``fuse`` plans fusion
for an app (optionally gated by a ``profile`` report) and saves the
plan. ``--specialize-after N`` opts into runtime kernel
specialization after N stable batches.

``trace`` accepts either a suite app name (see ``repro.apps.SUITE``)
or a Lime file plus ``--entry``; it compiles and runs under a live
tracer, then exports a Chrome ``trace_event`` JSON loadable in
``chrome://tracing`` or https://ui.perfetto.dev.

Argument literals accepted by ``run``: ints (``42``), floats (``2.5``),
booleans (``true``/``false``), bit literals (``110010111b``), and
comma-joined arrays (``ints:1,2,3`` / ``floats:0.5,1.5`` /
``bits:1,0,1``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.backends.artifacts import CacheOptions
from repro.compiler import CompileOptions, CompilerSession, compile_report
from repro.errors import LiquidMetalError
from repro.ir.fusion import FusionOptions


def _parse_value(text: str):
    from repro.values import (
        KIND_FLOAT,
        KIND_INT,
        Bit,
        ValueArray,
        parse_bit_literal,
    )
    from repro.values.base import KIND_BIT

    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("ints:"):
        return ValueArray(
            KIND_INT, [int(x) for x in text[5:].split(",") if x]
        )
    if text.startswith("floats:"):
        return ValueArray(
            KIND_FLOAT, [float(x) for x in text[7:].split(",") if x]
        )
    if text.startswith("bits:"):
        return ValueArray(
            KIND_BIT, [Bit(int(x)) for x in text[5:].split(",") if x]
        )
    if text.endswith("b") and all(c in "01" for c in text[:-1]) and text[:-1]:
        return ValueArray(KIND_BIT, parse_bit_literal(text[:-1]))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    raise SystemExit(f"cannot parse argument {text!r}")


def _cache_options(args) -> "CacheOptions | None":
    """The cache sub-options a command's flags describe, or None when
    caching stays off."""
    if args.no_cache or not args.cache_dir:
        return None
    return CacheOptions(
        cache_dir=args.cache_dir,
        mode=args.cache_mode or "readwrite",
        max_bytes=args.cache_max_bytes,
    )


def _options(args, tracer=None) -> CompileOptions:
    options = CompileOptions(
        enable_gpu=not args.no_gpu,
        enable_fpga=not args.no_fpga,
        fpga_pipelined=args.fpga_pipelined,
    )
    cache = _cache_options(args)
    if cache is not None:
        options = options.replace(cache=cache)
    if tracer is not None:
        options = options.replace(tracer=tracer)
    flag = getattr(args, "fusion", None)
    if flag is not None:
        options = options.replace(fusion=FusionOptions.from_flag(flag))
    return options


def _run_config(args, **extra):
    """The RuntimeConfig that ``--cpu-only``, ``--batch-size`` and the
    fusion/specialization flags describe, plus ``extra`` fields. With
    no ``--fusion`` the runtime keeps its historical default (``auto``:
    substitute any multi-stage artifact); ``off`` makes the runtime
    reject fused spans too, so the baseline is honestly unfused;
    ``plan=FILE`` restricts fused substitutions to the spans the
    replayed plan sanctions (the plan object itself rides in on
    ``CompileResult.fusion_plan``)."""
    from repro.runtime import (
        RuntimeConfig,
        SpecializationPolicy,
        SubstitutionPolicy,
    )

    if args.fusion is not None:
        extra["fusion"] = FusionOptions.from_flag(args.fusion).mode
    if args.specialize_after is not None:
        extra["specialize"] = SpecializationPolicy(
            enabled=True, observe_batches=args.specialize_after
        )
    return RuntimeConfig(
        policy=SubstitutionPolicy(use_accelerators=not args.cpu_only),
        batch_size=args.batch_size,
        **extra,
    )


def _session(args, tracer=None) -> CompilerSession:
    return CompilerSession(_options(args, tracer=tracer))


def _compiled(args):
    with open(args.file) as f:
        source = f.read()
    return _session(args).compile(source, filename=args.file)


def _cmd_compile(args) -> int:
    print(compile_report(_compiled(args)))
    return 0


def _cmd_run(args) -> int:
    from repro.runtime import Runtime

    runtime = Runtime(_compiled(args), _run_config(args))
    values = [_parse_value(a) for a in args.args]
    outcome = runtime.run(args.entry, values)
    if outcome.output:
        sys.stdout.write(outcome.output)
    if outcome.value is not None:
        print(f"result: {outcome.value!r}")
    if args.profile:
        print("method profile (inclusive cycles):")
        for name, calls, cycles in runtime.profile():
            print(f"  {cycles:>12d}  {calls:>8d} calls  {name}")
    if args.time:
        summary = outcome.ledger.summary()
        print(
            f"simulated time: {summary['total_s'] * 1e6:.2f} us "
            f"(host {summary['host_s'] * 1e6:.2f} us, "
            f"offloads {summary['offload_s'] * 1e6:.2f} us, "
            f"graphs {summary['graph_s'] * 1e6:.2f} us)"
        )
    return 0


def _load_target(target: str):
    """Load a CLI target (a ``.lime`` file or a suite app name) as
    ``(source, filename, name, spec)``, with ``spec`` None for a file;
    ``None`` after printing an error."""
    if os.path.exists(target) or target.endswith(".lime"):
        with open(target) as f:
            source = f.read()
        name = os.path.splitext(os.path.basename(target))[0]
        return source, target, name, None
    from repro.apps import SUITE

    if target not in SUITE:
        known = ", ".join(sorted(SUITE))
        print(
            f"error: {target!r} is neither a file nor a suite "
            f"app (known apps: {known})",
            file=sys.stderr,
        )
        return None
    spec = SUITE[target]
    return spec.source, f"<{spec.name}.lime>", spec.name, spec


def _resolve_target(args):
    """Resolve a CLI target plus ``--entry``/args into
    ``(source, filename, name, entry, values)``; ``None`` after
    printing an error. A suite app runs its default workload unless
    ``--entry`` overrides it; a file requires ``--entry``."""
    is_file = os.path.exists(args.target) or args.target.endswith(".lime")
    if is_file and not args.entry:
        print(
            "error: a .lime file target requires --entry",
            file=sys.stderr,
        )
        return None
    loaded = _load_target(args.target)
    if loaded is None:
        return None
    source, filename, name, spec = loaded
    if args.entry:
        entry, values = args.entry, [_parse_value(a) for a in args.args]
    else:
        entry, values = spec.default_args()
    return source, filename, name, entry, values


def _emit_report(args, kind, report, validate, render, sort_keys=True):
    """The shared tail of the report commands: validate ``report``,
    write it to ``--out``, then print it as ``--json`` or rendered
    text. Returns False (after printing the problems) when the report
    fails validation."""
    problems = validate(report)
    if problems:
        print(f"error: {kind} failed validation:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return False
    text = json.dumps(report, indent=2, sort_keys=sort_keys)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if args.json:
        print(text)
    else:
        print(render(report))
        if args.out:
            print(f"\nwrote {args.out}")
    return True


def _traced_run(args, tracer):
    """Compile and run one CLI target under ``tracer`` with the
    placement, scheduler, batch and fusion flags; returns
    ``(name, entry, outcome)`` or None after printing an error."""
    from repro.runtime import Runtime

    resolved = _resolve_target(args)
    if resolved is None:
        return None
    source, filename, name, entry, values = resolved
    compiled = _session(args, tracer=tracer).compile(source, filename=filename)
    config = _run_config(args, scheduler=args.scheduler, tracer=tracer)
    return name, entry, Runtime(compiled, config).run(entry, values)


def _cmd_trace(args) -> int:
    """Compile and run one app under tracing; export Chrome trace JSON."""
    from repro.obs import Tracer
    from repro.obs.export import (
        render_span_tree,
        validate_trace_events,
        write_chrome_trace,
        write_json_lines,
    )

    tracer = Tracer()
    ran = _traced_run(args, tracer)
    if ran is None:
        return 2
    name, entry, outcome = ran
    out_path = args.out or f"{name}.trace.json"
    payload = write_chrome_trace(tracer, out_path, process_name=name)
    problems = validate_trace_events(payload)
    if problems:
        print("error: exported trace failed validation:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.jsonl:
        write_json_lines(tracer, args.jsonl)
    if outcome.output:
        sys.stdout.write(outcome.output)
    print(f"entry: {entry}")
    print(
        f"simulated time: {outcome.seconds * 1e6:.2f} us; "
        f"{len(tracer.spans)} spans, "
        f"{len(tracer.counters)} counters"
    )
    if args.tree:
        print()
        print(render_span_tree(tracer))
    counters = tracer.counters.snapshot()
    if counters:
        print()
        print("counters:")
        for cname, value in counters.items():
            print(f"  {value:>12g}  {cname}")
    print(
        f"\nwrote {out_path} "
        f"({len(payload['traceEvents'])} events; load it in "
        "chrome://tracing or https://ui.perfetto.dev)"
    )
    if args.jsonl:
        print(f"wrote {args.jsonl}")
    return 0


def _cmd_profile(args) -> int:
    """Compile and run one app under tracing, then build and print the
    structured profile report (docs/PROFILING.md)."""
    from repro.obs import Tracer
    from repro.obs.profile import (
        build_profile,
        compare_profiles,
        render_profile,
        validate_profile,
    )

    tracer = Tracer()
    ran = _traced_run(args, tracer)
    if ran is None:
        return 2
    name, entry, outcome = ran
    report = build_profile(
        tracer,
        ledger=outcome.ledger,
        app=name,
        entry=entry,
        scheduler=args.scheduler,
    ).to_json()
    if not _emit_report(
        args, "profile", report, validate_profile, render_profile,
        sort_keys=False,
    ):
        return 1

    if args.baseline:
        try:
            with open(args.baseline) as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot load baseline {args.baseline!r}: {exc}",
                file=sys.stderr,
            )
            return 2
        regressions = compare_profiles(
            report, baseline, threshold=args.threshold
        )
        if regressions:
            print(
                f"\nREGRESSIONS vs {args.baseline} "
                f"(threshold {args.threshold:.0%}):",
                file=sys.stderr,
            )
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(
            f"\nno regressions vs {args.baseline} "
            f"(threshold {args.threshold:.0%})"
        )
    return 0


def _fault_plan_dirs():
    """Candidate directories holding the bundled example fault plans:
    the working tree first, then relative to the installed package."""
    here = os.path.dirname(os.path.abspath(__file__))
    return [
        os.path.join("examples", "fault_plans"),
        os.path.normpath(
            os.path.join(here, "..", "..", "examples", "fault_plans")
        ),
    ]


def _list_fault_plans() -> int:
    """Print every bundled example fault plan with its seed, spec
    summary, and comment, so ``faults --plan`` / ``recover`` users can
    discover them without grepping the tree."""
    from repro.runtime import load_fault_plan

    for directory in _fault_plan_dirs():
        if not os.path.isdir(directory):
            continue
        names = sorted(
            n for n in os.listdir(directory) if n.endswith(".json")
        )
        if not names:
            continue
        print(f"bundled fault plans ({directory}):")
        for fname in names:
            path = os.path.join(directory, fname)
            try:
                plan = load_fault_plan(path)
            except LiquidMetalError as exc:
                print(f"  {fname}: INVALID ({exc})")
                continue
            kinds = ",".join(
                sorted({spec.error for spec in plan.specs})
            )
            print(
                f"  {fname}: seed={plan.seed}, {len(plan)} spec(s), "
                f"kind(s): {kinds}"
            )
            with open(path) as f:
                raw = json.load(f)
            for spec in raw.get("faults", []):
                comment = spec.get("comment")
                if comment:
                    print(f"      {comment}")
        return 0
    print("error: no examples/fault_plans directory found", file=sys.stderr)
    return 2


def _fault_plan(args, default=None):
    """The ``--plan`` fault plan (else ``default``), reseeded by
    ``--seed`` when given."""
    from repro.runtime import FaultPlan, load_fault_plan

    plan = load_fault_plan(args.plan) if args.plan else default
    if plan is not None and args.seed is not None:
        plan = FaultPlan(plan.specs, seed=args.seed)
    return plan


def _cpu_reference(compiled, args, entry, values):
    """The accelerator-free run: the pure-bytecode answer a degraded
    run must reproduce exactly."""
    from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy

    return Runtime(
        compiled,
        RuntimeConfig(
            policy=SubstitutionPolicy(use_accelerators=False),
            scheduler=args.scheduler,
        ),
    ).run(entry, values)


def _same_result(outcome, reference) -> bool:
    """Same output and return value as the reference run."""
    if outcome.output != reference.output:
        return False
    left, right = outcome.value, reference.value
    if left is None and right is None:
        return True
    try:
        return bool(left == right)
    except Exception:
        return repr(left) == repr(right)


def _cmd_faults(args) -> int:
    """Run an app under a fault plan and verify graceful degradation:
    the faulted run must produce output identical to a cpu-only run,
    with the recovery visible in the counters."""
    from repro.errors import ProcessCrash
    from repro.obs import Tracer
    from repro.runtime import (
        RetryPolicy,
        Runtime,
        RuntimeConfig,
        kill_all_devices_plan,
    )

    if args.list_plans:
        return _list_fault_plans()
    if args.target is None:
        print(
            "error: a target app is required (or use --list-plans)",
            file=sys.stderr,
        )
        return 2
    resolved = _resolve_target(args)
    if resolved is None:
        return 2
    source, filename, name, entry, values = resolved
    plan = _fault_plan(args, default=kill_all_devices_plan())

    compiled = _session(args).compile(source, filename=filename)
    reference = _cpu_reference(compiled, args, entry, values)

    tracer = Tracer()
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            scheduler=args.scheduler,
            tracer=tracer,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            batch_size=args.batch_size,
        ),
    )
    try:
        outcome = runtime.run(entry, values)
    except ProcessCrash as crash:
        print(
            f"process crash (simulated) at device consult "
            f"#{crash.call_index}: {crash}",
            file=sys.stderr,
        )
        print(
            "a bare runtime has no journal to recover from — run the "
            "same schedule under `python -m repro recover` to see "
            "crash-consistent restart (docs/RECOVERY.md)",
            file=sys.stderr,
        )
        return 1

    injected = runtime.faults.fired()
    demotions = len(runtime.demotion_log)
    counters = tracer.counters.snapshot()
    print(f"app: {name}  entry: {entry}")
    print(
        f"plan: {args.plan or '<kill-all-devices>'} "
        f"(seed={plan.seed}, {len(plan)} spec(s))"
    )
    print(
        f"faults injected: {injected}; "
        f"retries: {counters.get('retry.attempt', 0):g}; "
        f"demotions to bytecode: {demotions}"
    )
    resilience = {
        k: v
        for k, v in counters.items()
        if k.startswith(("fault.", "retry.", "demotion."))
    }
    if resilience:
        print("counters:")
        for cname, value in resilience.items():
            print(f"  {value:>12g}  {cname}")
    for record in runtime.demotion_log:
        print(
            f"  demoted {record.task_id} ({record.device}) after "
            f"{record.attempts} attempt(s): {record.error}"
        )

    ok = True
    if not _same_result(outcome, reference):
        print(
            "FAIL: degraded output differs from the cpu-only reference",
            file=sys.stderr,
        )
        ok = False
    else:
        print("output matches the cpu-only reference")
    if demotions < args.require_demotions:
        print(
            f"FAIL: expected >= {args.require_demotions} demotion(s), "
            f"saw {demotions}",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def _cmd_health(args) -> int:
    """Run an app under a fault plan with circuit-breaker recovery
    enabled and print the device-health report (``repro.health/1``):
    per-span breaker states, every transition stamped with simulated
    time, probe/re-promotion tallies. The degraded run must still
    produce output identical to a cpu-only reference (shadow probes
    keep bytecode authoritative), so the command fails when outputs
    diverge — or when fewer re-promotions happened than
    ``--require-repromotions`` demands."""
    from repro.obs import Tracer
    from repro.runtime import (
        HealthPolicy,
        RetryPolicy,
        Runtime,
        RuntimeConfig,
        render_health_report,
        validate_health_report,
    )

    resolved = _resolve_target(args)
    if resolved is None:
        return 2
    source, filename, name, entry, values = resolved
    plan = _fault_plan(args)

    compiled = _session(args).compile(source, filename=filename)
    # Probes keep bytecode authoritative, so the health-mediated run
    # must reproduce the cpu-only answer exactly.
    reference = _cpu_reference(compiled, args, entry, values)

    tracer = Tracer()
    health = HealthPolicy(
        window=args.window,
        failure_threshold=args.failure_threshold,
        cooldown_s=(
            None if args.cooldown_us is None else args.cooldown_us * 1e-6
        ),
        probe_batches=args.probe_batches,
        quarantine_multiplier=args.quarantine,
        max_cooldown_s=args.max_cooldown_us * 1e-6,
    )
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            scheduler=args.scheduler,
            tracer=tracer,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            health=health,
            batch_size=args.batch_size,
        ),
    )
    outcome = runtime.run(entry, values)
    report = runtime.health.to_report(
        app=name, entry=entry, scheduler=args.scheduler
    )
    if not _emit_report(
        args, "health report", report, validate_health_report,
        render_health_report,
    ):
        return 1

    ok = True
    if not _same_result(outcome, reference):
        print(
            "FAIL: output differs from the cpu-only reference",
            file=sys.stderr,
        )
        ok = False
    else:
        # --json consumers pipe stdout straight into a JSON parser;
        # keep the status line off it.
        print(
            "output matches the cpu-only reference",
            file=sys.stderr if args.json else sys.stdout,
        )
    repromotions = report["totals"]["repromotions"]
    if repromotions < args.require_repromotions:
        print(
            f"FAIL: expected >= {args.require_repromotions} "
            f"re-promotion(s), saw {repromotions}",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def _cmd_serve(args) -> int:
    """Run the deterministic multi-tenant service driver: N tenants
    (weights cycling 1,2,3) submit jobs concurrently through the
    long-lived co-execution service — admission control, device-pool
    leasing, shared breakers — then the service drains and prints the
    ``repro.service/1`` report. With ``--verify`` every job is
    compared bit-identically against a standalone fault-free run."""
    from repro.runtime import load_fault_plan
    from repro.service import (
        render_service_report,
        run_service_driver,
        validate_service_report,
    )

    plan = load_fault_plan(args.plan) if args.plan else None
    report = run_service_driver(
        tenants=args.tenants,
        jobs_per_tenant=args.jobs_per_tenant,
        gpu_slots=args.gpu_slots,
        fpga_slots=args.fpga_slots,
        max_running=args.max_running,
        max_queue_depth=args.max_queue_depth,
        scheduler=args.scheduler,
        fault_plan=plan,
        verify=args.verify,
    )

    def render(report):
        text = render_service_report(report)
        if not args.verify:
            return text
        driver = report.get("driver", {})
        return text + (
            "\nverify: {n} job(s) bit-identical to standalone runs "
            "({t})".format(
                n=driver.get("verified_jobs", 0),
                t=(
                    "output, value, simulated seconds"
                    if driver.get("timing_checked")
                    else "output and value; timing exempt under "
                    "fault plan"
                ),
            )
        )

    if not _emit_report(
        args, "service report", report, validate_service_report, render
    ):
        return 1
    totals = report.get("totals", {})
    if totals.get("failed", 0):
        print(
            f"FAIL: {totals['failed']} job(s) failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_recover(args) -> int:
    """Run the crash/restart recovery driver: submit jobs against a
    journaled service under a seeded crash schedule, crash-and-restart
    in a loop until a pass converges, then verify every job's result
    digest is bit-identical to an uninterrupted baseline and print the
    ``repro.recover/1`` report (docs/RECOVERY.md)."""
    import tempfile

    from repro.service import (
        render_recover_report,
        run_recovery_driver,
        validate_recover_report,
    )

    def drive(journal_dir):
        return run_recovery_driver(
            journal_dir,
            jobs=args.jobs,
            scheduler=args.scheduler,
            seed=args.seed,
            crash_call=args.crash_call,
            checkpoint_interval=args.checkpoint_interval,
            use_checkpoints=not args.no_checkpoints,
            max_restarts=args.max_restarts,
        )

    if args.journal_dir:
        report = drive(args.journal_dir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-recover-") as tmp:
            report = drive(os.path.join(tmp, "journal"))
    if not _emit_report(
        args, "recovery report", report, validate_recover_report,
        render_recover_report,
    ):
        return 1
    driver = report.get("driver", {})
    if driver.get("verified_jobs", 0) != args.jobs:
        print(
            f"FAIL: {driver.get('verified_jobs', 0)}/{args.jobs} "
            "job(s) verified bit-identical",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fuse(args) -> int:
    """Plan (and apply) task fusion for one app and print or save the
    ``repro.fusion/1`` plan (docs/FUSION.md). With ``--profile`` the
    pass only fuses groups the profile report shows actually offload;
    the rejects are recorded in the plan with their reasons."""
    from repro.ir.fusion import render_fused_ir

    loaded = _load_target(args.target)
    if loaded is None:
        return 2
    source, filename, _, _ = loaded
    options = _options(args).replace(
        fusion=FusionOptions(
            mode="auto", profile_path=args.profile or ""
        )
    )
    compiled = CompilerSession(options).compile(source, filename=filename)
    plan = compiled.fusion_plan
    if args.out:
        plan.save(args.out)
    if args.json:
        sys.stdout.write(plan.dumps())
    else:
        print(plan.describe())
        if args.ir:
            print()
            print(render_fused_ir(compiled.module, plan))
        if args.out:
            print(f"\nwrote {args.out}")
    return 0


def _cmd_format(args) -> int:
    from repro.lime import parse, pretty

    with open(args.file) as f:
        source = f.read()
    sys.stdout.write(pretty(parse(source, args.file)))
    return 0


def _cmd_markers(args) -> int:
    from repro.ide import annotate_source, exclusion_notes

    compiled = _compiled(args)
    print(annotate_source(compiled))
    print("\nexclusions:")
    print(exclusion_notes(compiled))
    return 0


def _cmd_graphs(args) -> int:
    compiled = _compiled(args)
    if not compiled.task_graphs:
        print("(no task graphs discovered statically)")
        return 0
    for graph in compiled.task_graphs:
        print(f"{graph.graph_id}: {graph.describe()}")
        for stage in graph.stages:
            artifacts = [
                a.device
                for a in compiled.store.for_task(stage.task_id)
            ]
            print(
                f"    {stage.task_id}  "
                f"[{', '.join(artifacts) or 'bytecode'}]"
            )
    return 0


def _cmd_testbench(args) -> int:
    from repro.backends.verilog import generate_testbench

    compiled = _compiled(args)
    artifacts = compiled.store.for_device("fpga")
    if not artifacts:
        print("(no fpga artifacts)", file=sys.stderr)
        return 1
    stimulus = _parse_value(args.inputs)
    for artifact in artifacts:
        bundle = artifact.payload
        raw = [bundle.encode(v) for v in stimulus]
        print(f"// ===== testbench for {artifact.artifact_id} =====")
        print(generate_testbench(bundle, raw))
    return 0


def _cmd_build(args) -> int:
    from repro.backends.repository import save_repository

    compiled = _compiled(args)
    index_path = save_repository(compiled.store, args.output)
    print(
        f"wrote {len(compiled.store)} artifacts to {args.output} "
        f"(index: {index_path})"
    )
    return 0


def _cmd_disas(args) -> int:
    compiled = _compiled(args)
    print(compiled.bytecode_program.disassemble())
    return 0


def _emit(args, device: str) -> int:
    compiled = _compiled(args)
    texts = compiled.artifact_texts(device)
    if not texts:
        print(f"(no {device} artifacts)", file=sys.stderr)
        return 1
    for artifact_id, text in texts.items():
        print(f"// ===== {artifact_id} =====")
        print(text)
        print()
    return 0


def _cmd_harvest(args) -> int:
    """AOT-populate an artifact cache for the app suite (docs/CACHING.md)."""
    if _cache_options(args) is None:
        print("error: harvest requires --cache-dir", file=sys.stderr)
        return 2
    session = _session(args)
    report = session.harvest(
        apps=args.apps or None,
        verify=not args.no_verify,
        pin=args.pin,
    )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"harvested {len(report['apps'])} apps into {report['cache_dir']}")
        header = f"{'app':<22} {'states':<22} {'bytes':>10}"
        if not args.no_verify:
            header += f" {'warm':>5}"
        print(header)
        for name, record in sorted(report["apps"].items()):
            states = ",".join(
                f"{backend}:{info['state']}"
                for backend, info in sorted(record["backends"].items())
            )
            line = f"{name:<22} {states:<22} {record['payload_bytes']:>10}"
            if not args.no_verify:
                line += f" {'yes' if record.get('warm') else 'NO':>5}"
            print(line)
        totals = report["totals"]
        print(
            f"totals: {totals['payload_bytes']} payload bytes, modeled "
            f"cold {totals['modeled_cold_s'] * 1e3:.2f} ms"
            + (
                f", warm {totals['modeled_warm_s'] * 1e3:.2f} ms "
                f"({totals.get('modeled_speedup', 0.0):.0f}x)"
                if not args.no_verify
                else ""
            )
        )
    if not args.no_verify and not report["totals"]["all_warm"]:
        print("error: harvest verify found non-warm apps", file=sys.stderr)
        return 1
    return 0


def _maintenance_cache(args, mode: str):
    from repro.backends.artifacts import ArtifactCache

    return ArtifactCache(CacheOptions(cache_dir=args.cache_dir, mode=mode))


def _cmd_cache_stats(args) -> int:
    stats = _maintenance_cache(args, "read").stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache: {stats['cache_dir']} ({stats['schema']})")
    print(
        f"  entries: {stats['entry_count']}  total bytes: "
        f"{stats['total_bytes']}  pinned: {len(stats['pinned'])}"
        + (
            f"  max bytes: {stats['max_bytes']}"
            if stats["max_bytes"] is not None
            else ""
        )
    )
    for backend, row in sorted(stats["backends"].items()):
        print(
            f"  {backend:<10} {row['entries']:>4} entries  "
            f"{row['artifacts']:>4} artifacts  {row['bytes']:>10} bytes"
        )
    return 0


def _cmd_cache_purge(args) -> int:
    count = _maintenance_cache(args, "readwrite").purge()
    print(f"purged {count} entries from {args.cache_dir}")
    return 0


def _cmd_cache_verify(args) -> int:
    problems = _maintenance_cache(args, "readwrite").verify(
        delete_corrupt=args.delete_corrupt
    )
    if not problems:
        print("cache verify: all entries intact")
        return 0
    for key, problem in problems:
        print(f"corrupt {key}: {problem}", file=sys.stderr)
    if args.delete_corrupt:
        print(
            f"deleted {len(problems)} corrupt entries "
            "(next compile repopulates them)",
            file=sys.stderr,
        )
    return 1


def _resolve_snapshot(ref, changelog_dir):
    """A snapshot reference is either a JSON file path or a changelog
    index: positive ``N`` matches the ``seq`` field, negative counts
    from the end of the series (``-1`` = latest)."""
    from repro.obs.trajectory import changelog_entries

    if os.path.isfile(ref):
        with open(ref) as fh:
            return ref, json.load(fh)
    try:
        index = int(ref)
    except ValueError:
        raise FileNotFoundError(
            f"snapshot {ref!r}: not a file and not a changelog index"
        )
    entries = changelog_entries(changelog_dir)
    if not entries:
        raise FileNotFoundError(
            f"no snapshots under {changelog_dir!r} to resolve {ref!r}"
        )
    if index < 0:
        if -index > len(entries):
            raise FileNotFoundError(
                f"changelog index {ref}: only {len(entries)} snapshot(s)"
            )
        return entries[index]
    for path, payload in entries:
        if payload.get("seq") == index:
            return path, payload
    raise FileNotFoundError(
        f"changelog index {ref}: no snapshot with seq={index} "
        f"under {changelog_dir!r}"
    )


def _cmd_bench_collect(args) -> int:
    from repro.obs.trajectory import (
        collect_snapshot,
        save_snapshot,
        validate_trajectory,
    )

    try:
        snapshot = collect_snapshot(
            args.bench_dir,
            label=args.label,
            run_profiles=not args.no_profiles,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = validate_trajectory(snapshot)
    if problems:
        for problem in problems:
            print(f"invalid snapshot: {problem}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        path = args.out
    else:
        path = save_snapshot(snapshot, args.changelog_dir)
    benches = snapshot["benches"]
    n_metrics = sum(len(b["metrics"]) for b in benches.values())
    print(
        f"collected {len(benches)} bench report(s), {n_metrics} "
        f"metric(s), {len(snapshot['profiles'])} profile(s) "
        f"-> {path}"
    )
    return 0


def _cmd_bench_diff(args) -> int:
    from repro.obs.trajectory import diff_snapshots, render_diff

    _, baseline = _resolve_snapshot(args.baseline, args.changelog_dir)
    _, current = _resolve_snapshot(args.current, args.changelog_dir)
    diff = diff_snapshots(baseline, current, threshold_pct=args.threshold)
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff, show_within=args.show_within))
    return 0


def _cmd_bench_trend(args) -> int:
    from repro.obs.trajectory import (
        changelog_entries,
        collect_snapshot,
        render_trend,
        trend_report,
    )

    snapshots = [payload for _, payload in
                 changelog_entries(args.changelog_dir)]
    if not args.committed_only:
        try:
            snapshots.append(
                collect_snapshot(
                    args.bench_dir,
                    label="(working tree)",
                    run_profiles=False,
                    seq=len(snapshots) + 1,
                )
            )
        except FileNotFoundError:
            pass
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if not snapshots:
        print(
            f"no snapshots under {args.changelog_dir!r} and no bench "
            f"reports under {args.bench_dir!r}; run the benchmark "
            "suite, then `python -m repro bench collect`",
            file=sys.stderr,
        )
        return 1
    report = trend_report(snapshots)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_trend(report, metric_filter=args.metric))
    return 0


def _cmd_bench_gate(args) -> int:
    from repro.obs.trajectory import (
        add_waivers,
        changelog_entries,
        gate_snapshots,
    )

    if args.bless and not args.reason:
        print(
            "bench gate --bless requires --reason (the annotation is "
            "the point)",
            file=sys.stderr,
        )
        return 1
    if bool(args.baseline) != bool(args.current):
        print(
            "bench gate: give both --baseline and --current, or "
            "neither (default: the last two changelog snapshots)",
            file=sys.stderr,
        )
        return 1
    if args.baseline and args.current:
        _, baseline = _resolve_snapshot(args.baseline, args.changelog_dir)
        cur_path, current = _resolve_snapshot(
            args.current, args.changelog_dir
        )
    else:
        entries = changelog_entries(args.changelog_dir)
        if len(entries) < 2:
            print(
                f"bench gate: {len(entries)} snapshot(s) under "
                f"{args.changelog_dir!r}; need two for a comparison "
                "-- skipping (collect more history first)"
            )
            return 0
        (_, baseline), (cur_path, current) = entries[-2], entries[-1]
    result = gate_snapshots(
        current, baseline, threshold_pct=args.threshold
    )
    if args.bless and result["regressions"]:
        metrics = [m.split(":", 1)[0] for m in result["regressions"]]
        add_waivers(cur_path, metrics, args.reason or "")
        _, current = _resolve_snapshot(cur_path, args.changelog_dir)
        result = gate_snapshots(
            current, baseline, threshold_pct=args.threshold
        )
        print(
            f"blessed {len(metrics)} regression(s) into {cur_path}: "
            f"{args.reason}"
        )
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(
            f"bench gate: {result['baseline']} -> {result['current']}, "
            f"{result['checked']} modeled metric(s) checked at "
            f"{result['threshold_pct']:g}%"
        )
        for line in result["waived"]:
            print(f"  ~ {line}")
        for line in result["regressions"]:
            print(f"  ✗ {line}", file=sys.stderr)
    if result["regressions"]:
        print(
            f"bench gate: FAILED ({len(result['regressions'])} "
            "regression(s); see docs/TRAJECTORY.md for how to bless "
            "an intentional one)",
            file=sys.stderr,
        )
        return 1
    print("bench gate: OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Liquid Metal compiler and runtime (DAC 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cache_flags(p):
        p.add_argument(
            "--cache-dir",
            help="content-addressed artifact cache directory; warm-starts "
            "backend compilation (docs/CACHING.md)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="ignore --cache-dir and compile cold",
        )
        p.add_argument(
            "--cache-mode",
            choices=("read", "readwrite"),
            default=None,
            help="read = consume hits without writing misses back "
            "(default: readwrite)",
        )
        p.add_argument(
            "--cache-max-bytes",
            type=int,
            default=None,
            help="LRU-evict unpinned entries beyond this payload size",
        )

    def device_flags(p):
        p.add_argument("--no-gpu", action="store_true")
        p.add_argument("--no-fpga", action="store_true")
        p.add_argument("--fpga-pipelined", action="store_true")

    def cpu_only_flag(p):
        p.add_argument("--cpu-only", action="store_true")

    def scheduler_flag(p, default="threaded"):
        p.add_argument(
            "--scheduler",
            choices=("threaded", "sequential"),
            default=default,
        )

    def target_flags(p, example="mandelbrot", nargs=None, entry=True):
        p.add_argument(
            "target",
            nargs=nargs,
            help=f"suite app name (e.g. {example}) or a Lime source file",
        )
        if entry:
            p.add_argument(
                "--entry",
                help="qualified entry point (required for .lime files; "
                "overrides the suite default workload)",
            )
            p.add_argument(
                "args", nargs="*", help="argument literals for --entry"
            )

    def report_flags(p):
        p.add_argument(
            "--json",
            action="store_true",
            help="print the machine-readable JSON report instead of text",
        )
        p.add_argument(
            "-o",
            "--out",
            help="also write the JSON report to this path",
        )

    def common(p):
        p.add_argument("file", help="Lime source file")
        device_flags(p)
        cache_flags(p)

    def batch_size_option(p):
        p.add_argument(
            "--batch-size",
            type=int,
            default=4096,
            help="FIFO elements marshaled per host/device crossing "
            "(1 = per-element slow path; see docs/PERFORMANCE.md)",
        )

    def fusion_flags(p):
        p.add_argument(
            "--fusion",
            default=None,
            metavar="{off,auto,plan=FILE}",
            help="task fusion: off = honest unfused baseline (every "
            "stage crosses the boundary alone), auto = fuse every "
            "legal group, plan=FILE = replay a saved repro.fusion/1 "
            "plan (docs/FUSION.md); default keeps historical behavior",
        )
        p.add_argument(
            "--specialize-after",
            type=int,
            default=None,
            metavar="N",
            help="recompile a shape/constant-specialized kernel "
            "variant after N consecutive stable batches "
            "(docs/FUSION.md); off by default",
        )

    p = sub.add_parser("compile", help="compile and print the report")
    common(p)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("run", help="compile and run an entry point")
    common(p)
    p.add_argument("entry", help="qualified entry, e.g. Bitflip.taskFlip")
    p.add_argument("args", nargs="*", help="argument literals")
    cpu_only_flag(p)
    p.add_argument("--time", action="store_true", help="print simulated time")
    p.add_argument(
        "--profile",
        action="store_true",
        help="print the per-method cycle profile",
    )
    batch_size_option(p)
    fusion_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "trace",
        help="run one app under tracing and export Chrome trace JSON",
    )
    target_flags(p)
    device_flags(p)
    cpu_only_flag(p)
    scheduler_flag(p)
    p.add_argument(
        "-o",
        "--out",
        help="Chrome trace output path (default: <app>.trace.json)",
    )
    p.add_argument("--jsonl", help="also write a JSON-lines trace here")
    p.add_argument(
        "--tree",
        action="store_true",
        help="print the span tree to stdout as well",
    )
    cache_flags(p)
    batch_size_option(p)
    fusion_flags(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "profile",
        help="run one app under tracing and print a structured "
        "profile report (utilization, queues, critical path)",
    )
    target_flags(p)
    device_flags(p)
    cpu_only_flag(p)
    scheduler_flag(p)
    report_flags(p)
    p.add_argument(
        "--baseline",
        help="baseline profile JSON to compare against; exits non-zero "
        "when a deterministic metric regresses beyond --threshold",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="regression threshold for --baseline (default 0.10 = 10%%)",
    )
    cache_flags(p)
    batch_size_option(p)
    fusion_flags(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "faults",
        help="run an app under a fault plan and verify graceful "
        "degradation to bytecode",
    )
    # Added before the target so --help lists it first among options.
    p.add_argument(
        "--list-plans",
        action="store_true",
        help="list the bundled example fault plans "
        "(examples/fault_plans/*.json) and exit",
    )
    target_flags(p, nargs="?")
    device_flags(p)
    p.add_argument(
        "--plan",
        help="fault plan JSON file (default: kill every device call)",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="override the plan's RNG seed"
    )
    scheduler_flag(p)
    p.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="retry attempts per device call before demotion",
    )
    p.add_argument(
        "--require-demotions",
        type=int,
        default=0,
        help="fail unless at least this many demotions were recorded",
    )
    cache_flags(p)
    batch_size_option(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "health",
        help="run an app with circuit-breaker recovery enabled and "
        "print the device-health report (breaker transitions, shadow "
        "probes, re-promotions)",
    )
    target_flags(p, example="gray_pipeline")
    device_flags(p)
    p.add_argument(
        "--plan",
        help="fault plan JSON file (default: no faults — breakers "
        "stay CLOSED)",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="override the plan's RNG seed"
    )
    scheduler_flag(p)
    p.add_argument(
        "--max-attempts",
        type=int,
        default=1,
        help="retry attempts per device call before the failure is "
        "reported to the breaker",
    )
    p.add_argument(
        "--window",
        type=int,
        default=8,
        help="sliding outcome window per breaker",
    )
    p.add_argument(
        "--failure-threshold",
        type=int,
        default=1,
        help="failures within the window that open the breaker",
    )
    p.add_argument(
        "--cooldown-us",
        type=float,
        default=1.0,
        help="simulated microseconds a breaker stays OPEN before "
        "HALF_OPEN probing (omit recovery entirely with the plain "
        "`faults` command)",
    )
    p.add_argument(
        "--probe-batches",
        type=int,
        default=2,
        help="consecutive clean shadow probes required to re-close",
    )
    p.add_argument(
        "--quarantine",
        type=float,
        default=2.0,
        help="cool-down multiplier per successive trip (hysteresis)",
    )
    p.add_argument(
        "--max-cooldown-us",
        type=float,
        default=1e6,
        help="cap on the escalated cool-down (simulated microseconds)",
    )
    p.add_argument(
        "--require-repromotions",
        type=int,
        default=0,
        help="fail unless at least this many re-promotions happened",
    )
    report_flags(p)
    cache_flags(p)
    batch_size_option(p)
    p.set_defaults(fn=_cmd_health)

    p = sub.add_parser(
        "serve",
        help="drive the long-lived co-execution service: multi-tenant "
        "admission control, device-pool leasing, graceful "
        "cancellation; prints the repro.service/1 report",
    )
    p.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="simulated tenants (weights cycle 1,2,3)",
    )
    p.add_argument(
        "--jobs-per-tenant",
        type=int,
        default=8,
        help="jobs each tenant submits",
    )
    p.add_argument(
        "--gpu-slots",
        type=int,
        default=2,
        help="simulated GPU slots in the shared device pool",
    )
    p.add_argument(
        "--fpga-slots",
        type=int,
        default=1,
        help="simulated FPGA slots in the shared device pool",
    )
    p.add_argument(
        "--max-running",
        type=int,
        default=4,
        help="jobs executing concurrently (beyond this they queue)",
    )
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=8,
        help="per-tenant queued-job bound; over it submissions are "
        "rejected with a retry-after hint",
    )
    scheduler_flag(p, default="sequential")
    p.add_argument(
        "--plan",
        help="fault plan JSON file applied to every job's runtime",
    )
    p.add_argument(
        "--verify",
        action="store_true",
        help="compare every job against a standalone fault-free run "
        "(bit-identical output/value; simulated seconds too when no "
        "fault plan)",
    )
    report_flags(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "recover",
        help="crash/restart the journaled co-execution service under "
        "a seeded crash schedule until recovery converges; prints the "
        "repro.recover/1 report",
    )
    p.add_argument(
        "--journal-dir",
        help="journal directory (persists across the simulated "
        "crashes; default: a fresh temporary directory)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=6,
        help="jobs submitted before the first crash",
    )
    scheduler_flag(p, default="sequential")
    p.add_argument(
        "--seed",
        type=int,
        default=1,
        help="crash-schedule RNG seed",
    )
    p.add_argument(
        "--crash-call",
        type=int,
        default=3,
        help="device consult index at which each job's crash fires",
    )
    p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=2,
        help="decision points between checkpoint frames",
    )
    p.add_argument(
        "--no-checkpoints",
        action="store_true",
        help="recover from the journal only (every resume from "
        "scratch)",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=32,
        help="give up if recovery has not converged after this many "
        "restarts",
    )
    report_flags(p)
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser(
        "harvest",
        help="AOT-compile the app suite into an artifact cache and "
        "verify warm starts (docs/CACHING.md)",
    )
    p.add_argument(
        "apps",
        nargs="*",
        help="suite app names (default: every app in repro.apps.SUITE)",
    )
    device_flags(p)
    cache_flags(p)
    p.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the second compile pass that proves warm starts",
    )
    p.add_argument(
        "--pin",
        action="store_true",
        help="pin every harvested entry against LRU eviction",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable repro.harvest/1 report",
    )
    p.add_argument("-o", "--out", help="also write the JSON report here")
    p.set_defaults(fn=_cmd_harvest)

    p = sub.add_parser(
        "cache",
        help="inspect and maintain an artifact cache "
        "(stats / purge / verify)",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cp = cache_sub.add_parser("stats", help="summarize cache contents")
    cp.add_argument("--cache-dir", required=True)
    cp.add_argument("--json", action="store_true")
    cp.set_defaults(fn=_cmd_cache_stats)
    cp = cache_sub.add_parser("purge", help="drop every entry")
    cp.add_argument("--cache-dir", required=True)
    cp.set_defaults(fn=_cmd_cache_purge)
    cp = cache_sub.add_parser(
        "verify", help="integrity-check every entry's hashes"
    )
    cp.add_argument("--cache-dir", required=True)
    cp.add_argument(
        "--delete-corrupt",
        action="store_true",
        help="drop failing entries so the next compile repopulates them",
    )
    cp.set_defaults(fn=_cmd_cache_verify)

    p = sub.add_parser(
        "bench",
        help="performance trajectory: collect/diff/trend/gate per-PR "
        "bench changelogs (docs/TRAJECTORY.md)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    def bench_dirs(bp):
        bp.add_argument(
            "--bench-dir",
            default="benchmarks/out",
            help="directory holding the BENCH_*.json reports",
        )
        bp.add_argument(
            "--changelog-dir",
            default="benchmarks/changelogs",
            help="the per-PR snapshot series (repro.trajectory/1)",
        )

    bp = bench_sub.add_parser(
        "collect",
        help="aggregate BENCH_*.json + profile runs into one "
        "repro.trajectory/1 snapshot appended to the changelog",
    )
    bench_dirs(bp)
    bp.add_argument("--label", default="", help="human tag, e.g. 'PR 9'")
    bp.add_argument(
        "--no-profiles",
        action="store_true",
        help="skip the deterministic critical-path profile runs",
    )
    bp.add_argument("--json", action="store_true")
    bp.add_argument(
        "-o", "--out",
        help="write the snapshot here instead of into the changelog",
    )
    bp.set_defaults(fn=_cmd_bench_collect)

    bp = bench_sub.add_parser(
        "diff",
        help="per-metric delta between two snapshots, direction-aware",
    )
    bench_dirs(bp)
    bp.add_argument(
        "baseline", help="snapshot path, or changelog seq (-1 = latest)"
    )
    bp.add_argument(
        "current", help="snapshot path, or changelog seq (-1 = latest)"
    )
    bp.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="percent band treated as noise (default 10)",
    )
    bp.add_argument(
        "--show-within",
        action="store_true",
        help="also list metrics inside the threshold band",
    )
    bp.add_argument("--json", action="store_true")
    bp.set_defaults(fn=_cmd_bench_diff)

    bp = bench_sub.add_parser(
        "trend",
        help="whole-changelog series per metric, sparkline history "
        "(includes an uncommitted working-tree point when bench "
        "reports exist)",
    )
    bench_dirs(bp)
    bp.add_argument(
        "--committed-only",
        action="store_true",
        help="plot only committed changelog snapshots",
    )
    bp.add_argument(
        "--metric", default="", help="substring filter on metric names"
    )
    bp.add_argument("--json", action="store_true")
    bp.add_argument("-o", "--out", help="save the JSON report here")
    bp.set_defaults(fn=_cmd_bench_trend)

    bp = bench_sub.add_parser(
        "gate",
        help="CI regression gate: nonzero exit when a modeled metric "
        "regresses beyond the threshold (waivers via --bless)",
    )
    bench_dirs(bp)
    bp.add_argument(
        "--baseline",
        help="snapshot path or changelog seq (default: second-latest)",
    )
    bp.add_argument(
        "--current",
        help="snapshot path or changelog seq (default: latest)",
    )
    bp.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="max tolerated regression, percent (default 10)",
    )
    bp.add_argument(
        "--bless",
        action="store_true",
        help="record an annotated waiver for each current regression "
        "into the current snapshot (requires --reason)",
    )
    bp.add_argument(
        "--reason", help="why the blessed regression is intentional"
    )
    bp.add_argument("--json", action="store_true")
    bp.set_defaults(fn=_cmd_bench_gate)

    p = sub.add_parser(
        "fuse",
        help="plan task fusion for an app and print/save the "
        "repro.fusion/1 plan (docs/FUSION.md)",
    )
    target_flags(p, example="gray_pipeline", entry=False)
    device_flags(p)
    p.add_argument(
        "--profile",
        help="profile report JSON (python -m repro profile -o ...); "
        "only groups the report shows offloading are fused, the rest "
        "are recorded as rejected with reasons",
    )
    p.add_argument(
        "--ir",
        action="store_true",
        help="also print the canonical fused-IR rendering",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable plan instead of text",
    )
    p.add_argument("-o", "--out", help="save the plan JSON here")
    cache_flags(p)
    p.set_defaults(fn=_cmd_fuse)

    for name, help_text, fn in (
        ("format", "pretty-print (normalize) a source file", _cmd_format),
        ("markers", "IDE-style per-line artifact markers", _cmd_markers),
        ("graphs", "list discovered task graphs", _cmd_graphs),
        ("disas", "disassemble the bytecode artifact", _cmd_disas),
        ("emit-opencl", "print generated OpenCL C",
         lambda a: _emit(a, "gpu")),
        ("emit-verilog", "print generated Verilog",
         lambda a: _emit(a, "fpga")),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser(
        "build", help="compile and write an on-disk artifact repository"
    )
    common(p)
    p.add_argument("-o", "--output", required=True, help="repository dir")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser(
        "emit-testbench",
        help="print a self-checking Verilog testbench for each FPGA module",
    )
    common(p)
    p.add_argument(
        "--inputs",
        default="ints:1,2,3",
        help="stimulus literal, e.g. ints:1,2,3 or bits:1,0,1",
    )
    p.set_defaults(fn=_cmd_testbench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except LiquidMetalError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
