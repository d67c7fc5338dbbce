"""Orchestration of one benchmark run: set-up, the measured rounds, the
rows, and the end-to-end or per-layer metrics (see ``run.py``)."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import phases
from phases import percentile

#: The workload record, printed as the first row of every run: why each
#: workload is there, which layers its main phase loads and which it
#: leaves to the other phases, and its loop. The compile phase (frontend,
#: IR, the three backends' codegen and the artifact cache) is the same on
#: every workload.
WORKLOADS = {
    "coexec": {
        "why": "the paper's experiment: every suite app at its default "
               "size on bytecode, the default GPU-preferring placement "
               "and pinned FPGA",
        "loads": ["repro.backends.bytecode (interpreter)",
                  "repro.devices.gpu", "repro.devices.fpga",
                  "repro.runtime.marshaling", "repro.runtime.substitution",
                  "repro.runtime.scheduler (threaded)",
                  "repro.runtime.engine"],
        "bypasses": ["repro.lime", "repro.ir", "backend codegen",
                     "repro.backends.artifacts", "repro.service"],
        "loop": "batch: 3 passes over the suite on all placements, "
                "no arrival process",
    },
    "serve": {
        "why": "many short jobs, where admission, leasing, journal "
               "appends, checkpoints and per-Runtime setup are a large "
               "share of each job",
        "loads": ["repro.service", "repro.service.journal",
                  "repro.runtime.checkpoint", "repro.compiler (memo)",
                  "repro.runtime.engine",
                  "repro.runtime.scheduler (sequential)"],
        "bypasses": ["backend codegen (compiles are memoized)",
                     "repro.backends.artifacts"],
        "loop": "per round: open loop at 25 jobs/s (2/3 x --seconds x "
                "25 jobs in all), then a closed loop with 4 jobs "
                "outstanding (--seconds / 3 x 100 jobs in all), then 2 "
                "restarts on the journal; 3 tenants weighted 1/2/3, "
                "max_running=2",
    },
}

#: Set-up (and, in a fresh interpreter, the imports) is sampled this
#: many times, at the start and spread over the rounds, and the medians
#: are reported, so one slow moment does not decide the figure.
SETUP_SAMPLES = 7
_IMPORT = ("import sys, time; t = time.perf_counter(); "
           "sys.path[:0] = sys.argv[1:]; import bench; "
           "print(time.perf_counter() - t)")


def _import_sample() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT, os.path.join(root, "src"), here],
        cwd=root, check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    return float(out)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
    "compile_ms_p50": "ms",
    "compile_ms_p90": "ms",
    "cache_miss_ms_p50": "ms",
    "cache_hit_ms_p50": "ms",
    "run_s": "s",
    "modeled_s": "simulated_s",
    "modeled_speedup_geomean": "ratio",
    "job_latency_p50_ms": "ms",
    "job_latency_p90_ms": "ms",
    "jobs_per_s": "jobs/s",
    "restart_s": "s",
}

#: Layers whose self time is reported as ``<layer>.self_s``.
LAYERS = (
    "lime", "ir", "backends.bytecode", "backends.opencl",
    "backends.verilog", "compiler", "session", "artifacts.load",
    "artifacts.store", "interp", "gpu", "fpga", "marshal", "substitution",
    "scheduler", "engine", "service.submit", "journal.append",
    "journal.load", "checkpoint",
)
#: Per-layer counts -> unit.
COUNTS = {
    "lime.calls": "count", "ir.functions": "count",
    "backends.opencl.artifacts": "count",
    "backends.verilog.artifacts": "count", "artifacts.hits": "count",
    "artifacts.misses": "count", "artifacts.bytes_stored": "B",
    "interp.calls": "count", "interp.cycles": "cycles",
    "gpu.kernels": "count", "gpu.items": "count", "fpga.runs": "count",
    "fpga.cycles": "cycles", "marshal.crossings": "count",
    "marshal.bytes": "B", "substitution.plans": "count",
    "scheduler.graphs": "count", "engine.runs": "count",
    "journal.records": "count", "journal.bytes": "B",
    "checkpoint.frames": "count", "checkpoint.bytes": "B",
}


def _emit(row: dict) -> None:
    print(json.dumps(row, sort_keys=True))


def _finite(value):
    return value if math.isfinite(value) else None


def _setup(workload, seed, workdir, label):
    coexec = phases.CoexecPlan(
        seed, "default" if workload == "coexec" else "small"
    )
    serve = phases.ServePlan(seed, os.path.join(workdir, f"journal-{label}"))
    return coexec, serve


def _quiesce():
    """Start a round from the same state: no garbage left from the last
    round, and no write-back of earlier rounds' files (or of the previous
    run's clean-up) due to land inside a timed operation."""
    gc.collect()
    os.sync()


def _measure(workload, seed, seconds, workdir, coexec_plan,
             serve_plan, outcome, tracer=None, sample_setup=None):
    """The three phases interleaved in rounds. ``sample_setup`` is called
    at the start of the rounds that take a set-up sample, outside the
    timed work."""
    compiling = phases.CompilePhase(seed, workdir)
    coexec = phases.CoexecPhase(coexec_plan)
    serve = phases.ServePhase(serve_plan)
    if workload == "serve":
        # Two thirds open loop: its p90 needs the samples more than the
        # closed loop's throughput does.
        open_jobs = int(seconds * 2.0 / 3.0 * phases.OPEN_RATE_PER_S)
        closed_jobs = int(seconds / 3.0 * phases.CLOSED_JOBS_PER_S)
    else:
        open_jobs = phases.SERVE_PROBE_OPEN_JOBS
        closed_jobs = phases.SERVE_PROBE_CLOSED_JOBS
    rows = len(coexec_plan.rows) * (
        phases.COEXEC_PASSES if workload == "coexec"
        else phases.COEXEC_PROBE_PASSES
    )
    # The middle rounds of equal stretches of the run.
    sample_rounds = {phases.ROUNDS * (2 * k + 1) // (2 * SETUP_SAMPLES - 2)
                     for k in range(SETUP_SAMPLES - 1)}
    wall = 0.0
    for round_ in range(phases.ROUNDS):
        if sample_setup is not None and round_ in sample_rounds:
            sample_setup(f"sample{round_}")
        _quiesce()
        t0 = time.perf_counter()
        compiling.run(outcome, phases.share(phases.COMPILE_DRAWS, round_),
                      tracer=tracer)
        coexec.run(outcome, phases.share(rows, round_), tracer=tracer)
        serve.run_slice(outcome, phases.share(open_jobs, round_),
                        phases.share(closed_jobs, round_),
                        phases.RESTARTS, tracer=tracer)
        wall += time.perf_counter() - t0
    serve_plan.close()
    return compiling, coexec, serve, wall


def _rows(compiling, coexec, serve):
    for name, kinds in sorted(compiling.per_program.items()):
        _emit({
            "row": "compile", "program": name,
            "compiles": len(kinds["cold"]),
            "cold_ms_p50": statistics.median(kinds["cold"]),
            "miss_ms_p50": (statistics.median(kinds["miss"])
                            if kinds["miss"] else None),
            "hit_ms_p50": (statistics.median(kinds["hit"])
                           if kinds["hit"] else None),
        })
    for (app, placement), (modeled_s, devices) in sorted(
        coexec.modeled.items()
    ):
        _emit({
            "row": "coexec", "app": app, "placement": placement,
            "passes": coexec.passes, "devices": devices,
            "wall_s_p50": statistics.median(
                coexec.row_walls[(app, placement)]
            ),
            "modeled_s": modeled_s,
        })
    _emit({
        "row": "serve",
        "open_jobs": len(serve.latencies_ms),
        "open_rate_per_s": phases.OPEN_RATE_PER_S,
        "closed_jobs": serve.closed_jobs,
        "closed_outstanding": phases.CLOSED_OUTSTANDING,
        "restarts": len(serve.restart_s),
        "lateness_ms_p90": percentile(serve.lateness_ms, 90),
        "lateness_ms_max": max(serve.lateness_ms),
    })


def _end_to_end(setup_s, outcome, compiling, coexec, serve):
    samples = compiling.samples
    modeled_s, geomean = phases.modeled_summary(coexec.modeled)
    latencies = serve.latencies_ms
    values = {
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (outcome.attempted - outcome.failed) / outcome.attempted,
        "compile_ms_p50": statistics.median(samples["cold"]),
        "compile_ms_p90": percentile(samples["cold"], 90),
        "cache_miss_ms_p50": statistics.median(samples["miss"]),
        "cache_hit_ms_p50": statistics.median(samples["hit"]),
        "run_s": coexec.run_s(),
        "modeled_s": modeled_s,
        "modeled_speedup_geomean": geomean,
        "job_latency_p50_ms": _finite(percentile(latencies, 50)),
        "job_latency_p90_ms": _finite(percentile(latencies, 90)),
        "jobs_per_s": serve.jobs_per_s(),
        "restart_s": statistics.median(serve.restart_s),
    }
    _emit({
        "row": "samples",
        "compile_cold": len(samples["cold"]),
        "cache_miss": len(samples["miss"]),
        "cache_hit": len(samples["hit"]),
        "coexec_passes": coexec.passes,
        "open_loop_jobs": len(latencies),
        "closed_loop_jobs": serve.closed_jobs,
        "restarts": len(serve.restart_s),
        "setup_samples": SETUP_SAMPLES,
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def _rate(amount, seconds):
    return amount / seconds if seconds else 0.0


def _per_layer(tracer, traced_wall, untraced_wall, serve, serve_traced):
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for name, unit in COUNTS.items():
        metrics[name] = (counts.get(name, 0), unit)
    hits, misses = counts.get("artifacts.hits", 0), counts.get(
        "artifacts.misses", 0)
    memo_calls = counts.get("session.compile_cached", 0)
    memo_hits = memo_calls - tracer.memo_misses()
    waits = tracer.queue_waits_ms() or [0.0]
    metrics.update({
        "lime.chars_per_s": (
            _rate(counts.get("lime.chars", 0), self_s.get("lime")),
            "chars/s"),
        "artifacts.hit_ratio": (hits / max(hits + misses, 1), "ratio"),
        "interp.cycles_per_s": (
            _rate(counts.get("interp.cycles", 0), self_s.get("interp")),
            "cycles/s"),
        "fpga.cycles_per_s": (
            _rate(counts.get("fpga.cycles", 0), self_s.get("fpga")),
            "cycles/s"),
        "session.memo_hits": (memo_hits, "count"),
        "session.memo_hit_ratio": (memo_hits / max(memo_calls, 1),
                                   "ratio"),
        "service.queue_wait_ms_p50": (statistics.median(waits), "ms"),
        "service.queue_wait_ms_p90": (percentile(waits, 90), "ms"),
        "service.rejected": (counts.get("service.rejected", 0), "count"),
        "loadgen.lateness_ms_p90": (
            percentile(serve.lateness_ms, 90), "ms"),
        "loadgen.lateness_ms_max": (max(serve.lateness_ms), "ms"),
        # Over the fixed work only: the open loop lasts as long as its
        # schedule, so tracing cost there shows in latency, not in time.
        "trace.overhead_share": (
            (traced_wall - serve_traced.paced_s)
            / (untraced_wall - serve.paced_s) - 1.0, "ratio"),
        "trace.unattributed_s": (
            traced_wall - sum(self_s.values()), "s"),
    })
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())}


def run(args, workdir, import_s, out_dir) -> int:
    """One run; prints the rows and the result, returns the exit code.
    ``import_s`` is how long this process took to import the program."""
    outcome = phases.Outcome()
    _quiesce()
    t0 = time.perf_counter()
    coexec, serve = _setup(args.workload, args.seed, workdir, "main")
    setup_walls = [time.perf_counter() - t0]
    import_walls = [import_s]

    def sample_setup(label):
        t0 = time.perf_counter()
        _, extra = _setup(args.workload, args.seed, workdir, label)
        setup_walls.append(time.perf_counter() - t0)
        extra.close()
        import_walls.append(_import_sample())

    coexec.expected = coexec.references()
    serve.expected = serve.references()
    _emit({"row": "workload", "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds,
           **WORKLOADS[args.workload]})
    try:
        compiling, coexec_run, serve_run, wall = _measure(
            args.workload, args.seed, args.seconds, workdir,
            coexec, serve, outcome, sample_setup=sample_setup,
        )
        setup_s = (statistics.median(import_walls)
                   + statistics.median(setup_walls))
        _rows(compiling, coexec_run, serve_run)
        metrics = _end_to_end(setup_s, outcome, compiling,
                              coexec_run, serve_run)
        lateness = max(serve_run.lateness_ms)
        outcome.ok(
            lateness <= phases.LATENESS_BOUND_MS,
            f"open loop invalid: the generator ran {lateness:.1f} ms "
            f"behind schedule (bound {phases.LATENESS_BOUND_MS} ms)",
        )
        if args.trace:
            metrics = _traced(args, workdir, out_dir, outcome, wall,
                              coexec_run, serve_run)
    except phases.DriftError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    for problem in outcome.problems[:20]:
        _emit({"row": "failure", "problem": problem})
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _traced(args, workdir, out_dir, outcome, untraced_wall,
            coexec_untraced, serve_untraced):
    """Repeat the same work with every layer wrapped."""
    from layertrace import LayerTracer

    coexec_plan, serve_plan = _setup(args.workload, args.seed,
                                     workdir, "traced")
    coexec_plan.expected = coexec_untraced.plan.expected
    serve_plan.expected = serve_untraced.plan.expected
    tracer = LayerTracer()
    tracer.install()
    try:
        _, coexec_traced, serve_traced, traced_wall = _measure(
            args.workload, args.seed, args.seconds, workdir,
            coexec_plan, serve_plan, outcome, tracer=tracer,
        )
    finally:
        tracer.remove()
    if (coexec_traced.modeled != coexec_untraced.modeled
            or coexec_traced.ledger_cycles != coexec_untraced.ledger_cycles):
        raise phases.DriftError(
            "modeled seconds or ledger cycles differ between the traced "
            "and untraced runs"
        )
    tracer.write(os.path.join(
        out_dir, f"spans-{args.workload}-{args.seed}.jsonl"
    ))
    return _per_layer(tracer, traced_wall, untraced_wall,
                      serve_untraced, serve_traced)
