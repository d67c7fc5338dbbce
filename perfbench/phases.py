"""The three measured phases: compile, co-execution and service.

Every run executes all three, interleaved in rounds, so that every
end-to-end metric is measured on every workload. The workload sets the
size of co-execution and of the service load; compile is the same on
every workload. Each phase does a fixed amount of work, so a traced rerun
repeats exactly the same work.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import tempfile
import threading
import time
from collections import defaultdict

from repro.apps import SUITE
from repro.backends.artifacts import CacheOptions
from repro.backends.common import BYTECODE, FPGA, GPU
from repro.compiler import CompileOptions, CompilerSession
from repro.errors import AdmissionRejected, LiquidMetalError
from repro.runtime import Runtime, RuntimeConfig, SubstitutionPolicy
from repro.service import CoExecutionService, ServiceConfig
from repro.service.service import DRIVER_APPS

from inputs import make_args
from oracle import plain, reference

_clock = time.perf_counter

#: The phases run interleaved in this many rounds, so each metric's
#: samples spread evenly over the whole run: the machine's speed drifts
#: by tens of percent from one few-second stretch to the next, and a
#: phase run in a few long stretches would see a different mix of slow
#: and fast stretches than the others.
ROUNDS = 24
#: Whole coexec passes per run at the default sizes (a row's median is
#: the middle of three runs) and at the small sizes of the probe, whose
#: rows last milliseconds, so thread start-up jitter needs more samples.
COEXEC_PASSES = 3
COEXEC_PROBE_PASSES = 9
#: Compile draws per run: ten epochs of every program twice.
COMPILE_DRAWS = 340
#: Service load per run on the workloads other than ``serve``.
SERVE_PROBE_OPEN_JOBS = 200
SERVE_PROBE_CLOSED_JOBS = 180
#: Open-loop rate: at most a quarter of the closed-loop capacity measured
#: on a 2-core machine (100-280 jobs/s with the journal on, depending on
#: how loaded the machine is), so queueing stays rare.
OPEN_RATE_PER_S = 25.0
CLOSED_OUTSTANDING = 4
#: The main serve phase's closed loop runs this many jobs per second of
#: its budget: a job count, so every run does the same work.
CLOSED_JOBS_PER_S = 100
#: Restarts on the journal per round.
RESTARTS = 2
#: Input variants per service app: jobs share programs, not inputs.
SERVE_VARIANTS = 4
TENANT_WEIGHTS = {"t0": 1, "t1": 2, "t2": 3}
#: The open loop is invalid when the generator sent a job later than
#: this after its scheduled time.
LATENESS_BOUND_MS = 250.0


def share(total: int, round_: int) -> int:
    """Round ``round_``'s part of ``total`` units of work."""
    return total * (round_ + 1) // ROUNDS - total * round_ // ROUNDS


def percentile(values, q):
    """Nearest-rank percentile; ``inf`` entries (misses) sort last."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Outcome:
    """Tally of a run's checked operations; ``problems`` names each
    failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def ok(self, condition: bool, problem: str) -> bool:
        self.attempted += 1
        if not condition:
            self.failed += 1
            self.problems.append(problem)
        return condition


# ---------------------------------------------------------------------------
# compile: the toolchain, with and without the artifact cache
# ---------------------------------------------------------------------------


def _texts(result) -> dict:
    return {dev: result.artifact_texts(dev) for dev in (BYTECODE, GPU, FPGA)}


class CompilePhase:
    """Cold compiles beside compiles through a fresh artifact cache.

    A stream of draws in epochs; each epoch starts from an empty cache
    and draws every program exactly twice in a seeded order, so a
    program's first draw is a miss plus a store and its second a hit, and
    the program mix (and with it the medians) does not depend on the
    seed. Cache directories go with the run's temporary directory, not
    between epochs, so file deletion does not run beside the stores.
    """

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"compile:{seed}")
        self.workdir = workdir
        self.samples = {"cold": [], "miss": [], "hit": []}
        self.per_program = defaultdict(
            lambda: {"cold": [], "miss": [], "hit": []}
        )
        self.first_texts: dict = {}
        self._pending: list = []
        self._seen: set = set()
        self._cached = None

    def run(self, outcome, draws, tracer=None):
        for _ in range(draws):
            self._draw(outcome, tracer)

    def _draw(self, outcome, tracer):
        if not self._pending:
            names = sorted(SUITE)
            self._cached = CompilerSession(CompileOptions(
                cache=CacheOptions(
                    cache_dir=tempfile.mkdtemp(prefix="cache-",
                                               dir=self.workdir),
                    mode="readwrite",
                )
            ))
            self._seen = set()
            self._pending = self.rng.sample(names * 2, k=2 * len(names))
        name = self._pending.pop()
        source, filename = SUITE[name].source, f"<{name}.lime>"
        state = "hit" if name in self._seen else "miss"
        self._seen.add(name)
        if tracer is not None:
            tracer.tag(f"compile:{name}:cold")
        try:
            t0 = _clock()
            cold = CompilerSession().compile(source, filename=filename)
            t1 = _clock()
            if tracer is not None:
                tracer.tag(f"compile:{name}:{state}")
            t2 = _clock()
            warm = self._cached.compile(source, filename=filename)
            t3 = _clock()
        except LiquidMetalError as exc:
            outcome.ok(False, f"compile {name}: {exc}")
            return
        for kind, ms in (("cold", (t1 - t0) * 1e3),
                         (state, (t3 - t2) * 1e3)):
            self.samples[kind].append(ms)
            self.per_program[name][kind].append(ms)
        texts = _texts(cold)
        expected = self.first_texts.setdefault(name, texts)
        outcome.ok(texts == expected,
                   f"compile {name}: cold artifacts differ between "
                   "compiles")
        outcome.ok(
            all(info["state"] == state for info in warm.cache_info.values()),
            f"compile {name}: expected a cache {state}",
        )
        outcome.ok(_texts(warm) == texts,
                   f"compile {name}: cache {state} artifact texts differ "
                   "from the cold compile")


# ---------------------------------------------------------------------------
# coexec: the runtime and the simulators, compile outside the timed loop
# ---------------------------------------------------------------------------


class CoexecPlan:
    """Compiled apps, seeded inputs and placement policies. The oracle's
    references are the benchmark's own work, not the program's, so they
    are computed apart from the timed set-up (:meth:`references`)."""

    def __init__(self, seed, size):
        session = CompilerSession()
        self.rows = []     # (app, placement, compiled, entry, args, policy)
        self.args = {}
        self.expected = None
        for app in sorted(SUITE):
            compiled = session.compile(
                SUITE[app].source, filename=f"<{app}.lime>"
            )
            entry, args = make_args(app, size, seed)
            self.args[app] = args
            placements = [
                ("bytecode", SubstitutionPolicy(use_accelerators=False)),
                ("default", SubstitutionPolicy()),
            ]
            fpga = compiled.store.for_device(FPGA)
            if fpga:
                # The paper's manual override: pin every task that has
                # an FPGA artifact to the FPGA.
                placements.append(("fpga", SubstitutionPolicy(directives={
                    task: FPGA
                    for artifact in fpga
                    for task in artifact.manifest.task_ids
                })))
            for placement, policy in placements:
                self.rows.append(
                    (app, placement, compiled, entry, args, policy)
                )

    def references(self) -> dict:
        return {app: reference(app, args) for app, args in self.args.items()}


class CoexecPhase:
    """Every app and placement on the threaded scheduler, as a cycle of
    rows run a chunk at a time. A row's first run fixes its modeled
    seconds and the cycles its ledger holds (the interpreter's host
    cycles and each FPGA run's kernel time); traced, it also fixes the
    interpreter and FPGA cycles the wrappers count. Every later run over
    the same inputs must reproduce them bit for bit."""

    def __init__(self, plan):
        self.plan = plan
        self.row_walls = defaultdict(list)
        self.modeled: dict = {}
        self.ledger_cycles: dict = {}
        self.cycles: dict = {}
        self.rows_run = 0
        self._bytecode_values: dict = {}

    @property
    def passes(self) -> float:
        return self.rows_run / len(self.plan.rows)

    def run(self, outcome, rows, tracer=None):
        for _ in range(rows):
            row = self.plan.rows[self.rows_run % len(self.plan.rows)]
            self.rows_run += 1
            self._row(outcome, tracer, *row)

    def _row(self, outcome, tracer, app, placement, compiled, entry, args,
             policy):
        key = (app, placement)
        if tracer is not None:
            tracer.tag(f"coexec:{app}:{placement}")
            before = tracer.cycles()
        t0 = _clock()
        try:
            out = Runtime(compiled, RuntimeConfig(policy=policy)).run(
                entry, args
            )
        except LiquidMetalError as exc:
            outcome.ok(False, f"coexec {app}/{placement}: {exc}")
            return
        self.row_walls[key].append(_clock() - t0)
        devices = sorted({o.device for o in out.ledger.offloads})
        modeled = self.modeled.setdefault(key,
                                          (out.ledger.total_s, devices))
        ledger_cycles = (out.ledger.host_cycles, tuple(
            o.kernel_s for o in out.ledger.offloads if o.device == FPGA
        ))
        if (modeled != (out.ledger.total_s, devices)
                or self.ledger_cycles.setdefault(key, ledger_cycles)
                != ledger_cycles):
            raise DriftError(
                f"coexec {app}/{placement}: modeled seconds or ledger "
                "cycles differ between runs over the same inputs"
            )
        if tracer is not None:
            cycles = tuple(b - a for a, b in zip(before, tracer.cycles()))
            if self.cycles.setdefault(key, cycles) != cycles:
                raise DriftError(
                    f"coexec {app}/{placement}: interp.cycles or "
                    "fpga.cycles differ between runs over the same inputs"
                )
        value = plain(out.value)
        if placement == "bytecode":
            self._bytecode_values[app] = value
        outcome.ok(value == self.plan.expected[app],
                   f"coexec {app}/{placement}: value differs from the "
                   "reference")
        outcome.ok(value == self._bytecode_values.get(app),
                   f"coexec {app}/{placement}: value differs from the "
                   "bytecode placement")
        if placement == "fpga":
            outcome.ok(FPGA in devices,
                       f"coexec {app}: the FPGA placement did not offload "
                       "to the FPGA")

    def run_s(self) -> float:
        """One pass's wall time: the sum of each row's median."""
        return sum(statistics.median(walls)
                   for walls in self.row_walls.values())


class DriftError(Exception):
    """A modeled value that must be deterministic was not."""


def modeled_summary(modeled: dict):
    """``(modeled_s, modeled_speedup_geomean)`` from one pass's rows.

    ``modeled_s`` sums every accelerated placement. The geometric mean
    takes one ratio per accelerated app, bytecode-only seconds over its
    best placement that offloaded, so an app with an FPGA row as well as
    a default row counts once, as in the paper's per-app speedups.
    """
    total = 0.0
    best: dict = {}
    for (app, placement), (seconds, devices) in sorted(modeled.items()):
        if placement == "bytecode":
            continue
        total += seconds
        if devices:
            best[app] = min(seconds, best.get(app, math.inf))
    logs = [math.log(modeled[(app, "bytecode")][0] / seconds)
            for app, seconds in best.items()]
    return total, math.exp(sum(logs) / len(logs))


# ---------------------------------------------------------------------------
# serve: the multi-tenant service under many short jobs
# ---------------------------------------------------------------------------


class StampingService(CoExecutionService):
    """Records when each job's result becomes available.

    The service exposes completion only through blocking ``result()``
    calls; waiting on jobs one by one would stamp a job that finished
    behind a slower one late. Stamping inside the job's own ``done``
    event gives the true time without a waiter thread per job.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finished: dict = {}
        self.completions = threading.Semaphore(0)

    def _run_job(self, job):
        release = job.done.set

        def stamped():
            self.finished[job.job_id] = _clock()
            release()
            self.completions.release()

        job.done.set = stamped
        super()._run_job(job)


def service_config(journal_dir):
    return ServiceConfig(
        max_running=2,
        max_queue_depth=64,
        runtime=RuntimeConfig(scheduler="sequential"),
        journal_dir=journal_dir,
    )


class ServePlan:
    """A started service with warm compiles and seeded job inputs; the
    references are computed apart from the timed set-up, as for
    :class:`CoexecPlan`."""

    def __init__(self, seed, journal_dir):
        self.seed = seed
        self.journal_dir = journal_dir
        self.service = StampingService(service_config(journal_dir))
        for tenant, weight in TENANT_WEIGHTS.items():
            self.service.register_tenant(tenant, weight)
        self.inputs = {}
        self.expected = None
        for app in DRIVER_APPS:
            self.service.session.compile_cached(
                SUITE[app].source, filename=f"<{app}.lime>"
            )
            for variant in range(SERVE_VARIANTS):
                self.inputs[(app, variant)] = make_args(
                    app, "small", seed, variant
                )

    def references(self) -> dict:
        return {key: reference(key[0], args)
                for key, (_entry, args) in self.inputs.items()}

    def close(self):
        self.service.drain()


def _balanced(rng, items):
    """Endless seeded draws in which every item appears once per block,
    so a short run's mix is the same on every seed."""
    while True:
        yield from rng.sample(list(items), k=len(items))


def job_mix(seed):
    """``(tenant, app, variant)`` of each successive job."""
    rng = random.Random(f"serve:{seed}")
    tenants = _balanced(rng, sorted(TENANT_WEIGHTS))
    apps = _balanced(rng, DRIVER_APPS)
    while True:
        yield next(tenants), next(apps), rng.randrange(SERVE_VARIANTS)


def _submit(plan, mix, sent):
    tenant, app, variant = next(mix)
    entry, args = plan.inputs[(app, variant)]
    try:
        job_id = plan.service.submit(
            SUITE[app].source, entry, args, tenant=tenant, app=app,
            filename=f"<{app}.lime>",
        )
    except AdmissionRejected:
        job_id = None
    sent.append((job_id, app, variant))
    return job_id


def _settle(plan, sent, outcome):
    """Wait for every sent job; check each value. Returns the ids of the
    jobs that completed correctly."""
    good = set()
    for job_id, app, variant in sent:
        if not outcome.ok(job_id is not None,
                          f"serve {app}: submission refused"):
            continue
        try:
            value = plan.service.result(job_id, timeout_s=120.0).value
        except LiquidMetalError as exc:
            outcome.ok(False, f"serve {job_id} ({app}): {exc}")
            continue
        if outcome.ok(plain(value) == plan.expected[(app, variant)],
                      f"serve {job_id} ({app}): value differs from the "
                      "reference"):
            good.add(job_id)
    return good


class ServePhase:
    """Slices of service load on one long-lived service.

    Each slice runs an open loop at a fixed rate, then a closed loop of a
    fixed number of jobs, then restarts on the journal as it stands. The
    closed loop is a job count, not a duration, so the journal each
    restart replays has the same size on every run.
    """

    def __init__(self, plan):
        self.plan = plan
        self.mix = job_mix(plan.seed)
        self.latencies_ms: list = []
        self.lateness_ms: list = []
        self.served: list = []
        self.closed_jobs = 0
        self.closed_good = 0
        self.closed_s = 0.0
        self.restart_s: list = []
        #: Time spent in the open loop, whose length the schedule fixes
        #: whatever each job costs.
        self.paced_s = 0.0

    def run_slice(self, outcome, open_jobs, closed_jobs, restarts,
                  tracer=None):
        plan, service = self.plan, self.plan.service
        if tracer is not None:
            tracer.tag("serve:loadgen")
        # Open loop: each job is timed from its scheduled send time.
        sent, due = [], []
        t0 = _clock() + 0.005
        for k in range(open_jobs):
            when = t0 + k / OPEN_RATE_PER_S
            wait = when - _clock()
            if wait > 0:
                time.sleep(wait)
            self.lateness_ms.append((_clock() - when) * 1e3)
            due.append(when)
            _submit(plan, self.mix, sent)
        good = _settle(plan, sent, outcome)
        self.paced_s += _clock() - t0
        self.served += [row for row in sent if row[0] in good]
        self.latencies_ms += [
            (service.finished[job_id] - when) * 1e3
            if job_id in good else math.inf
            for (job_id, _, _), when in zip(sent, due)
        ]
        # Closed loop: a fixed number of jobs outstanding.
        service.completions = threading.Semaphore(0)
        sent = []
        t0 = _clock()
        for _ in range(CLOSED_OUTSTANDING):
            _submit(plan, self.mix, sent)
        while len(sent) < closed_jobs:
            if not service.completions.acquire(timeout=60.0):
                raise TimeoutError("serve: no job completed within 60 s")
            _submit(plan, self.mix, sent)
        good = _settle(plan, sent, outcome)
        self.served += [row for row in sent if row[0] in good]
        self.closed_jobs += len(sent)
        self.closed_good += len(good)
        self.closed_s += max(service.finished[j] for j in good) - t0
        # Restart: a new service replays the journal and deduplicates
        # every completed job.
        if tracer is not None:
            tracer.tag("serve:restart")
        for _ in range(restarts):
            gc.collect()
            t = _clock()
            restarted = CoExecutionService(service_config(plan.journal_dir))
            self.restart_s.append(_clock() - t)
        for job_id, app, variant in self.served:
            try:
                value = plain(restarted.result(job_id, timeout_s=0).value)
            except LiquidMetalError:
                value = None
            outcome.ok(value == plan.expected[(app, variant)],
                       f"serve restart: {job_id} ({app}) not served from "
                       "the journal")

    def jobs_per_s(self) -> float:
        return self.closed_good / self.closed_s
