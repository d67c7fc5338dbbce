"""Device health: circuit breakers, shadow probes, re-promotion.

PR 2 made device failure survivable — retry, then *permanent* demotion
to the always-available bytecode artifact (Section 4.1). This module
makes the fallback reversible: every offload is mediated by a
per-(device, span) :class:`DeviceHealth` circuit breaker,

    CLOSED ──failures──► OPEN ──cool-down──► HALF_OPEN ──clean probes──► CLOSED
                           ▲                      │
                           └─────failed probe─────┘

so a span demoted during a transient device outage is *probed* once
the breaker has cooled down — a bounded number of batches run on both
bytecode and the device, outputs compared element-wise (a wrong-answer
device counts as a failure, not just a crashing one) — and re-promoted
to the accelerator when enough probes come back clean. A flapping
device is quarantined exponentially longer on each trip (hysteresis).

Time here is *simulated*, like everything else in the runtime: each
breaker keeps a span-local clock advanced by the simulated seconds of
the outcomes reported against it (device batches, bytecode fallbacks,
retry backoff). Cool-downs therefore expire deterministically — the
same seeds produce the same transitions at the same simulated times,
on either scheduler — and an idle span does not cool down, because its
clock only advances while it processes batches.

The registry renders a machine-readable report stamped
``repro.health/1`` (``python -m repro health``), and every transition
and probe is visible to the tracer as ``breaker.transition`` /
``probe.shadow`` spans plus ``health.*`` counters and a per-breaker
state gauge, feeding the profiler's recovery breakdown.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of breaker states (CLOSED=0 so a healthy fleet reads
#: as all-zero).
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

#: Actions :meth:`DeviceHealth.decide` can return.
RUN_DEVICE = "device"      # CLOSED: offload normally
RUN_BYTECODE = "bytecode"  # OPEN: span runs on the bytecode artifact
RUN_PROBE = "probe"        # HALF_OPEN: shadow-probe this batch

#: Schema stamp for health reports.
HEALTH_SCHEMA = "repro.health/1"


@dataclass(frozen=True)
class HealthPolicy:
    """Knobs for the per-span circuit breakers.

    ``cooldown_s=None`` (the default) disables re-promotion entirely: a
    tripped breaker stays OPEN for the life of the process, which is
    exactly the permanent demotion of PR 2. Setting a finite cool-down
    (in *simulated* seconds) turns demotion into a quarantine.
    """

    #: Sliding outcome window length (most recent device outcomes).
    window: int = 8
    #: Optional simulated-time horizon: outcomes older than this fall
    #: out of the window even if fewer than ``window`` arrived.
    window_s: "float | None" = None
    #: Failures within the window that trip the breaker OPEN.
    failure_threshold: int = 1
    #: Simulated seconds OPEN before the first HALF_OPEN probe window
    #: (None = never; permanent demotion).
    cooldown_s: "float | None" = None
    #: Consecutive clean shadow probes required to close the breaker.
    probe_batches: int = 2
    #: Hysteresis: each successive trip multiplies the cool-down.
    quarantine_multiplier: float = 2.0
    #: Cap on the escalated cool-down.
    max_cooldown_s: float = 1.0

    def __post_init__(self):
        if self.window < 1:
            raise ConfigurationError(
                f"health window must be >= 1, got {self.window}"
            )
        if self.window_s is not None and self.window_s <= 0:
            raise ConfigurationError(
                f"health window_s must be positive (or None), "
                f"got {self.window_s}"
            )
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, "
                f"got {self.failure_threshold}"
            )
        if self.cooldown_s is not None and self.cooldown_s < 0:
            raise ConfigurationError(
                f"cooldown_s must be >= 0 (or None), got {self.cooldown_s}"
            )
        if self.probe_batches < 1:
            raise ConfigurationError(
                f"probe_batches must be >= 1, got {self.probe_batches}"
            )
        if self.quarantine_multiplier < 1.0:
            raise ConfigurationError(
                f"quarantine_multiplier must be >= 1, "
                f"got {self.quarantine_multiplier}"
            )
        if self.max_cooldown_s <= 0:
            raise ConfigurationError(
                f"max_cooldown_s must be positive, "
                f"got {self.max_cooldown_s}"
            )

    @property
    def recovery_enabled(self) -> bool:
        return self.cooldown_s is not None

    def cooldown_for_trip(self, trips: int) -> "float | None":
        """Escalated cool-down before probe window #``trips`` (1-based)."""
        if self.cooldown_s is None:
            return None
        return min(
            self.cooldown_s * self.quarantine_multiplier ** (trips - 1),
            self.max_cooldown_s,
        )


@dataclass(frozen=True)
class TransitionRecord:
    """One breaker state change, stamped with span-local sim time."""

    key: str                 # artifact/span id
    device: str
    from_state: str
    to_state: str
    at_s: float              # breaker-local simulated clock
    reason: str
    trips: int               # total trips so far (after this record)
    cooldown_s: "float | None" = None  # quarantine entered (OPEN only)

    def to_dict(self) -> dict:
        payload = {
            "key": self.key,
            "device": self.device,
            "from": self.from_state,
            "to": self.to_state,
            "at_s": self.at_s,
            "reason": self.reason,
            "trips": self.trips,
        }
        if self.cooldown_s is not None:
            payload["cooldown_s"] = self.cooldown_s
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TransitionRecord":
        return cls(
            key=payload["key"],
            device=payload["device"],
            from_state=payload["from"],
            to_state=payload["to"],
            at_s=payload["at_s"],
            reason=payload["reason"],
            trips=payload["trips"],
            cooldown_s=payload.get("cooldown_s"),
        )


class DeviceHealth:
    """Health record and circuit breaker for one (device, span).

    Not thread-safe on its own — the owning :class:`HealthRegistry`
    serializes access. One span's outcomes always arrive in order (a
    device stage executes its batches sequentially), so per-breaker
    state is deterministic even under the threaded scheduler.
    """

    def __init__(self, device: str, key: str, policy: HealthPolicy,
                 covered_task_ids=()):
        self.device = device
        self.key = key
        self.policy = policy
        self.covered_task_ids = list(covered_task_ids)
        self.state = CLOSED
        self.now_s = 0.0           # span-local simulated clock
        self.trips = 0
        self.opened_at_s: "float | None" = None
        self.clean_probes = 0      # consecutive clean probes this window
        self.transitions: list[TransitionRecord] = []
        self._window: deque = deque()   # (at_s, ok)
        # Lifetime tallies for the health report.
        self.successes = 0
        self.failures = 0
        self.fallbacks = 0
        self.probes = 0
        self.probe_failures = 0
        self.repromotions = 0

    # -- clock and window --------------------------------------------------

    def advance(self, sim_s: float) -> None:
        self.now_s += max(sim_s, 0.0)

    def _prune_window(self) -> None:
        while len(self._window) > self.policy.window:
            self._window.popleft()
        horizon = self.policy.window_s
        if horizon is not None:
            while self._window and self._window[0][0] < self.now_s - horizon:
                self._window.popleft()

    def _window_failures(self) -> int:
        self._prune_window()
        return sum(1 for _, ok in self._window if not ok)

    @property
    def cooldown_s(self) -> "float | None":
        """The quarantine currently in force (None when recovery is
        disabled or the breaker has never tripped)."""
        if not self.trips:
            return self.policy.cooldown_s
        return self.policy.cooldown_for_trip(self.trips)

    # -- state machine -----------------------------------------------------

    def _transition(self, to_state: str, reason: str,
                    cooldown: "float | None" = None) -> TransitionRecord:
        record = TransitionRecord(
            key=self.key,
            device=self.device,
            from_state=self.state,
            to_state=to_state,
            at_s=self.now_s,
            reason=reason,
            trips=self.trips,
            cooldown_s=cooldown,
        )
        self.state = to_state
        self.transitions.append(record)
        return record

    def _open(self, reason: str) -> TransitionRecord:
        self.trips += 1
        cooldown = self.policy.cooldown_for_trip(self.trips)
        self.opened_at_s = self.now_s
        self.clean_probes = 0
        self._window.clear()
        return self._transition(OPEN, reason, cooldown=cooldown)

    def decide(self):
        """The breaker's verdict for the next batch: ``RUN_DEVICE``,
        ``RUN_BYTECODE``, or ``RUN_PROBE``. Returns ``(action,
        transition-or-None)`` — OPEN flips to HALF_OPEN here once the
        quarantine has expired on the span-local clock."""
        if self.state == CLOSED:
            return RUN_DEVICE, None
        if self.state == HALF_OPEN:
            return RUN_PROBE, None
        cooldown = self.policy.cooldown_for_trip(self.trips or 1)
        if cooldown is None:
            return RUN_BYTECODE, None  # permanent demotion
        if self.now_s - (self.opened_at_s or 0.0) >= cooldown:
            record = self._transition(HALF_OPEN, "cooldown-expired")
            return RUN_PROBE, record
        return RUN_BYTECODE, None

    def record_success(self, sim_s: float):
        self.advance(sim_s)
        self.successes += 1
        self._window.append((self.now_s, True))
        self._prune_window()
        return None

    def record_failure(self, sim_s: float, error: str = ""):
        """A device failure that exhausted its retries. Returns the
        OPEN transition when the failure trips the breaker."""
        self.advance(sim_s)
        self.failures += 1
        self._window.append((self.now_s, False))
        if (
            self.state == CLOSED
            and self._window_failures() >= self.policy.failure_threshold
        ):
            return self._open(f"failures >= {self.policy.failure_threshold}"
                              + (f" ({error})" if error else ""))
        return None

    def record_fallback(self, sim_s: float) -> None:
        """A batch served by bytecode while OPEN; advances the clock so
        the quarantine can expire."""
        self.advance(sim_s)
        self.fallbacks += 1

    def record_probe(self, ok: bool, sim_s: float, reason: str = ""):
        """One shadow probe verdict. Returns the resulting transition
        (CLOSED on enough clean probes, OPEN on any failed probe) or
        None while the probe window is still filling."""
        self.advance(sim_s)
        self.probes += 1
        if not ok:
            self.probe_failures += 1
            return self._open(reason or "probe-failed")
        self.clean_probes += 1
        if self.clean_probes >= self.policy.probe_batches:
            self.repromotions += 1
            self._window.clear()
            self.clean_probes = 0
            return self._transition(CLOSED, "probes-clean")
        return None

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "device": self.device,
            "state": self.state,
            "trips": self.trips,
            "now_s": self.now_s,
            "successes": self.successes,
            "failures": self.failures,
            "fallbacks": self.fallbacks,
            "probes": self.probes,
            "probe_failures": self.probe_failures,
            "repromotions": self.repromotions,
            "covered_task_ids": list(self.covered_task_ids),
            "transitions": [t.to_dict() for t in self.transitions],
        }

    # -- checkpoint state (docs/RECOVERY.md) ---------------------------

    def export_state(self) -> dict:
        """Full breaker snapshot for a checkpoint frame — everything
        :meth:`to_dict` reports plus the private machinery (sliding
        window, quarantine anchor, probe streak)."""
        payload = self.to_dict()
        payload["opened_at_s"] = self.opened_at_s
        payload["clean_probes"] = self.clean_probes
        payload["window"] = [[at_s, ok] for at_s, ok in self._window]
        return payload

    def restore_state(self, payload: dict) -> None:
        """Restore a snapshot taken by :meth:`export_state`."""
        self.state = payload["state"]
        self.now_s = float(payload["now_s"])
        self.trips = int(payload["trips"])
        self.opened_at_s = payload.get("opened_at_s")
        self.clean_probes = int(payload.get("clean_probes", 0))
        self.successes = int(payload["successes"])
        self.failures = int(payload["failures"])
        self.fallbacks = int(payload["fallbacks"])
        self.probes = int(payload["probes"])
        self.probe_failures = int(payload["probe_failures"])
        self.repromotions = int(payload["repromotions"])
        self.covered_task_ids = list(payload.get("covered_task_ids", ()))
        self.transitions = [
            TransitionRecord.from_dict(t) for t in payload["transitions"]
        ]
        self._window = deque(
            (float(at_s), bool(ok)) for at_s, ok in payload["window"]
        )

    def __repr__(self) -> str:
        return (
            f"<DeviceHealth {self.device}:{self.key} {self.state} "
            f"trips={self.trips} t={self.now_s:.3g}s>"
        )


class HealthRegistry:
    """All breakers for one runtime, plus their observability.

    The engine reports every offload outcome here; the registry owns
    the breakers, emits ``breaker.transition`` spans, ``health.*``
    counters, and the per-breaker state gauge, and invokes every
    listener added with :meth:`add_listener` (the engine's policy-sync
    hook: install a revocable bytecode directive on OPEN, lift it on
    HALF_OPEN/CLOSED) for every transition.
    """

    def __init__(self, policy: "HealthPolicy | None" = None,
                 tracer=NULL_TRACER):
        self.policy = policy or HealthPolicy()
        self.tracer = tracer
        self.metrics = getattr(tracer, "metrics", NULL_METRICS)
        # A service-scoped registry is shared by many concurrent
        # runtimes, each syncing its own substitution policy — so
        # transitions fan out to a *list* of listeners.
        self._listeners: list = []
        self._lock = threading.Lock()
        self._breakers: dict = {}   # (device, key) -> DeviceHealth

    # -- listeners ---------------------------------------------------------

    def add_listener(self, fn) -> None:
        """Subscribe ``fn(record, transition)`` to breaker transitions
        (idempotent). Runtimes sharing a service-scoped registry each
        register their policy-sync hook here."""
        with self._lock:
            if fn not in self._listeners:
                self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        """Unsubscribe a listener (no-op if absent) — called when a
        runtime sharing this registry is closed."""
        with self._lock:
            try:
                self._listeners.remove(fn)
            except ValueError:
                pass

    # -- breaker access ----------------------------------------------------

    def breaker(self, device: str, key: str,
                covered_task_ids=()) -> DeviceHealth:
        handle = (device, key)
        with self._lock:
            record = self._breakers.get(handle)
            if record is None:
                record = DeviceHealth(
                    device, key, self.policy,
                    covered_task_ids=covered_task_ids,
                )
                self._breakers[handle] = record
                self._gauge(record)
            elif covered_task_ids and not record.covered_task_ids:
                record.covered_task_ids = list(covered_task_ids)
            return record

    def state_of(self, device: str, key: str) -> "str | None":
        with self._lock:
            record = self._breakers.get((device, key))
            return record.state if record is not None else None

    def breakers(self) -> list:
        with self._lock:
            return list(self._breakers.values())

    def family_open(self, device: str) -> bool:
        """True when any breaker for ``device`` is currently OPEN —
        the service's degradation signal: don't lease slots of a
        family the fleet has quarantined; let the job run its spans
        through the shared breakers (bytecode fallback) instead."""
        with self._lock:
            return any(
                record.state == OPEN
                for (dev, _key), record in self._breakers.items()
                if dev == device
            )

    # -- outcome reports ---------------------------------------------------

    def decide(self, device: str, key: str, covered_task_ids=()):
        """Mediate one offload: returns ``RUN_DEVICE``,
        ``RUN_BYTECODE``, or ``RUN_PROBE``."""
        record = self.breaker(device, key, covered_task_ids)
        with self._lock:
            action, transition = record.decide()
        self._observe(record, transition)
        return action

    def on_success(self, device: str, key: str, sim_s: float) -> None:
        record = self.breaker(device, key)
        with self._lock:
            transition = record.record_success(sim_s)
        self.metrics.counters.add("health.success")
        self._observe(record, transition)

    def on_failure(self, device: str, key: str, sim_s: float,
                   error: str = "", covered_task_ids=()) -> None:
        record = self.breaker(device, key, covered_task_ids)
        with self._lock:
            transition = record.record_failure(sim_s, error)
        self.metrics.counters.add("health.failure")
        self.metrics.counters.add(f"health.failure[{device}]")
        self._observe(record, transition)

    def on_fallback(self, device: str, key: str, sim_s: float) -> None:
        record = self.breaker(device, key)
        with self._lock:
            record.record_fallback(sim_s)
        self.metrics.counters.add("health.fallback")
        self.metrics.counters.add(f"health.fallback[{device}]")

    def on_probe(self, device: str, key: str, ok: bool, sim_s: float,
                 reason: str = "") -> None:
        record = self.breaker(device, key)
        with self._lock:
            transition = record.record_probe(ok, sim_s, reason)
        counters = self.metrics.counters
        counters.add("health.probe")
        counters.add(
            "health.probe.clean" if ok else "health.probe.failed"
        )
        self._observe(record, transition)

    # -- observability -----------------------------------------------------

    def _gauge(self, record: DeviceHealth) -> None:
        self.metrics.gauge(
            f"breaker.state[{record.device}:{record.key}]"
        ).set(STATE_CODES[record.state])

    def _observe(self, record: DeviceHealth, transition) -> None:
        if transition is None:
            return
        self._gauge(record)
        counters = self.metrics.counters
        counters.add(f"health.transition[{transition.to_state}]")
        if transition.to_state == CLOSED:
            counters.add("health.repromotion")
            counters.add(f"health.repromotion[{record.device}]")
        with self.tracer.span(
            "breaker.transition",
            key=transition.key,
            device=transition.device,
            from_state=transition.from_state,
            to_state=transition.to_state,
            at_s=transition.at_s,
            reason=transition.reason,
            trips=transition.trips,
            cooldown_s=transition.cooldown_s,
        ):
            pass
        for listener in list(self._listeners):
            listener(record, transition)

    # -- checkpoint state (docs/RECOVERY.md) -------------------------------

    def export_state(self) -> list:
        """Snapshot every breaker for a checkpoint frame, in sorted
        (device, key) order so the frame bytes are deterministic."""
        with self._lock:
            records = sorted(
                self._breakers.values(),
                key=lambda r: (r.device, r.key),
            )
            return [record.export_state() for record in records]

    def restore_state(self, rows: list) -> list:
        """Restore breakers snapshotted by :meth:`export_state`,
        creating them as needed; returns the restored records so the
        caller can re-pin OPEN spans into its substitution policy."""
        restored = []
        for row in rows:
            record = self.breaker(
                row["device"], row["key"],
                covered_task_ids=row.get("covered_task_ids", ()),
            )
            with self._lock:
                record.restore_state(row)
                self._gauge(record)
            restored.append(record)
        return restored

    def discard(self, device: str, key: str) -> None:
        """Drop one breaker (no-op if absent) — used when a checkpoint
        resume is abandoned and its restored state must not leak into
        the from-scratch re-run."""
        with self._lock:
            self._breakers.pop((device, key), None)

    # -- report ------------------------------------------------------------

    @property
    def transitions(self) -> list:
        """All transitions across breakers, in per-breaker order."""
        return [
            t for record in self.breakers() for t in record.transitions
        ]

    def to_report(self, app: str = "", entry: str = "",
                  scheduler: str = "") -> dict:
        """The machine-readable health report (``repro.health/1``)."""
        rows = sorted(
            (record.to_dict() for record in self.breakers()),
            key=lambda r: (r["device"], r["key"]),
        )
        policy = self.policy
        totals = {
            "breakers": len(rows),
            "open": sum(1 for r in rows if r["state"] == OPEN),
            "half_open": sum(1 for r in rows if r["state"] == HALF_OPEN),
            "closed": sum(1 for r in rows if r["state"] == CLOSED),
            "transitions": sum(len(r["transitions"]) for r in rows),
            "trips": sum(r["trips"] for r in rows),
            "probes": sum(r["probes"] for r in rows),
            "repromotions": sum(r["repromotions"] for r in rows),
        }
        return {
            "schema": HEALTH_SCHEMA,
            "app": app,
            "entry": entry,
            "scheduler": scheduler,
            "policy": {
                "window": policy.window,
                "window_s": policy.window_s,
                "failure_threshold": policy.failure_threshold,
                "cooldown_s": policy.cooldown_s,
                "probe_batches": policy.probe_batches,
                "quarantine_multiplier": policy.quarantine_multiplier,
                "max_cooldown_s": policy.max_cooldown_s,
            },
            "breakers": rows,
            "totals": totals,
        }

    def __repr__(self) -> str:
        return f"<HealthRegistry {len(self._breakers)} breakers>"


#: Keys every repro.health/1 report must carry.
_REPORT_KEYS = ("schema", "policy", "breakers", "totals")
_BREAKER_KEYS = (
    "key", "device", "state", "trips", "now_s", "successes", "failures",
    "fallbacks", "probes", "probe_failures", "repromotions",
    "covered_task_ids", "transitions",
)
_TRANSITION_KEYS = ("key", "device", "from", "to", "at_s", "reason", "trips")
_STATES = (CLOSED, OPEN, HALF_OPEN)


def validate_health_report(payload) -> list:
    """Schema check for a ``repro.health/1`` report; returns problem
    strings (empty = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"report must be an object, got {type(payload).__name__}"]
    if payload.get("schema") != HEALTH_SCHEMA:
        problems.append(
            f"schema must be {HEALTH_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for key in _REPORT_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    breakers = payload.get("breakers", [])
    if not isinstance(breakers, list):
        problems.append("breakers must be a list")
        breakers = []
    for index, row in enumerate(breakers):
        where = f"breakers[{index}]"
        if not isinstance(row, dict):
            problems.append(f"{where} must be an object")
            continue
        for key in _BREAKER_KEYS:
            if key not in row:
                problems.append(f"{where} missing key {key!r}")
        if row.get("state") not in _STATES:
            problems.append(
                f"{where} has unknown state {row.get('state')!r}"
            )
        previous_at = None
        for t_index, transition in enumerate(row.get("transitions", [])):
            t_where = f"{where}.transitions[{t_index}]"
            if not isinstance(transition, dict):
                problems.append(f"{t_where} must be an object")
                continue
            for key in _TRANSITION_KEYS:
                if key not in transition:
                    problems.append(f"{t_where} missing key {key!r}")
            for end in ("from", "to"):
                if transition.get(end) not in _STATES:
                    problems.append(
                        f"{t_where} has unknown state "
                        f"{transition.get(end)!r}"
                    )
            at_s = transition.get("at_s")
            if isinstance(at_s, (int, float)):
                if previous_at is not None and at_s < previous_at:
                    problems.append(
                        f"{t_where} goes backwards in simulated time"
                    )
                previous_at = at_s
    totals = payload.get("totals")
    if isinstance(totals, dict):
        if totals.get("breakers") != len(breakers):
            problems.append(
                "totals.breakers disagrees with the breakers list"
            )
    elif "totals" in payload:
        problems.append("totals must be an object")
    return problems


def validate_health_file(path: str) -> dict:
    """Load and validate a health report; raises on problems."""
    import json

    with open(path) as f:
        payload = json.load(f)
    problems = validate_health_report(payload)
    if problems:
        raise ConfigurationError(
            f"health report {path} is invalid: " + "; ".join(problems)
        )
    return payload


def render_health_report(report: dict) -> str:
    """The human-readable form of a health report (CLI default)."""
    lines = []
    header = f"device health — {report.get('app') or '?'}"
    if report.get("entry"):
        header += f" ({report['entry']}"
        if report.get("scheduler"):
            header += f", {report['scheduler']} scheduler"
        header += ")"
    lines.append(header)
    policy = report.get("policy", {})
    cooldown = policy.get("cooldown_s")
    lines.append(
        "policy: window={w} failure_threshold={f} cooldown={c} "
        "probe_batches={p} quarantine x{q} (cap {m})".format(
            w=policy.get("window"),
            f=policy.get("failure_threshold"),
            c="off" if cooldown is None else f"{cooldown * 1e6:.6g}us",
            p=policy.get("probe_batches"),
            q=policy.get("quarantine_multiplier"),
            m=f"{policy.get('max_cooldown_s', 0) * 1e6:.6g}us",
        )
    )
    lines.append("")
    breakers = report.get("breakers", [])
    if not breakers:
        lines.append("(no device spans executed)")
    for row in breakers:
        lines.append(
            f"{row['device']}:{row['key']}  [{row['state'].upper()}]  "
            f"trips={row['trips']} ok={row['successes']} "
            f"fail={row['failures']} fallback={row['fallbacks']} "
            f"probes={row['probes']} "
            f"repromotions={row['repromotions']}"
        )
        for transition in row.get("transitions", []):
            extra = ""
            if transition.get("cooldown_s") is not None:
                extra = f" quarantine {transition['cooldown_s'] * 1e6:.6g}us"
            lines.append(
                f"    {transition['at_s'] * 1e6:>12.3f}us  "
                f"{transition['from']} -> {transition['to']}  "
                f"({transition['reason']}){extra}"
            )
    totals = report.get("totals", {})
    if totals:
        lines.append("")
        lines.append(
            "totals: {b} breaker(s), {t} transition(s), {tr} trip(s), "
            "{p} probe(s), {r} re-promotion(s)".format(
                b=totals.get("breakers", 0),
                t=totals.get("transitions", 0),
                tr=totals.get("trips", 0),
                p=totals.get("probes", 0),
                r=totals.get("repromotions", 0),
            )
        )
    return "\n".join(lines)
