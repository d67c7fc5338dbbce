"""Crash-consistent recovery: modeled checkpoint overhead and
restart/recovery latency (docs/RECOVERY.md).

Two claims, measured:

1. **Checkpoint overhead** — persisting delta frames at the default
   cadence (every 32nd decision point) costs a modeled
   ``PERSIST_FIXED_S + bytes / PERSIST_BYTES_PER_S`` per frame. Summed
   over a run, that must stay under 10% of the run's own modeled
   seconds for every streaming app measured — otherwise crash
   consistency would not be a default-on-able feature.

2. **Recovery latency** — the wall-clock cost of the full
   crash/restart loop (journal replay, checkpoint resume, convergence)
   and of replaying a journal alone. Wall metrics are informational
   (``kind="wall"``): recovery work is real Python execution, not
   simulated time, so the trajectory gate does not judge them.

Results land in ``benchmarks/out/BENCH_recovery.json`` in the
``repro.bench/1`` envelope, so the PR 9 trajectory gate tracks the
modeled overhead per PR.
"""

import time

from repro.apps import compile_app, workloads
from repro.runtime import CheckpointRecorder, Runtime, RuntimeConfig
from repro.service import load_journal, run_recovery_driver

from harness import bench_metric, format_table, write_bench_report

#: Modeled checkpoint overhead every measured app must stay under at
#: the default cadence (docs/RECOVERY.md).
ACCEPTANCE_OVERHEAD_PCT = 10.0

#: Streaming apps measured, with workloads scaled to 4096-item
#: streams in 64-item batches so the default cadence actually fires
#: (64 decision points -> 2 frames at interval 32). These bit-op
#: streams are launch-dominated — the worst case for the fixed persist
#: latency — so clearing the bar here clears it for compute-heavy
#: apps too. Map apps make a single device consult and never reach the
#: interval; their overhead is trivially zero.
APPS = ("bitflip", "gray_pipeline", "parity", "crc8")
STREAM_ITEMS = 4096
BATCH = 64


def _measure_overhead(name: str, tmp_path) -> dict:
    entry, args = getattr(workloads, f"{name}_args")(STREAM_ITEMS)
    compiled = compile_app(name)
    recorder = CheckpointRecorder(
        str(tmp_path / f"{name}.ckpt"), job_id=f"bench-{name}"
    )
    runtime = Runtime(
        compiled,
        RuntimeConfig(
            scheduler="sequential",
            batch_size=BATCH,
            device_batch_size=BATCH,
        ),
        checkpointer=recorder,
    )
    outcome = runtime.run(entry, args)
    overhead_pct = 100.0 * recorder.modeled_persist_s / (
        outcome.ledger.total_s or 1.0
    )
    return {
        "app": name,
        "run_modeled_s": outcome.ledger.total_s,
        "persist_modeled_s": recorder.modeled_persist_s,
        "frames": recorder.frames_persisted,
        "overhead_pct": overhead_pct,
    }


def test_bench_recovery(benchmark, tmp_path, capsys):
    def run():
        rows = [_measure_overhead(name, tmp_path) for name in APPS]

        journal_dir = str(tmp_path / "journal")
        recover_wall = time.perf_counter()
        report = run_recovery_driver(
            journal_dir, jobs=6, scheduler="sequential", seed=1,
            crash_call=3,
        )
        recover_wall = time.perf_counter() - recover_wall

        replay_wall = time.perf_counter()
        snapshot = load_journal(journal_dir)
        replay_wall = time.perf_counter() - replay_wall
        return rows, report, recover_wall, replay_wall, snapshot

    rows, report, recover_wall, replay_wall, snapshot = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    worst = max(rows, key=lambda r: r["overhead_pct"])
    driver = report["driver"]
    assert driver["verified_jobs"] == 6
    assert driver["restarts"] >= 1
    for row in rows:
        assert row["frames"] >= 1, f"{row['app']}: no frames persisted"
        assert row["overhead_pct"] < ACCEPTANCE_OVERHEAD_PCT, (
            f"{row['app']}: modeled checkpoint overhead "
            f"{row['overhead_pct']:.2f}% breaches the "
            f"{ACCEPTANCE_OVERHEAD_PCT:.0f}% bar"
        )

    table = [
        [
            row["app"],
            f"{row['run_modeled_s'] * 1e3:,.2f}ms",
            f"{row['persist_modeled_s'] * 1e6:,.0f}us",
            f"{row['frames']}",
            f"{row['overhead_pct']:.2f}%",
        ]
        for row in rows
    ]
    with capsys.disabled():
        print()
        print(
            format_table(
                ["app", "modeled run", "modeled persist", "frames",
                 "overhead"],
                table,
            )
        )
        print(
            f"recovery: {driver['restarts']} restart(s), "
            f"{driver['checkpoint_resumes']} checkpoint resume(s), "
            f"{driver['verified_jobs']} job(s) verified in "
            f"{recover_wall:.2f}s wall; journal replay of "
            f"{snapshot.records} record(s) in "
            f"{replay_wall * 1e3:.1f}ms wall"
        )

    path = write_bench_report(
        "recovery",
        {
            "checkpoint_overhead_pct": bench_metric(
                worst["overhead_pct"], unit="percent", direction="lower"
            ),
            "checkpoint_persist_s": bench_metric(
                sum(r["persist_modeled_s"] for r in rows),
                unit="seconds",
                direction="lower",
            ),
            "recovery_wall_s": bench_metric(
                recover_wall, unit="seconds", direction="lower",
                kind="wall",
            ),
            "journal_replay_wall_s": bench_metric(
                replay_wall, unit="seconds", direction="lower",
                kind="wall",
            ),
        },
    )
    with capsys.disabled():
        print(f"wrote {path}")
