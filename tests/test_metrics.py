"""Tests for the repro.obs.metrics registry.

Covers counter shard merging under real thread contention (including a
full ThreadedScheduler run), gauge min/max tracking, histogram bucket
placement and clamped quantile estimation, registry snapshot/reset,
and the zero-overhead null registry.
"""

import threading

import pytest

from repro.apps import SUITE
from repro.compiler import CompileOptions, CompilerSession
from repro.obs import (
    NULL_METRICS,
    Counters,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    as_metrics,
)
from repro.obs.metrics import (
    DEPTH_BUCKETS,
    SIZE_BUCKETS,
    TIME_US_BUCKETS,
    default_buckets_for,
)
from repro.runtime import Runtime, RuntimeConfig


class TestCountersSharding:
    def test_add_merges_across_threads(self):
        counters = Counters()
        n_threads, n_incr = 8, 2000

        def worker():
            for _ in range(n_incr):
                counters.add("hits")
                counters.add("bytes", 3)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = counters.snapshot()
        assert snap["hits"] == n_threads * n_incr
        assert snap["bytes"] == 3 * n_threads * n_incr

    def test_concurrent_snapshot_never_loses_counts(self):
        """Snapshots taken while writers are mutating must never see a
        total above the final value and the final total must be exact
        (the dict-resize retry path in ``_merged``)."""
        counters = Counters()
        stop = threading.Event()
        n_incr = 5000

        def writer(worker_id):
            for i in range(n_incr):
                counters.add("n")
                # Churn the shard dict's key set so resizes happen
                # while the reader iterates.
                counters.add(f"k{worker_id}.{i % 97}")

        def reader():
            while not stop.is_set():
                snap = counters.snapshot()
                assert snap.get("n", 0) <= 4 * n_incr

        writers = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        observer = threading.Thread(target=reader)
        observer.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        observer.join()
        assert counters.get("n") == 4 * n_incr

    def test_reset_clears_every_shard(self):
        counters = Counters()
        done = threading.Event()

        def other_thread():
            counters.add("x", 7)
            done.set()

        t = threading.Thread(target=other_thread)
        t.start()
        done.wait()
        t.join()
        counters.add("x", 1)
        assert counters.get("x") == 8
        counters.reset()
        assert counters.snapshot() == {}

    def test_threaded_scheduler_counts_are_exact(self):
        """Satellite regression test: a ThreadedScheduler run mutates
        the shared counters from every stage thread; totals must match
        the equivalent sequential run exactly."""
        totals = {}
        for scheduler in ("sequential", "threaded"):
            tracer = Tracer()
            compiled = CompilerSession(
                CompileOptions(tracer=tracer)
            ).compile(SUITE["bitflip"].source)
            entry, args = SUITE["bitflip"].default_args()
            Runtime(
                compiled, RuntimeConfig(scheduler=scheduler, tracer=tracer)
            ).run(entry, args)
            snap = tracer.counters.snapshot()
            totals[scheduler] = {
                k: v
                for k, v in snap.items()
                if k.startswith(("marshal.", "substitution."))
            }
        assert totals["threaded"] == totals["sequential"]
        assert totals["threaded"]["marshal.batch.crossings"] >= 1


class TestGauge:
    def test_set_tracks_min_max_updates(self):
        g = Gauge("queue.depth")
        for v in (3, 1, 8, 5):
            g.set(v)
        snap = g.snapshot()
        assert snap["value"] == 5
        assert snap["min"] == 1
        assert snap["max"] == 8
        assert snap["updates"] == 4

    def test_add_is_relative(self):
        g = Gauge("inflight")
        g.add(2)
        g.add(3)
        g.add(-4)
        assert g.value == 1
        assert g.max == 5


class TestHistogram:
    def test_bucket_placement_and_overflow(self):
        h = Histogram("t", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 5000):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [1, 1, 1]
        assert snap["overflow"] == 1
        assert snap["count"] == 4
        assert snap["min"] == 0.5
        assert snap["max"] == 5000

    def test_quantiles_clamped_to_observed_range(self):
        """Bucketed interpolation must never report an estimate above
        the observed maximum (wide-bucket artifact)."""
        h = Histogram("bytes", buckets=SIZE_BUCKETS)
        h.observe(6150)
        h.observe(6150)
        assert h.quantile(0.5) <= 6150
        assert h.quantile(0.99) <= 6150
        assert h.quantile(0.5) >= 0

    def test_quantile_ordering(self):
        h = Histogram("us", buckets=TIME_US_BUCKETS)
        for v in range(1, 1001):
            h.observe(float(v))
        p50, p90, p99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
        assert p50 <= p90 <= p99 <= 1000
        assert 300 <= p50 <= 700

    def test_default_buckets_by_name(self):
        assert default_buckets_for("marshal.crossing_us") == TIME_US_BUCKETS
        assert default_buckets_for("stage.item_latency_us[x]") == (
            TIME_US_BUCKETS
        )
        assert default_buckets_for("queue.depth[a->b]") == DEPTH_BUCKETS
        assert default_buckets_for("marshal.bytes") == SIZE_BUCKETS

    def test_reset(self):
        h = Histogram("t")
        h.observe(5)
        h.reset()
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None


class TestMetricsRegistry:
    def test_instruments_are_memoized(self):
        m = MetricsRegistry()
        assert m.histogram("a_us") is m.histogram("a_us")
        assert m.gauge("g") is m.gauge("g")

    def test_snapshot_sections(self):
        m = MetricsRegistry()
        m.counters.add("c", 2)
        m.gauge("g").set(1)
        m.histogram("h_us").observe(10)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"]["g"]["value"] == 1
        assert snap["histograms"]["h_us"]["count"] == 1

    def test_reset_clears_all(self):
        m = MetricsRegistry()
        m.counters.add("c")
        m.gauge("g").set(1)
        m.histogram("h").observe(1)
        m.reset()
        snap = m.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"]["g"]["updates"] == 0
        assert snap["histograms"]["h"]["count"] == 0

    def test_concurrent_histogram_creation(self):
        m = MetricsRegistry()
        results = []

        def create():
            results.append(m.histogram("shared_us"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(h is results[0] for h in results)


class TestNullMetrics:
    def test_disabled_and_silent(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counters.add("x")
        NULL_METRICS.gauge("g").set(3)
        NULL_METRICS.histogram("h").observe(1.0)
        snap = NULL_METRICS.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_instruments_are_shared_singletons(self):
        assert NULL_METRICS.gauge("a") is NULL_METRICS.gauge("b")
        assert NULL_METRICS.histogram("a") is NULL_METRICS.histogram("b")

    def test_as_metrics_coercion(self):
        live = MetricsRegistry()
        assert as_metrics(live) is live
        assert as_metrics(None) is NULL_METRICS

    def test_tracer_owns_registry(self):
        tracer = Tracer()
        assert tracer.metrics.enabled
        assert tracer.counters is tracer.metrics.counters


class TestRuntimeInstrumentation:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer()
        compiled = CompilerSession(
            CompileOptions(tracer=tracer)
        ).compile(SUITE["bitflip"].source)
        entry, args = SUITE["bitflip"].default_args()
        outcome = Runtime(
            compiled, RuntimeConfig(scheduler="threaded", tracer=tracer)
        ).run(entry, args)
        return tracer, outcome

    def test_marshal_histograms_populated(self, traced):
        tracer, _ = traced
        snap = tracer.metrics.snapshot()["histograms"]
        assert snap["marshal.crossing_us"]["count"] >= 2
        assert snap["marshal.batch.size"]["count"] >= 1
        assert snap["marshal.bytes_per_crossing"]["min"] > 0

    def test_offload_histograms_populated(self, traced):
        tracer, _ = traced
        snap = tracer.metrics.snapshot()["histograms"]
        assert snap["offload.batch.items"]["count"] >= 1
        assert snap["offload.kernel_us"]["sum"] > 0

    def test_queue_depth_sampled_per_edge(self, traced):
        tracer, _ = traced
        snap = tracer.metrics.snapshot()
        depth_hists = {
            name: h
            for name, h in snap["histograms"].items()
            if name.startswith("queue.depth[")
        }
        assert len(depth_hists) >= 2  # source->filter, filter->sink
        for hist in depth_hists.values():
            assert hist["count"] >= 1
            assert hist["max"] >= 0

    def test_queue_wait_counters_per_edge(self, traced):
        tracer, _ = traced
        snap = tracer.counters.snapshot()
        producer = [k for k in snap if k.startswith("queue.producer_wait_us[")]
        consumer = [k for k in snap if k.startswith("queue.consumer_wait_us[")]
        assert producer and consumer

    def test_stage_spans_carry_queue_wait(self, traced):
        tracer, _ = traced
        stages = tracer.find("run.graph.stage")
        assert stages
        for span in stages:
            assert "queue_wait_us" in span.attributes
            assert span.attributes["queue_wait_us"] >= 0.0

    def test_disabled_runtime_records_nothing(self):
        compiled = CompilerSession().compile(SUITE["bitflip"].source)
        entry, args = SUITE["bitflip"].default_args()
        Runtime(compiled, RuntimeConfig(scheduler="threaded")).run(
            entry, args
        )
        assert NULL_METRICS.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
