# Liquid Metal reproduction — common development targets.

PYTHON ?= python

.PHONY: test bench bench-smoke bench-refresh bench-gate examples trace-smoke \
	fault-smoke profile-smoke health-smoke harvest-smoke serve-smoke \
	recover-smoke all clean

test: trace-smoke fault-smoke profile-smoke health-smoke harvest-smoke \
		serve-smoke recover-smoke bench-smoke bench-gate
	$(PYTHON) -m pytest tests/

# The -m "" overrides pyproject's default "not slow" filter so the
# full-scale benchmark variants run too.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -m ""

# Fast marshaling/fusion/cache/recovery benchmarks: produce
# benchmarks/out/BENCH_marshal.json (>=2x batched throughput bar,
# docs/PERFORMANCE.md), benchmarks/out/BENCH_fusion.json (>=2x
# fused device-path speedup with strictly fewer boundary crossings,
# docs/FUSION.md), and benchmarks/out/BENCH_recovery.json (<10%
# modeled checkpoint overhead at the default cadence,
# docs/RECOVERY.md) without the slow variants.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_bench_marshal_batch.py \
		benchmarks/test_bench_fusion.py \
		benchmarks/test_bench_artifact_cache.py \
		benchmarks/test_bench_recovery.py \
		--benchmark-disable -q --bench-out benchmarks/out

# Refresh every committed report under benchmarks/out/ (all BENCH_*.json
# and fig4_bitflip.vcd). A plain pytest run writes them to a temporary
# directory instead, so the test suite never rewrites tracked files.
bench-refresh:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ \
		--benchmark-disable -q --bench-out benchmarks/out

# The performance-trajectory regression gate (docs/TRAJECTORY.md):
# compare the last two committed snapshots under benchmarks/changelogs/
# and fail on any >10% modeled regression along the critical path.
# Skips gracefully (exit 0) while the changelog has fewer than two
# entries, so a fresh checkout still builds.
bench-gate:
	PYTHONPATH=src $(PYTHON) -m repro bench gate --threshold 10

# AOT-harvest the whole app suite into a scratch cache, prove every
# backend warm-starts (the harvest command exits non-zero otherwise),
# then integrity-check every stored entry and print the stats summary
# (docs/CACHING.md).
harvest-smoke:
	mkdir -p benchmarks/out
	rm -rf benchmarks/out/cache_smoke
	PYTHONPATH=src $(PYTHON) -m repro harvest \
		--cache-dir benchmarks/out/cache_smoke \
		-o benchmarks/out/harvest_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro cache verify \
		--cache-dir benchmarks/out/cache_smoke
	PYTHONPATH=src $(PYTHON) -m repro cache stats \
		--cache-dir benchmarks/out/cache_smoke

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/gpu_option_pricing.py
	$(PYTHON) examples/fpga_waveform.py
	$(PYTHON) examples/heterogeneous_pipeline.py
	$(PYTHON) examples/adaptive_migration.py
	$(PYTHON) examples/reproduce_speedups.py

# Export a Chrome trace end-to-end and re-validate it against the
# trace-event schema (the `python -m repro trace` command already
# validates in-process; the second load catches serialization bugs).
trace-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro trace mandelbrot \
		-o benchmarks/out/trace_smoke.json \
		--jsonl benchmarks/out/trace_smoke.jsonl
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.obs import validate_trace_file; \
	validate_trace_file('benchmarks/out/trace_smoke.json'); \
	print('trace-smoke: benchmarks/out/trace_smoke.json valid')"

# Profile a GPU map app and a streaming graph app end-to-end, writing
# the machine-readable reports, then re-validate both files against
# the repro.profile/1 schema (docs/PROFILING.md). Catches regressions
# in the metrics registry, the profiler, and the report serializer.
profile-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro profile mandelbrot --json \
		-o benchmarks/out/profile_smoke_mandelbrot.json > /dev/null
	PYTHONPATH=src $(PYTHON) -m repro profile bitflip \
		--scheduler threaded --json \
		-o benchmarks/out/profile_smoke_bitflip.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.obs import validate_profile_file; \
	validate_profile_file('benchmarks/out/profile_smoke_mandelbrot.json'); \
	validate_profile_file('benchmarks/out/profile_smoke_bitflip.json'); \
	print('profile-smoke: both profile reports valid')"

# Transient-window recovery end-to-end: the first device call fails, so
# the GPU span is demoted, shadow-probed after the breaker cools down,
# and re-promoted within the same run — with output identical to a
# cpu-only run — then the emitted report is re-validated against the
# repro.health/1 schema (docs/RESILIENCE.md).
health-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro health gray_pipeline \
		--plan examples/fault_plans/transient_gpu_window.json \
		--scheduler sequential --batch-size 16 \
		--require-repromotions 1 \
		-o benchmarks/out/health_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.runtime import validate_health_file; \
	validate_health_file('benchmarks/out/health_smoke.json'); \
	print('health-smoke: benchmarks/out/health_smoke.json valid')"

# Multi-tenant co-execution service smoke: 3 tenants x 4 jobs through
# the long-lived service (admission control, device-pool leasing,
# shared breakers), every job verified bit-identical to a standalone
# run, report validated as repro.service/1 (docs/SERVICE.md).
serve-smoke:
	mkdir -p benchmarks/out
	PYTHONPATH=src $(PYTHON) -m repro serve \
		--tenants 3 --jobs-per-tenant 4 --scheduler sequential \
		--verify -o benchmarks/out/serve_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.service import validate_service_file; \
	validate_service_file('benchmarks/out/serve_smoke.json'); \
	print('serve-smoke: benchmarks/out/serve_smoke.json valid')"

# Crash-consistent recovery smoke: submit 6 jobs against a journaled
# service, crash at a seeded device consult, restart-and-recover in a
# loop until convergence, verify every job's digest is bit-identical
# to an uninterrupted baseline, then re-validate the emitted report
# against the repro.recover/1 schema (docs/RECOVERY.md).
recover-smoke:
	mkdir -p benchmarks/out
	rm -rf benchmarks/out/recover_smoke_journal
	PYTHONPATH=src $(PYTHON) -m repro recover \
		--journal-dir benchmarks/out/recover_smoke_journal \
		--jobs 6 --scheduler sequential --seed 1 --crash-call 3 \
		-o benchmarks/out/recover_smoke.json > /dev/null
	PYTHONPATH=src $(PYTHON) -c "\
	from repro.service import validate_recover_file; \
	validate_recover_file('benchmarks/out/recover_smoke.json'); \
	print('recover-smoke: benchmarks/out/recover_smoke.json valid')"

# Kill every accelerator call against a GPU map app and an FPGA stream
# app: both runs must still produce output identical to a cpu-only run,
# with at least one recorded demotion to bytecode (docs/RESILIENCE.md).
fault-smoke:
	PYTHONPATH=src $(PYTHON) -m repro faults mandelbrot \
		--plan examples/fault_plans/kill_devices.json \
		--require-demotions 1
	PYTHONPATH=src $(PYTHON) -m repro faults bitflip \
		--plan examples/fault_plans/kill_devices.json \
		--require-demotions 1

all: test bench

clean:
	rm -rf .pytest_cache .benchmarks benchmarks/out
	find . -name __pycache__ -type d -exec rm -rf {} +
