# Developer entry points.  `make check` is what CI runs: lint (when ruff is
# available locally) plus the tier-1 test suite.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test test-dev perfbench-test bench bench-collect bench-smoke bench-service-smoke serve-smoke solvers-smoke chaos-smoke obs-smoke incremental-smoke shard-smoke

check: lint test perfbench-test bench-collect solvers-smoke incremental-smoke serve-smoke chaos-smoke obs-smoke shard-smoke bench-smoke bench-service-smoke

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

# tier-1 under the development-mode runtime checks, with an unclosed
# socket or file (ResourceWarning) failing the run
test-dev:
	$(PYTHON) -X dev -W error::ResourceWarning -m pytest -x -q

# the end-to-end benchmark's own helper tests (percentiles, /proc CPU sums,
# host-speed scaling); tier-1 testpaths stay `tests`
perfbench-test:
	$(PYTHON) -m pytest perfbench -q

bench:
	$(PYTHON) -m pytest benchmarks -q -s

# import every benchmark without running it, so a broken import (the
# benchmarks share tests/oracles.py with the test-suite) fails CI
bench-collect:
	$(PYTHON) -m pytest benchmarks --collect-only -q

# time the structured Newton kernels against the dense oracle on a small
# instance; soft regression gate (fails only on gross slowdowns or any
# energy disagreement beyond 1e-9)
bench-smoke:
	$(PYTHON) -m benchmarks.bench_optimal_kernel --smoke

# one alternating pair of the 64-connection serving benchmark (default
# batching vs batch_max=1, cold and warm cache, 1 pool worker): every
# request must answer 200; no ratio gate.  The one gate that pushes a
# backlog through a fault-free process pool
bench-service-smoke:
	$(PYTHON) -m benchmarks.bench_service_throughput --smoke

# replay a seeded 500-event arrival/completion/advance stream through the
# incremental session per policy; every delta plan must match a fresh batch
# rebuild bit-for-bit and beat it by the soft 3x speedup gate
incremental-smoke:
	$(PYTHON) -m repro.core.incremental_smoke

# boot the scheduling daemon on an ephemeral port, hit every endpoint once,
# shut down gracefully
serve-smoke:
	$(PYTHON) -m repro.service.smoke

# enumerate the engine registry and run every registered solver once on a
# shared fixture (feasible, validator-clean, schedule materialized)
solvers-smoke:
	$(PYTHON) -m repro.engine.smoke

# seeded chaos run against a real worker pool: killed workers, delayed and
# dropped responses, malformed payloads — asserts zero lost acknowledged
# jobs, bit-identical retries, visible degradation, and a bounded p99
chaos-smoke:
	$(PYTHON) -m repro.service.chaos --seed 7

# 3-shard router + seeded schedule/admit mix: zero lost acks, merged
# Prometheus scrape parses with per-shard labels, and the consistent-hash
# /admit sessions are bit-equal to a 1-shard run
shard-smoke:
	$(PYTHON) -m repro.service.shard_smoke

# traced daemon + loadgen: every scheduled trace must carry the complete
# service→pool→engine→solver span chain, /metrics must expose parseable
# Prometheus text, and tracing must stay within 5% of untraced p50
obs-smoke:
	$(PYTHON) -m repro.obs.smoke
