# Convenience targets for the Orionet reproduction.

PYTHON ?= python

.PHONY: install test test-slow test-pool test-service test-stall test-kernels soak chaos verify-chaos serve bench stats reproduce reproduce-tiny report examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Deterministic fault-injection suite: every corruption class must be
# detected by checked mode or recovered by the fallback chain.
chaos:
	$(PYTHON) -m pytest tests/robustness/ -q

# Certificate chaos sweep: every bit-flip corruption class (distances,
# checkpoint sidecars) x every serve method x seeds,
# checked end-to-end against ground truth — zero silent wrong answers.
verify-chaos:
	$(PYTHON) -m pytest tests/verify/ -q -m ''

# Serve-pipeline suite: checkpoint/resume determinism, deadlines,
# circuit breakers, load shedding (docs/robustness.md).
serve:
	$(PYTHON) -m pytest tests/serve/ -q

# Nightly-only stress/invariant suites excluded from the default run.
test-slow:
	$(PYTHON) -m pytest tests/ -m slow

# Multi-process backend suites: the conformance matrix's process-pool
# cells (answer records byte-equal to serial), worker-kill chaos, and
# shared-memory leak checks (fork-heavy, not tier-1; POOL_SMOKE=1 trims
# the matrix cells to the CI slice).
test-pool:
	$(PYTHON) -m pytest tests/test_conformance.py -q -m pool
	$(PYTHON) -m pytest tests/parallel/test_pool_chaos.py tests/graphs/test_shm.py -q -m ''

# The conformance matrix's query-service cells on a process pool: service
# answers bit-identical to serial replays of its own coalesced batches,
# on a persistent warm pool at 1 and 2 workers.
test-service:
	$(PYTHON) -m pytest tests/test_conformance.py -q -m service

# Straggler chaos: a pool worker stalls mid-shard (never killed) across
# every batch method x 1/2/4 workers — the batch deadline times the
# stall out and quarantines the workers once, the respawned pool then
# answers byte-identically to serial, and the pipeline and service
# recover via the breaker/resilient chain (docs/robustness.md).
test-stall:
	$(PYTHON) -m pytest tests/parallel/test_pool_stall_chaos.py -q -m stall \
		-W error::pytest.PytestUnhandledThreadExceptionWarning

# Scatter-min kernel suites: byte-for-byte property checks of the
# sort_reduceat kernel against the np.minimum.at oracle kept in
# tests/kernels/, plus the conformance matrix's kernel cells (every
# single-query and batch method run with the oracle through kernel=,
# distances, paths and answer records byte-equal to default runs).
test-kernels:
	$(PYTHON) -m pytest tests/kernels/ -q
	$(PYTHON) -m pytest tests/test_conformance.py -q -k kernel

# Deterministic soak harness: N seeded clients, a 2-worker pool,
# injected worker SIGKILLs, and clock-driven deadline expiry.  Zero
# silent wrong answers, zero stuck futures, zero shm leaks.
soak:
	$(PYTHON) -m pytest tests/serve/test_service_soak.py -q -m soak

# Nightly benchmark pass: the seeded regression workload (gated against
# the newest BENCH_*.json) plus the pytest-benchmark micro suites.
bench:
	$(PYTHON) -m repro bench --scale small --check
	$(PYTHON) -m pytest benchmarks/ -m bench --benchmark-only

# Seeded observability workload: text exposition of every metric family
# (see docs/observability.md for the catalogue).
stats:
	$(PYTHON) -m repro stats

# Regenerate every paper artifact (Tab. 3/4, Fig. 1/4-7) + extensions.
reproduce:
	$(PYTHON) -m repro.experiments.run_all --scale small
	$(PYTHON) -m repro.experiments.report --scale small

reproduce-tiny:
	$(PYTHON) -m repro.experiments.run_all --scale tiny
	$(PYTHON) -m repro.experiments.report --scale tiny

report:
	$(PYTHON) -m repro.experiments.report --scale small

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf .pytest_cache .benchmarks .hypothesis build src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
