# Development entry points.  Everything runs from the source tree via
# PYTHONPATH=src, so no install step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-stream test-faults test-server test-archive test-store test-sim bench-e2e bench-e2e-smoke lint

# The static gate runs first so doc drift, tracked build artifacts, an
# area over its line budget or a lint invariant violation fail tier-1
# locally, before the (slower) pytest pass starts.
test: lint
	$(PYTHON) -m pytest -x -q

# The streaming suite on its own: streaming-vs-batch bit-identity
# across both shard backends (including post-eviction reads and
# exports), the hot-memory bound, and the online regression alarm
# (all of it also rides in `make test`).
test-stream:
	$(PYTHON) -m pytest tests/test_streaming.py -q

# The fault-tolerance suite on its own: kill -9 against real
# shard-server subprocesses, restart/rejoin resync round-trips, the
# injected-fault matrix and the session-list properties (all of it
# also rides in `make test`).
test-faults:
	$(PYTHON) -m pytest tests/test_fault_tolerance.py -q

# The live-query-server suite on its own: bit-identity at every block
# boundary on both backends, the concurrent hammer, and the
# kill-mid-query bound (all of it also rides in `make test`).
test-server:
	$(PYTHON) -m pytest tests/test_query_server.py -q

# The archive codec on its own: golden bytes, the Hypothesis
# round-trip/reference properties, located input errors, deterministic
# gzip and atomic replace (all of it also rides in `make test`).
test-archive:
	$(PYTHON) -m pytest tests/test_telemetry_export.py tests/test_archive_codec.py -q

# The storage layer on its own: the store's queries and chunk list,
# the spill log's byte round trip, the one-server read's memory bound,
# `preadv` calls and by-server index builds (counted per mutation),
# sharded-vs-single bit-identity, and the Hypothesis retention and
# interleaving suites, sliced one-server reads included (all of it
# also rides in `make test`).
test-store:
	$(PYTHON) -m pytest tests/test_telemetry_store.py tests/test_spill_log.py tests/test_sharded_store.py tests/test_property_based.py -q

# The simulator on its own: the golden stream digests, determinism and
# sharded/blocked equivalence, the counter kernel, and draw-ahead
# against the frozen one-thread step (Hypothesis), with its drain rule
# and schedule replayer (all of it also rides in `make test`).
test-sim:
	$(PYTHON) -m pytest tests/test_sim_golden.py tests/test_sim_equivalence.py tests/test_cluster_server.py tests/test_sim_draw_ahead.py -q

# The end-to-end benchmark of BENCHMARK.json (benchmarks/e2e/README.md);
# the smoke form runs one fast iteration per workload.
bench-e2e:
	python3 benchmarks/e2e/run.py

bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

# The one static gate (tools/repro_lint): AST invariants over src/repro
# (determinism, lock discipline, rpc-surface), README/docs drift from
# the live CLI, tracked files that .gitignore ignores, and per-area
# line budgets.  See docs/LINTING.md; `--json` gives machine-readable
# findings.
lint:
	$(PYTHON) tools/repro_lint
