# Development entry points.  Everything runs from the source tree via
# PYTHONPATH=src, so no install step is required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-stream test-faults test-server test-archive test-store bench-e2e bench-e2e-smoke docs-check hygiene-check lint run-checks check

# The static gates run first so doc drift, tracked build artifacts, or
# a lint invariant violation fail tier-1 locally, before the (slower)
# pytest pass starts.  `run-checks` wraps docs-check, hygiene-check and
# lint with uniform PASS/FAIL reporting; each also remains an
# individual target.
test: run-checks
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
# the spill log's byte round trip and the one-server read's memory
# bound, sharded-vs-single bit-identity, and the Hypothesis retention
# and interleaving suites (all of it also rides in `make test`).
test-store:
	$(PYTHON) -m pytest tests/test_telemetry_store.py tests/test_spill_log.py tests/test_sharded_store.py tests/test_property_based.py -q

# The end-to-end benchmark of BENCHMARK.json (benchmarks/e2e/README.md);
# the smoke form runs one fast iteration per workload.
bench-e2e:
	python3 benchmarks/e2e/run.py

bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --smoke

# Fails when README/docs drift from the actual CLI flags (both
# directions: stale flags mentioned, new flags undocumented).
docs-check:
	$(PYTHON) tools/docs_check.py

# Fails when build artifacts (__pycache__, *.pyc, .pytest_cache,
# *.egg-info) are tracked by git.
hygiene-check:
	$(PYTHON) tools/hygiene_check.py

# AST-based invariant checks over src/repro: determinism (no hidden
# entropy or wall-clock reads), lock discipline (single-owner seam),
# rpc-surface (string dispatch resolves; query surface stays
# read-only).  See docs/LINTING.md; `--json` gives machine-readable findings.
lint:
	$(PYTHON) tools/repro_lint

# All three checkers behind one entry point with uniform PASS/FAIL.
run-checks:
	$(PYTHON) tools/run_checks.py

check: run-checks test
