# Developer entry points.  PYTHONPATH=src everywhere: the package is laid
# out src/ style and the offline container has no editable install.

PY := PYTHONPATH=src python

.PHONY: test test-dev test-slow check bench bench-quick bench-pytest simulate docs-check coverage

# Tier-1: fast, deterministic, no benchmarks (see pytest.ini).
test:
	$(PY) -m pytest -x -q

# The threaded and networked suites under Python's development mode
# (-X dev): unclosed sockets and files surface as ResourceWarnings in
# pytest's warning summary, and faulthandler dumps every thread's stack
# on a hard crash.
test-dev:
	$(PY) -X dev -m pytest -q tests/chatroom tests/agents tests/nlp tests/serving

# Just the @slow suites (CI's nightly job): full 200-seed segmented
# parity at aggressive freeze cadence, chaos soak, full simulate runs.
test-slow:
	$(PY) -m pytest -m slow -q

# CI gate: tier-1 tests, the development-mode run of the threaded
# suites, a bench smoke run (scratch output, so the
# committed BENCH_parse.json and its pinned seed baseline stay put),
# and the per-subsystem coverage floors.
check: test test-dev bench-quick coverage

# Line-coverage floors over the gated subsystems (corpus, durability,
# resilience, state, ontology, linkgrammar; stdlib tracer, offline;
# fails on regression below a floor in tools/coverage_gate.py).
coverage:
	$(PY) tools/coverage_gate.py

# Markdown link check over README.md + docs/ (offline, stdlib-only;
# exit status = number of broken links, capped at 100; 0 = clean).
docs-check:
	python tools/docs_check.py

# Deterministic perf harness; writes BENCH_parse.json at the repo root.
bench:
	$(PY) -m repro bench

# Smoke check: 10% iteration counts, written to a scratch path so the
# committed BENCH_parse.json (and its pinned seed baseline) stays put.
# Includes the parallel_drain workload, so every CI run exercises a
# 4-worker thread-pool drain with its barrier merge end to end, and
# the serving workload, so every CI run boots the live HTTP front door
# under 4 concurrent clients, on top of the unit suites.
bench-quick:
	$(PY) -m repro bench --quick --output $${TMPDIR:-/tmp}/BENCH_quick.json

# The statistically careful pytest-benchmark suites (figures + scalability).
bench-pytest:
	$(PY) -m pytest benchmarks -q

simulate:
	$(PY) -m repro simulate
