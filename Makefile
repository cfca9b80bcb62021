# Convenience targets for the repro library.
#
# Targets run from a clean checkout: PYTHONPATH=src stands in for an
# editable install (`make install`).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test lint loc trace-smoke chaos-smoke serve-smoke serve-chaos spill-chaos diff-served diff-spill diff-oocore bench bench-paper perf diff-backends plan-gate run-auto examples docs-check all

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest -x -q tests/

lint:
	ruff check src tests benchmarks examples

# The ROADMAP's size measure: lines of Python under src/.
loc:
	@find src -name '*.py' | xargs cat | wc -l

# One tiny traced run per algorithm, phase sums checked (the CI gate).
trace-smoke:
	$(PYTHON) -m repro trace --all --tuples 20000 --theta 1.0 --check

# Seeded fault sweep: every fault class into every algorithm (the CI gate).
chaos-smoke:
	$(PYTHON) -m repro chaos --seed 42 --tuples 8192 --theta 1.0 \
		--artifact-dir chaos-artifacts

# End-to-end serving scenario over a real socket (the CI gate).
serve-smoke:
	$(PYTHON) -m repro serve --smoke --tuples 4096 --theta 1.0 --seed 42 \
		--trace-out serve-artifacts/serve-trace.jsonl

# Chaos-under-load against the daemon: concurrent fault storm, circuit
# breaking, mid-stream disconnects, post-storm health (the CI gate).
serve-chaos:
	$(PYTHON) -m repro chaos --serve --seed 7 \
		--artifact-dir serve-artifacts

# Served-vs-direct differential across the algorithm x dataset grid.
diff-served:
	$(PYTHON) -m repro diff --served --tuples 2048

# Disk-fault ladder + SIGKILL/resume sweep for the spill plane (the CI
# gate): clean spills bit-identical, faults absorbed or typed, resumed
# runs matching uninterrupted ones exactly.
spill-chaos:
	$(PYTHON) -m repro chaos --spill --seed 42 --tuples 8192 \
		--artifact-dir spill-artifacts

# Spilled-vs-in-RAM differential (every backend, forced memory budget).
diff-spill:
	$(PYTHON) -m repro diff --spill --tuples 4096

# Out-of-core differential: every dataset streamed to an on-disk
# relation store (compressed on the skewed case) and re-joined on every
# backend with columns paging in lazily — must match in-RAM bit for bit.
diff-oocore:
	$(PYTHON) -m repro diff --oocore --tuples 4096

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate every table/figure at the paper's full 32M scale (~30 min).
bench-paper:
	REPRO_BENCH_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The repository's wall-time benchmark (perf/README.md): the harness's
# own tests, all four workloads end to end, then a short traced run for
# the per-layer metrics and the trace-coverage check (as the CI job does).
perf:
	$(PYTHON) -m pytest -q perf/tests
	$(PYTHON) perf/run.py
	$(PYTHON) perf/run.py --trace --seconds 5

# Cross-backend differential over the full algorithm x dataset grid, then
# the matchers' ring-tail path: at 11525 tuples one gbase/gsh emit on the
# seed-42 zipf-1.0 dataset passes 2^21 pairs, far beyond the ring's capacity.
diff-backends:
	$(PYTHON) -m repro diff --tuples 4096
	REPRO_WORKERS=2 REPRO_PARALLEL_MIN_TUPLES=0 \
		$(PYTHON) -m repro diff --tuples 11525 --algorithms gbase,gsh,cbase-npj

# Planning-rule regret gate over the diff grid (the CI gate): the pick
# must land within 2x of the measured oracle on every dataset whose
# oracle clears the 50 ms floor (zipf-1.0 and uniform at this size), and
# auto output must be bit-identical to the pick forced by hand.
plan-gate:
	REPRO_WORKERS=2 REPRO_PARALLEL_MIN_TUPLES=0 \
		$(PYTHON) -m repro plan --gate --tuples 131072 --seed 42 \
		--out plan-artifacts

# One planned end-to-end run: the rule's pick, stamped.
run-auto:
	$(PYTHON) -m repro run --auto --theta 1.0 --tuples 65536

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/graph_two_hop.py
	$(PYTHON) examples/skew_sweep.py
	$(PYTHON) examples/gpu_tuning.py
	$(PYTHON) examples/volcano_hub_query.py
	$(PYTHON) examples/pcie_placement.py
	$(PYTHON) examples/sales_analytics.py

all: test bench
