# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test lint lint-baseline loc keybytes typecheck check conformance conformance-service conformance-service-sharded bench examples clean all

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest tests/

# AST invariant linter (full RK001-RK012 rule set, including the
# whole-program call-graph/taint rules; docs/STATIC_ANALYSIS.md);
# stdlib-only. src/repro must be clean outright; benchmarks/ and
# examples/ lint against the checked-in baseline of accepted findings.
# Works from a checkout without `make install` via PYTHONPATH.
lint:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lintkit \
		src/repro benchmarks examples --baseline lint-baseline.json

# Re-record the accepted-finding baseline after a reviewed change.
lint-baseline:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.lintkit \
		src/repro benchmarks examples --write-baseline lint-baseline.json

# Oracle-differential + metamorphic fuzzing over every factory engine
# (docs/CONFORMANCE.md). Exit 1 on any law violation; writes the JSON
# report and proves the kit catches injected bugs (--self-test).
conformance:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.conformance \
		--seeds 50 --engines all --self-test --out CONFORMANCE.json

# The same law catalog run *through* the keyed ServiceStore (the
# daemon/API state machine): any divergence from the direct engine is a
# law violation (docs/SERVICE.md).
conformance-service:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.conformance \
		--mode service --seeds 25 --engines all

# The store-contract laws once more, but served from a 3-worker
# ShardedServiceStore: every cell crosses the multi-process IPC plane
# (docs/SERVICE.md, "Sharded deployment").
conformance-service-sharded:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.conformance \
		--mode service --service-workers 3 --seeds 10 --engines all

# Net size of the library: non-blank lines that are not `#` comments in
# src/repro/**/*.py, the number ROADMAP aim 2 tracks.
loc:
	@find src/repro -name '*.py' -print0 | xargs -0 cat \
		| grep -Ecv '^[[:space:]]*(#.*)?$$'

# What a keyed store's key holds, per engine family: GC-tracked objects
# and traced bytes per key at 4,096 keys (repro.storage.footprint), as a
# markdown table.  tests/service/test_key_footprint.py gates the same
# figures.
keybytes:
	@PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m repro.storage.footprint

# Requires the `lint` extra (pip install -e .[lint]).
typecheck:
	MYPYPATH=src $(PYTHON) -m mypy --strict src/repro

check: test lint conformance

bench:
	PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
		benchmarks/results .benchmarks CONFORMANCE.json coverage.xml
	find . -name __pycache__ -type d -exec rm -rf {} +

all: install test bench
