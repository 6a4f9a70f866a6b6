PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint check smoke-cache smoke-surrogate profile results \
	clean-cache

test:
	$(PYTHON) -m pytest -x -q --durations=10

# Lint gate (ruff, configured in pyproject.toml).  Skips gracefully when
# ruff is not installed locally; CI always installs and enforces it.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests scripts benchmarks examples; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping"; \
	fi

# Everything CI runs: the tier-1 suite (which includes the golden-digest
# transparency gate, tests/test_golden.py) plus lint and the smoke tests.
check: test lint smoke-cache smoke-surrogate

# Cache smoke test: figure16 twice; the second run must hit the persistent
# sweep cache (zero simulations), be much faster, and render identically.
smoke-cache:
	$(PYTHON) scripts/smoke_cache.py

# Surrogate smoke test: triage simulates only a bounded subset, the
# predicted frontier contains a near-best design (full grid simulated as
# ground truth) with every pick above the grid median, and the audit
# slice's relative error stays under its 5% geomean bound.
smoke-surrogate:
	$(PYTHON) scripts/smoke_surrogate.py

# Overlap profile of the sweep cases (CASE filters by label substring,
# e.g. `make profile CASE=fc2`); writes profile-report.json.
CASE ?=
profile:
	$(PYTHON) -m repro.experiments.runner profile figure16 \
		$(if $(CASE),--config $(CASE)) --profile profile-report.json

# Regenerate results/ (fast mode).  JOBS workers for cache misses.
JOBS ?= 1
results:
	$(PYTHON) scripts/capture_results.py --jobs $(JOBS)

clean-cache:
	$(PYTHON) -c "from repro.experiments.sublayer_sweep import \
clear_disk_cache; print(f'{clear_disk_cache()} entries removed')"
