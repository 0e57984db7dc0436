# Convenience targets for the repro-ssl-anatomy reproduction.
#
# The package is imported from ./src; every target exports PYTHONPATH so the
# targets work without an editable install (matching how CI invokes pytest).

PY_ENV = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH}

.PHONY: install test check bench bench-host bench-farm \
	bench-engines bench-tickets bench-overload perf-gate \
	perf-baseline lint examples smoke smoke-wallclock smoke-farm \
	artifacts all

install:
	pip install -e .

test:
	$(PY_ENV) pytest tests/

# The tier-1 gate, verbatim: what CI runs against this repository.
check:
	$(PY_ENV) python -m pytest -x -q

bench:
	$(PY_ENV) pytest benchmarks/ --benchmark-only

# Wall-clock host speed of the fast path vs the faithful reference loops;
# writes BENCH_host_speed.json at the repository root.
bench-host:
	$(PY_ENV) python benchmarks/bench_host_speed.py

# Farm capacity scaling (workers x cache topology x resumption ratio);
# writes BENCH_farm_scaling.json at the repository root.
bench-farm:
	$(PY_ENV) python benchmarks/bench_farm_scaling.py

# Crypto-engine offload backend: the same bulk-heavy HTTPS workload with
# and without a Section 6.2 engine pool, plus the saturation sweep showing
# the software-fallback knee; writes BENCH_engine_offload.json at the
# repository root (fully modeled -- deterministic, no wall-clock keys).
bench-engines:
	$(PY_ENV) python benchmarks/bench_section6_engines.py

# Stateless session tickets vs the server-side id cache: cache memory at
# equal hit-rate across client populations, plus the key-rotation churn
# curve; writes BENCH_ticket_resumption.json at the repository root
# (fully modeled -- deterministic).
bench-tickets:
	$(PY_ENV) python benchmarks/bench_ticket_resumption.py

# Capacity-vs-offered-load knee curves under hostile traffic (handshake
# floods, bursty arrivals), with and without the admission + suite-
# downgrade policies; writes BENCH_overload.json at the repository root
# (fully modeled -- deterministic).
bench-overload:
	$(PY_ENV) python benchmarks/bench_overload.py

# Golden-cycle regression gate: re-captures every registered scenario and
# requires an exact match against the committed baselines/*.json.  CI runs
# this under both REPRO_FASTPATH=1 and =0; the report file is uploaded as
# an artifact when the gate fails.
perf-gate:
	$(PY_ENV) python -m repro.tools.perfgate --check --report perf_gate_report.txt

# Re-record the baselines after an *intentional* modeled-cost change.
# Commit the resulting baselines/*.json diff alongside the change and call
# out the moved tables in the PR description.
perf-baseline:
	$(PY_ENV) python -m repro.tools.perfgate --record

# Mirrors CI's lint job.  ruff is optional locally (the container image
# may not carry it); compileall is the no-dependency floor.
lint:
	python -m compileall -q src
	@command -v ruff >/dev/null 2>&1 && ruff check . \
		|| echo "ruff not installed; skipped (CI runs it)"

# Runs every example; stops at the first one that fails.
examples:
	@set -e; for ex in examples/*.py; do echo "== $$ex"; \
		$(PY_ENV) python $$ex > /dev/null; echo OK; done

# Host wall-clock smokes (not collected by pytest: the tier-1 gate pins
# modeled numbers, these intentionally measure the host).  CI runs them
# via this target; they work locally the same way.
smoke-wallclock:
	$(PY_ENV) python tests/smoke/smoke_wallclock.py

smoke-farm:
	$(PY_ENV) python tests/smoke/smoke_farm.py

smoke: smoke-wallclock smoke-farm

# Every modeled BENCH_*.json, then the test and benchmark transcripts.
artifacts: bench-engines bench-tickets bench-overload bench-farm
	$(PY_ENV) pytest tests/ 2>&1 | tee test_output.txt
	$(PY_ENV) pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: install test bench
