# Convenience targets for the Colza reproduction.

.PHONY: install test chaos autoscale lint check check-fast report sarif fuzz mcheck bench bench-trajectory bench-trajectory-update bench-analysis bench-analysis-update bench-autoscale bench-autoscale-update bench-e2e bench-e2e-smoke bench-e2e-ab profile-e2e examples results clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

chaos:
	pytest tests/chaos/ -q

# The elasticity controller (DESIGN §16), both decide-step policies:
# unit + acceptance + oracle tests, the band's pure cases and the
# growing-workload run, the ablation smoke, and the chaos scenarios that
# attack the controller's own actuation (predictive and band).
autoscale:
	PYTHONPATH=src python -m pytest tests/test_autoscale.py -q
	PYTHONPATH=src python -m pytest tests/test_extensions.py tests/test_bench_experiments_smoke.py -q -k "autoscal or policy"
	PYTHONPATH=src python -m pytest tests/chaos/test_scenarios.py -q -k "autoscale or band_policy or controller"

lint:
	PYTHONPATH=src python -m repro.analysis lint src

check:
	PYTHONPATH=src python -m repro.analysis check src

# Incremental flowcheck: report only the callgraph closure of the git
# diff vs HEAD (whole tree is still analyzed — see
# repro/analysis/incremental.py for the soundness argument).
check-fast:
	PYTHONPATH=src python -m repro.analysis check --changed

report:
	@PYTHONPATH=src python -m repro.analysis report --json src

sarif:
	@PYTHONPATH=src python -m repro.analysis report --sarif src

fuzz:
	PYTHONPATH=src python -m repro.analysis fuzz -n 5 --repro-dir .mcheck-repros

# Colzacheck: systematically explore same-timestamp interleavings of
# every protocol scenario; minimized counterexamples (replay with
# `python -m repro.analysis replay <file>`) land in .mcheck-repros/.
mcheck:
	PYTHONPATH=src python -m repro.analysis mcheck --out .mcheck-repros

bench:
	pytest benchmarks/ --benchmark-only

# Kernel perf-trajectory suite: run pinned-seed scenes, gate against
# the committed BENCH_kernel.json (>20% regression on any tracked
# metric fails). `-update` refreshes the baseline after intentional
# perf changes.
bench-trajectory:
	PYTHONPATH=src python -m repro.bench trajectory --check

bench-trajectory-update:
	PYTHONPATH=src python -m repro.bench trajectory --update

# Static-analysis trajectory: whole-tree flowcheck wall time and
# finding counts, gated against the committed BENCH_analysis.json.
bench-analysis:
	PYTHONPATH=src python -m repro.bench trajectory --suite analysis --check

bench-analysis-update:
	PYTHONPATH=src python -m repro.bench trajectory --suite analysis --update

# SLO-autoscaler trajectory: miss rate, resize counts and safety
# violations under pinned load traces, gated against BENCH_autoscale.json.
bench-autoscale:
	PYTHONPATH=src python -m repro.bench trajectory --suite autoscale --check

bench-autoscale-update:
	PYTHONPATH=src python -m repro.bench trajectory --suite autoscale --update

# End-to-end benchmark (bench_e2e/README.md): all four full-stack
# workloads, then the regression verdict against the committed
# baseline (exit 1 on a metric past its BENCHMARK.json bound). Host
# metrics only compare on the machine that recorded the baseline.
bench-e2e:
	PYTHONPATH=src python -m bench_e2e --out bench_e2e/out/latest.json
	PYTHONPATH=src python -m bench_e2e --compare bench_e2e/baseline.json bench_e2e/out/latest.json

# Paired A/B against another revision (tools/ab_e2e.py): ten alternating
# pairs of the BENCHMARK.json command, BASE in a temporary git worktree;
# medians, quartiles, win counts and the section-8 verdict per metric.
# A claim also has to hold on a seed nobody tuned against: run it twice.
#   make bench-e2e-ab BASE=HEAD~1 WORKLOAD=gs_iso_real
#   make bench-e2e-ab BASE=HEAD~1 WORKLOAD=gs_iso_real SEED=7
# Where `git worktree add` is not possible, point BASE_TREE at an existing
# checkout of the base (e.g. a `git clone` of the parent) instead of BASE:
#   make bench-e2e-ab BASE_TREE=/root/scratch/base WORKLOAD=gs_iso_real
# WORKLOAD takes several names or `all`: ten pairs for the first (the
# claim), four (AB_ARGS="--other-pairs N") for each of the rest (the
# must-not-move rows), one table per workload:
#   make bench-e2e-ab BASE=HEAD~1 WORKLOAD="mb_scale_virtual all"
SEED ?= 1
bench-e2e-ab:
	python tools/ab_e2e.py $(if $(BASE_TREE),--base-tree $(BASE_TREE),--base $(BASE)) \
		--workload $(WORKLOAD) --seed $(SEED) $(AB_ARGS)

# Where a workload's timed section spends its host time (tools/profile_e2e.py):
# cProfile top-K, the total call count (the benchmark's py_calls_m for the
# seed, to the call) and a census of the cyclic collector.
#   make profile-e2e WORKLOAD=dwi_volume_real
#   make profile-e2e WORKLOAD=elastic_tenants SEED=7 PROFILE_ARGS="--garbage --sort cumtime"
# --phase setup profiles the other half of a run (what setup_s bills): the
# ten costliest imports of a fresh interpreter, then make_inputs + setup.
#   make profile-e2e WORKLOAD=elastic_tenants PROFILE_ARGS="--phase setup --sort ncalls"
# --phase sim reads the simulated clock: per tenant-iteration attempt, outcome,
# 2PC rounds, simulated seconds per phase and the gap since the previous attempt,
# flagging any phase that sat out a control-plane deadline.
#   make profile-e2e WORKLOAD=elastic_tenants PROFILE_ARGS="--phase sim"
profile-e2e:
	python tools/profile_e2e.py --workload $(WORKLOAD) --seed $(SEED) $(PROFILE_ARGS)

# Smoke test of the benchmark itself (~30 s, outside tier-1's testpaths).
bench-e2e-smoke:
	python -m pytest bench_e2e -q

examples:
	python examples/quickstart.py
	python examples/grayscott_insitu.py
	python examples/mandelbulb_elastic.py
	python examples/dwi_volume.py
	python examples/fault_tolerance.py
	python examples/adios_sst_coupling.py
	python examples/multi_tenant.py
	python examples/autoscale_slo.py

results: bench
	@echo "tables written to results/, images to results/renders/"

clean:
	rm -rf results examples/output .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
