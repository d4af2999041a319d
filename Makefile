# Convenience targets for the Colza reproduction.

.PHONY: install test chaos autoscale lint check check-fast report sarif mcheck reach fidelity bench-e2e bench-e2e-smoke bench-e2e-ab profile-e2e examples clean

install:
	pip install -e .[test] --no-build-isolation

test:
	pytest tests/

chaos:
	pytest tests/chaos/ -q

# The elasticity controller (DESIGN §16), both decide-step policies:
# unit + acceptance + oracle tests, the band's pure cases and the
# growing-workload run, the ablation's and the SLO controller's tier-1
# fidelity rows, and the chaos scenarios that attack the controller's own
# actuation (predictive and band).
autoscale:
	PYTHONPATH=src python -m pytest tests/test_autoscale.py -q
	PYTHONPATH=src python -m pytest tests/test_extensions.py tests/test_fidelity.py -q -k "autoscal or policy or slo"
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

# Colzacheck: systematically explore same-timestamp interleavings of
# every protocol scenario, then sample five seeded random walks of the
# two whole-run scenarios; minimized counterexamples (replay with
# `python -m repro.analysis replay <file>`) land in .mcheck-repros/.
mcheck:
	PYTHONPATH=src python -m repro.analysis mcheck --out .mcheck-repros
	PYTHONPATH=src python -m repro.analysis mcheck --walk 5 --scenario resilient_iterations --scenario swim_convergence --scenario prepare_first_no --out .mcheck-repros

# Reachability ledger (tools/reach.py, ~10 min): run the benchmark workloads,
# the chaos fleet, every fidelity run and the examples (the results), plus the
# declared tool entries, under a profiler; fail on a src/ function no result
# reaches that tools/reach_ledger.tsv does not list, and on a stale entry.
reach:
	python tools/reach.py --check

# The paper-size rows of tests/test_fidelity.py (Figs 3-8, 10, the IceT and
# autoscale ablations, ~4 min); tier-1 runs the rest and renders EXPERIMENTS.md.
fidelity:
	PYTHONPATH=src python -m pytest tests/test_fidelity.py -m paper_size

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
# flagging any phase that sat out a control-plane deadline; then the wire bytes
# per iteration by what sent them (icet.binary_swap, mona.gather, colza/stage, ...).
#   make profile-e2e WORKLOAD=elastic_tenants PROFILE_ARGS="--phase sim"
# --by-module adds the timed section's calls per defining module and per
# function, rows summing to py_calls_m: the table to size a call-count change by.
#   make profile-e2e WORKLOAD=mb_scale_virtual PROFILE_ARGS="--by-module"
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
	python examples/multi_tenant.py
	python examples/autoscale_slo.py

clean:
	rm -rf results examples/output .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
