"""bench_e2e: the repo's end-to-end benchmark.

Drives the whole Colza stack through four named workloads, reports
host cost and simulated time side by side, and attributes host time to
layers from outside the program. See ``README.md`` in this directory.
"""
