"""Experiment drivers reproducing every table and figure of the paper.

Each module under :mod:`repro.bench.experiments` exposes a ``run()``
returning structured results. ``tests/test_fidelity.py`` pins one row
per paper output of those results (exact value, paper anchor and
tolerance) and renders EXPERIMENTS.md's tables from the pinned values.
"""

from repro.bench.reporting import Table

__all__ = ["Table"]
