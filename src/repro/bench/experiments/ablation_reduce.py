"""Ablation: MoNA reduce algorithms (binary tree vs binomial tree).

The paper (§III-C1) attributes MoNA's Table II gap to its "simple
binary-tree-based reduction" and expects that "implementing more
optimized collectives in MoNA ... could further improve its
performance". This ablation quantifies that claim with the binomial
tree (MPICH's short-message reduce algorithm): one serialized receive
per level instead of two. The binary column is Table II's MoNA column:
both come from :func:`~repro.bench.experiments.table2_reduce.measure_mona`.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.experiments.table2_reduce import SIZES, measure_mona

__all__ = ["run"]


def run() -> Dict[str, Dict[int, float]]:
    """Per-op reduce seconds for both algorithms at 512 processes."""
    return {
        algorithm: {s: measure_mona(s, algorithm=algorithm) for s in SIZES}
        for algorithm in ("binary", "binomial")
    }
