"""Determinism analysis toolchain (DESIGN §9).

Cooperating tools turn the kernel's determinism claim from convention
into something enforced:

- :mod:`repro.analysis.detlint` — an AST linter (stdlib ``ast`` only)
  whose rules target the ways this codebase could silently lose
  bit-identical replay: wall-clock reads, global RNG state, unordered
  iteration feeding the scheduler, ``id()``/``hash()`` ordering,
  mutable defaults in task coroutines, interrupt-swallowing excepts,
  and order-sensitive float accumulation.
- :mod:`repro.analysis.simtsan` — a runtime yield-point race detector
  for state shared across cooperative tasks (SSG views, the provider's
  pipeline table, 2PC activation state).
- :mod:`repro.analysis.mcheck` — Colzacheck, the schedule explorer
  (DESIGN §15): DFS over same-timestamp interleavings with DPOR-style
  pruning, or seeded random walks, with replayable counterexamples.
- :mod:`repro.analysis.flowcheck` — an interprocedural protocol and
  resource-lifecycle analyzer (DESIGN §10): whole-program call graph
  over spawn edges and RPC name strings, with dataflow passes for task
  leaks, event lifecycle, acquire/release pairing, lock-order cycles,
  collective divergence, and RPC contract checking.
- :mod:`repro.analysis.report` — merged SARIF-lite JSON across detlint
  and flowcheck for CI artifacts.

CLI: ``python -m repro.analysis lint`` / ``check`` / ``report`` /
``mcheck`` / ``replay`` (see ``--help`` on each).
"""

from repro.analysis.simtsan import RaceReport, Shared, SimTSan, tracked, untracked

#: Re-exports resolved on first access (PEP 562). Production code imports
#: ``repro.analysis.simtsan`` (``Shared`` wraps the provider's tables),
#: and that must not load the ``ast``-based analysers — a checker does
#: not tax the path it checks.
_LAZY_EXPORTS = {
    "Finding": "detlint", "LintReport": "detlint", "run_lint": "detlint",
    "CheckReport": "flowcheck", "FlowFinding": "flowcheck", "run_check": "flowcheck",
    "AnalysisReport": "report", "run_report": "report",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)

__all__ = [
    "AnalysisReport",
    "CheckReport",
    "Finding",
    "FlowFinding",
    "LintReport",
    "RaceReport",
    "Shared",
    "SimTSan",
    "run_check",
    "run_lint",
    "run_report",
    "tracked",
    "untracked",
]
