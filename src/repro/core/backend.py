"""The abstract Colza pipeline (``colza::Backend``) and its registry.

Real Colza pipelines are C++ classes compiled into shared libraries and
``dlopen``-ed on demand; here the registry maps "library names" to
Python Backend subclasses, preserving the deploy-empty-then-load-later
workflow (§II-B): a staging area starts with no pipelines and the admin
creates them at run time by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.na.address import Address

__all__ = ["Backend", "StagedBlock", "create_backend", "register_backend"]


@dataclass
class StagedBlock:
    """One piece of staged data held by a pipeline instance."""

    block_id: int
    metadata: Dict[str, Any]
    payload: Any


class Backend:
    """Base class for pipelines (one instance per staging process).

    Lifecycle (all generators, driven by the provider's RPC handlers):

    - ``activate(iteration, view)`` — an iteration is starting; ``view``
      is the frozen, 2PC-agreed list of member addresses. Membership
      will not change until ``deactivate``.
    - ``stage(iteration, block)`` — store one block (already pulled).
    - ``execute(iteration)`` — run the analysis on the staged blocks.
    - ``deactivate(iteration)`` — iteration done; staged data dropped.
    """

    def __init__(self, margo, name: str, config: Optional[Dict[str, Any]] = None):
        self.margo = margo
        self.name = name
        self.config = dict(config or {})
        self.staged: Dict[int, List[StagedBlock]] = {}
        self.current_view: Tuple[Address, ...] = ()

    # ------------------------------------------------------------------
    def activate(self, iteration: int, view: List[Address]) -> Generator:
        self.current_view = tuple(view)
        self.staged.setdefault(iteration, [])
        return None
        yield  # pragma: no cover

    def stage(self, iteration: int, block: StagedBlock) -> Generator:
        # Idempotent per block id: a client whose stage RPC timed out
        # after landing may re-send, and recovery may re-adopt a block
        # a late duplicate already delivered. Last write wins.
        held = self.staged.setdefault(iteration, [])
        for i, existing in enumerate(held):
            if existing.block_id == block.block_id:
                held[i] = block
                break
        else:
            held.append(block)
        return None
        yield  # pragma: no cover

    def execute(self, iteration: int) -> Generator:  # pragma: no cover
        raise NotImplementedError
        yield

    def deactivate(self, iteration: int) -> Generator:
        self.staged.pop(iteration, None)
        return None
        yield  # pragma: no cover

    def destroy(self) -> None:
        """Release resources when the pipeline is destroyed."""
        self.staged.clear()

    def abort_execution(self, reason: str) -> None:
        """The activation ended or a frozen-view member died: fail its executes.

        The base implementation is a no-op (nothing to cancel for
        pipelines without collective execution)."""

    # ------------------------------------------------------------------
    # stateful pipelines (paper future work (3))
    #: Whether this pipeline accumulates cross-iteration state that must
    #: be migrated before its server may leave the staging area.
    stateful = False

    def get_state(self) -> Optional[Any]:
        """Serializable cross-iteration state (None = nothing to move)."""
        return None

    def merge_state(self, state: Any) -> None:
        """Fold a departing peer's state into this instance."""
        raise NotImplementedError(f"pipeline {self.name!r} is not stateful")

    # ------------------------------------------------------------------
    @property
    def replication_factor(self) -> int:
        """Total copies kept of each staged block (1 = no replication)."""
        return int(self.config.get("replication_factor", 1))

    def blocks(self, iteration: int) -> List[StagedBlock]:
        return sorted(self.staged.get(iteration, []), key=lambda b: b.block_id)

    def discard(self, iteration: int) -> None:
        """Drop staged data for one iteration without running the
        deactivate generator (used when purging a stale activation)."""
        self.staged.pop(iteration, None)


_REGISTRY: Dict[str, Callable[..., Backend]] = {}


def register_backend(library: str, factory: Callable[..., Backend]) -> None:
    """Register a pipeline 'shared library' under ``library``."""
    _REGISTRY[library] = factory


def create_backend(library: str, margo, name: str, config: Optional[Dict[str, Any]] = None) -> Backend:
    """Instantiate a pipeline from its library name (dlopen-equivalent)."""
    try:
        factory = _REGISTRY[library]
    except KeyError:
        raise KeyError(
            f"pipeline library {library!r} not found (registered: {sorted(_REGISTRY)})"
        ) from None
    return factory(margo, name, config)
