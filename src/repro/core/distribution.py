"""Block-distribution policies for ``stage`` (§II-B).

By default the target server is selected from the block id
(``block_id % nservers``); users can register alternative policies
(the paper: "users can change this policy").
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.na.address import Address

__all__ = ["get_policy", "register_policy"]

#: A policy maps (block_id, metadata, servers) -> chosen server.
Policy = Callable[[int, Dict[str, Any], List[Address]], Address]

_POLICIES: Dict[str, Policy] = {}


def register_policy(name: str, policy: Policy) -> None:
    _POLICIES[name] = policy


def get_policy(name: str) -> Policy:
    try:
        return _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown distribution policy {name!r} (known: {sorted(_POLICIES)})"
        ) from None


def _block_id_mod(block_id: int, _metadata: Dict[str, Any], servers: List[Address]) -> Address:
    return servers[block_id % len(servers)]


register_policy("block_id_mod", _block_id_mod)
