"""The timestamp-free *shape* of a span subtree.

:class:`~repro.sim.trace.Span` rows list their ``children`` off the
tracer's child index; this module only summarizes a subtree into
the shape the golden-trace regression tests pin: names, nesting and
counts, never timestamps.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sim.trace import Span

__all__ = ["tree_shape"]


def tree_shape(node: Span, include_unfinished: bool = False) -> Dict[str, Any]:
    """The timestamp-free shape of a subtree, for golden fixtures.

    Children are aggregated by name recursively: two same-named
    siblings merge, their counts sum, and their child shapes merge —
    so the shape is stable under timing jitter but changes whenever a
    span name, a nesting relationship, or an op count changes.
    """
    shape = {"name": node.name, "count": 1}
    children = _merge_child_shapes(node, include_unfinished)
    if children:
        shape["children"] = children
    return shape


def _merge_child_shapes(node: Span, include_unfinished: bool) -> List[Dict[str, Any]]:
    merged: Dict[str, Dict[str, Any]] = {}
    for child in node.children:
        if not include_unfinished and child.end is None:
            continue
        child_shape = tree_shape(child, include_unfinished)
        into = merged.get(child.name)
        if into is None:
            merged[child.name] = child_shape
        else:
            into["count"] += child_shape["count"]
            _merge_shape_lists(into, child_shape)
    return [merged[name] for name in sorted(merged)]


def _merge_shape_lists(into: Dict[str, Any], other: Dict[str, Any]) -> None:
    """Fold ``other``'s children list into ``into``'s, by name."""
    other_children = other.get("children") or []
    if not other_children:
        return
    existing = {c["name"]: c for c in into.setdefault("children", [])}
    for child in other_children:
        match = existing.get(child["name"])
        if match is None:
            into["children"].append(child)
            existing[child["name"]] = child
        else:
            match["count"] += child["count"]
            _merge_shape_lists(match, child)
    into["children"].sort(key=lambda c: c["name"])
