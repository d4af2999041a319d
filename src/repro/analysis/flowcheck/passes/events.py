"""FC002: Events that are waited on but can never fire, and double-fires.

Two hang shapes and one crash shape:

- **never-fires**: a function creates an Event (``Event(sim)`` or
  ``sim.event()``), something yields on it (directly or through an
  ``all_of``/``any_of`` combinator), no ``succeed()``/``fail()`` site
  exists in the function (nested ``def`` callbacks count), and the
  event never escapes the function (returned, stored, or passed to a
  non-combinator call). Waiters sleep forever.
- **unbound wait**: ``yield Event(sim)`` — the fresh event has no
  binding, so no code can ever fire it.
- **double-fire**: ``Event.succeed``/``fail`` raise ``SimulationError`` on a
  second fire. Flagged when two fires on the same receiver appear in
  straight-line sequence without reassignment, or when a fire sits in
  a loop whose body neither rebinds the receiver nor consults
  ``.fired`` anywhere (the tree's wake-the-queue loops always guard
  with ``if grant.fired: continue`` or rebind per iteration).

Escape analysis is conservative: any use we cannot classify as a wait,
a fire, or an attribute inspection counts as an escape and silences the
never-fires check. That keeps factory functions (create, return) and
registry patterns (create, store on self) quiet at the cost of missing
hangs where the escaped alias is itself never fired.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.flowcheck.callgraph import CallGraph
from repro.analysis.flowcheck.model import FunctionInfo, Program, dotted_name
from repro.analysis.flowcheck.passes import Raw, flowpass, parent_map

COMBINATORS = {"all_of", "any_of", "AllOf", "AnyOf"}
FIRE_ATTRS = {"succeed", "fail"}


def _is_event_create(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "Event":
        return True
    return isinstance(func, ast.Attribute) and func.attr == "event"


def _combinator_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func) or ""
    return name.split(".")[-1] in COMBINATORS


class _EventUse:
    def __init__(self) -> None:
        self.waited = False
        self.fired = False
        self.escaped = False


def _classify_uses(fn: FunctionInfo, names: Set[str]) -> Dict[str, _EventUse]:
    uses = {name: _EventUse() for name in names}
    parents = parent_map(fn.node)
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Name) or node.id not in uses:
            continue
        use = uses[node.id]
        parent = parents.get(node)
        if isinstance(parent, ast.Yield) and parent.value is node:
            use.waited = True
        elif isinstance(parent, ast.Attribute):
            grand = parents.get(parent)
            if (
                parent.attr in FIRE_ATTRS
                and isinstance(grand, ast.Call)
                and grand.func is parent
            ):
                use.fired = True
            elif isinstance(parent.ctx, ast.Load):
                pass  # .fired / .value inspection: neither wait nor escape
            else:
                use.escaped = True
        elif isinstance(parent, (ast.List, ast.Tuple, ast.Set)):
            # Containers feed combinators or escape; look one level up.
            grand = parents.get(parent)
            if _combinator_call(grand) or (
                isinstance(grand, ast.Yield)
            ):
                use.waited = True
            elif isinstance(parent.ctx, ast.Store):
                pass
            else:
                use.escaped = True
        elif _combinator_call(parent):
            use.waited = True
        elif isinstance(parent, ast.Assign) and node in parent.targets:
            pass  # rebinding the name, not a use
        elif isinstance(parent, ast.Compare) or isinstance(parent, ast.BoolOp):
            pass
        else:
            # Return, argument to an unknown call, subscript store, ...
            use.escaped = True
    return uses


def _local_event_names(fn: FunctionInfo) -> Dict[str, ast.Assign]:
    creations: Dict[str, ast.Assign] = {}
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_event_create(node.value)
        ):
            creations[node.targets[0].id] = node
    return creations


def _never_fires(fn: FunctionInfo) -> Iterator[Raw]:
    creations = _local_event_names(fn)
    if not creations:
        return
    uses = _classify_uses(fn, set(creations))
    for name, assign in creations.items():
        use = uses[name]
        if use.waited and not use.fired and not use.escaped:
            yield Raw(
                module=fn.module,
                line=assign.lineno,
                col=assign.col_offset,
                message=(
                    f"event '{name}' is waited on but has no succeed()/fail() "
                    "site and never escapes this function: waiters hang forever"
                ),
                severity="error",
            )


def _unbound_waits(fn: FunctionInfo) -> Iterator[Raw]:
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Yield) and _is_event_create(node.value):
            yield Raw(
                module=fn.module,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    "yield of a freshly constructed Event: nothing holds a "
                    "reference, so it can never fire — permanent hang"
                ),
                severity="error",
            )


def _fire_receiver(stmt: ast.stmt) -> Optional[str]:
    """Receiver of a top-level ``R.succeed()/R.fail()`` statement."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return None
    func = stmt.value.func
    if isinstance(func, ast.Attribute) and func.attr in FIRE_ATTRS:
        return dotted_name(func.value)
    return None


def _assigned_names(stmt: ast.stmt) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), ast.Store
        ):
            dotted = dotted_name(node)
            if dotted:
                names.add(dotted)
    return names


def _mentions_fired(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "fired" for n in ast.walk(node)
    )


def _double_fires(fn: FunctionInfo) -> Iterator[Raw]:
    def scan(body: List[ast.stmt], loop: Optional[ast.AST]) -> Iterator[Raw]:
        last_fire: Dict[str, ast.stmt] = {}
        for idx, stmt in enumerate(body):
            receiver = _fire_receiver(stmt)
            if receiver is not None:
                if receiver in last_fire:
                    yield Raw(
                        module=fn.module,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(
                            f"second fire of event '{receiver}' with no "
                            "reassignment in between: Event.succeed/fail raise "
                            "SimulationError on the second call"
                        ),
                        severity="error",
                    )
                else:
                    last_fire[receiver] = stmt
                if loop is not None:
                    loop_vars = _loop_bound_names(loop)
                    exits_after = any(
                        isinstance(later, (ast.Return, ast.Break, ast.Raise))
                        for later in body[idx + 1 :]
                    )
                    if (
                        receiver not in loop_vars
                        and not _mentions_fired(loop)
                        and not exits_after
                    ):
                        yield Raw(
                            module=fn.module,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            message=(
                                f"event '{receiver}' fired inside a loop that "
                                "neither rebinds it nor checks .fired: second "
                                "iteration raises SimulationError"
                            ),
                            severity="error",
                        )
                continue
            for name in _assigned_names(stmt):
                last_fire.pop(name, None)
            if isinstance(stmt, (ast.For, ast.While)):
                for sub in _each_body(stmt):
                    yield from scan(sub, stmt)
                last_fire.clear()
            elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
                for sub in _each_body(stmt):
                    yield from scan(sub, loop)
                last_fire.clear()

    def _each_body(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
        for field in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field, None)
            if sub:
                yield list(sub)
        for handler in getattr(stmt, "handlers", []) or []:
            yield list(handler.body)

    def _loop_bound_names(loop: ast.AST) -> Set[str]:
        names: Set[str] = set()
        if isinstance(loop, ast.For):
            for node in ast.walk(loop.target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
        for stmt in getattr(loop, "body", []):
            names.update(_assigned_names(stmt))
        return names

    yield from scan(list(fn.node.body), None)


@flowpass("FC002", "event-lifecycle", severity="error")
def check_event_lifecycle(program: Program, graph: CallGraph) -> Iterator[Raw]:
    for fn in program.functions.values():
        yield from _never_fires(fn)
        yield from _unbound_waits(fn)
        yield from _double_fires(fn)
