"""FC010: metric-contract — consumed telemetry must actually exist.

The chaos invariant monitor keys its checks off span names
(``span.name == "colza.stage"``) and the trajectory scenes read counter
values (``sim.metrics.get("ssg.probes")``).  Both are stringly-typed:
rename a counter at its producer and the consumer silently reads 0 —
the invariant still "passes", and a pinned trajectory row goes red at
run time without naming the rename.
This pass closes the loop over the whole program:

- **Producers** are metric registrations —
  ``<scope>.counter("x")``/``gauge``/``histogram``/``pulled`` with a
  literal name — and literal trace spans (``trace.begin("layer.event")``,
  ``trace.add(...)``).  Scope prefixes resolve through locals
  (``core = sim.metrics.scope("core")``), class fields
  (``self._metrics = ...scope("ssg")`` in ``__init__``, used from any
  method) and chained calls; an f-string scope
  (``scope(f"tenant.{t}")``) produces under a wildcard prefix.
- **Consumers** are ``metrics.get("full.name")`` with a literal, and
  ``<span>.name == "layer.event"`` comparisons against a dotted
  literal.  A consumer with no matching producer (exact, or a
  wildcard-prefix producer with the same member name) is an error.
- A registration that is never **updated** (no chained or
  via-variable ``inc``/``set``/``observe``/``add``) is a warning: the
  metric exists but no path increments it. A registration returned by
  a ``cached_property`` is the handle that property holds: it is
  updated when any ``<x>.<property>.inc(...)`` (or ``set`` ...) is. A
  pulled counter (``scope.pulled("x", self, "attr")``) is updated when
  its source's class increments ``self.attr`` (``+=``) — a pull of a
  count nothing advances reports 0 forever.
- The same fully-resolved counter ``.inc()``'d twice in one function
  is a warning — the double-count-per-iteration hazard that would
  otherwise surface only at run time, as a pinned trajectory count
  that moved.

Dynamic names (``counter(name)``) are skipped: they are read-back
aggregation, not contracts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flowcheck.callgraph import CallGraph
from repro.analysis.flowcheck.model import FunctionInfo, Program, dotted_name
from repro.analysis.flowcheck.passes import Raw, flowpass, parent_map

REGISTER_ATTRS = {"counter", "gauge", "histogram", "pulled"}
UPDATE_ATTRS = {"inc", "set", "observe", "add"}
#: Chained reads that still count as "the registration is used".
READ_ATTRS = {"value", "summary", "quantile"}
WILDCARD = "*"


def _literal(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scope_prefix_of_call(call: ast.Call) -> Optional[str]:
    """``X.scope(<arg>)`` -> prefix literal, WILDCARD, or None."""
    if not (
        isinstance(call.func, ast.Attribute) and call.func.attr == "scope"
    ):
        return None
    if not call.args:
        return WILDCARD
    lit = _literal(call.args[0])
    return lit if lit is not None else WILDCARD


def _class_scope_fields(fn: FunctionInfo) -> Dict[str, str]:
    """``self.<attr>`` -> scope prefix, over the whole class."""
    out: Dict[str, str] = {}
    if fn.cls is None:
        return out
    for method in fn.cls.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            prefix = _scope_prefix_of_call(node.value)
            if prefix is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out[target.attr] = prefix
    return out


def _local_scopes(fn: FunctionInfo) -> Dict[str, str]:
    """Local var -> scope prefix within one function."""
    out: Dict[str, str] = {}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            prefix = _scope_prefix_of_call(node.value)
            if prefix is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = prefix
    return out


def _prefix_of_receiver(
    receiver: ast.expr, locals_: Dict[str, str], fields: Dict[str, str]
) -> str:
    if isinstance(receiver, ast.Call):
        prefix = _scope_prefix_of_call(receiver)
        if prefix is not None:
            return prefix
        return WILDCARD
    if isinstance(receiver, ast.Name):
        return locals_.get(receiver.id, WILDCARD)
    if (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id == "self"
    ):
        return fields.get(receiver.attr, WILDCARD)
    return WILDCARD


def _var_is_updated(fn: FunctionInfo, var: str) -> bool:
    for node in ast.walk(fn.node):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in (UPDATE_ATTRS | READ_ATTRS)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == var
        ):
            return True
    return False


def _field_is_updated(fn: FunctionInfo, attr: str) -> bool:
    if fn.cls is None:
        return False
    for method in fn.cls.methods.values():
        for node in ast.walk(method.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in (UPDATE_ATTRS | READ_ATTRS)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == attr
                and isinstance(node.func.value.value, ast.Name)
                and node.func.value.value.id == "self"
            ):
                return True
    return False


def _is_cached_property(fn: FunctionInfo) -> bool:
    return any(
        (dotted_name(dec) or "").rsplit(".", 1)[-1] == "cached_property"
        for dec in fn.node.decorator_list
    )


def _updated_handles(fns: List[Tuple[str, FunctionInfo]]) -> Set[str]:
    """Attribute names ``X`` some function updates as ``<x>.X.inc()``
    (or another update/read): the cached-property handles in use."""
    out: Set[str] = set()
    for _, fn in fns:
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in (UPDATE_ATTRS | READ_ATTRS)
                and isinstance(node.func.value, ast.Attribute)
            ):
                out.add(node.func.value.attr)
    return out


def _pull_is_counted(program: Program, fn: FunctionInfo, call: ast.Call) -> bool:
    """``pulled(name, source, "attr")``: does anything ``+=`` the
    attribute — in the class, for ``source`` = ``self``, else anywhere?"""
    attr = _literal(call.args[2]) if len(call.args) > 2 else None
    if attr is None:
        return True  # a dynamic attribute name is not a contract
    source = call.args[1]
    if isinstance(source, ast.Name) and source.id == "self" and fn.cls is not None:
        nodes = [m.node for m in fn.cls.methods.values()]
    else:
        nodes = [f.node for f in program.functions.values()]
    return any(
        isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr == attr
        for tree in nodes
        for node in ast.walk(tree)
    )


@flowpass("FC010", "metric-contract", severity="error")
def check_metric_contract(program: Program, graph: CallGraph) -> Iterator[Raw]:
    #: (prefix, member) for every literal metric registration.
    produced: Set[Tuple[str, str]] = set()
    span_names: Set[str] = set()
    dynamic_spans = False
    #: consumer sites, resolved after collection.
    metric_consumers: List[Tuple[FunctionInfo, ast.Call, str]] = []
    span_consumers: List[Tuple[FunctionInfo, ast.Compare, str]] = []
    unused: List[Tuple[FunctionInfo, ast.Call, str]] = []
    #: (fn, full name) -> inc sites, for the double-count rule.
    inc_sites: Dict[Tuple[str, str], List[ast.Call]] = {}
    fns = sorted(program.functions.items())
    handles = _updated_handles(fns)

    for _, fn in fns:
        parents = parent_map(fn.node)
        locals_ = _local_scopes(fn)
        fields = _class_scope_fields(fn)
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                if isinstance(node, ast.Compare):
                    name = _span_compare(node)
                    if name is not None:
                        span_consumers.append((fn, node, name))
                continue
            attr = node.func.attr

            # trace spans -------------------------------------------------
            if attr in ("begin", "add"):
                receiver = dotted_name(node.func.value) or ""
                if "trace" in receiver and node.args:
                    lit = _literal(node.args[0])
                    if lit is not None:
                        span_names.add(lit)
                    else:
                        dynamic_spans = True
                continue

            # metric registrations ---------------------------------------
            if attr in REGISTER_ATTRS and node.args:
                member = _literal(node.args[0])
                if member is None:
                    continue
                prefix = _prefix_of_receiver(node.func.value, locals_, fields)
                produced.add((prefix, member))
                parent = parents.get(node)
                used = False
                if attr == "pulled":
                    used = _pull_is_counted(program, fn, node)
                elif isinstance(parent, ast.Return) and _is_cached_property(fn):
                    used = fn.name in handles
                elif isinstance(parent, ast.Attribute) and parent.attr in (
                    UPDATE_ATTRS | READ_ATTRS
                ):
                    used = True
                    if parent.attr == "inc":
                        full = f"{prefix}.{member}"
                        inc_sites.setdefault((fn.qualname, full), []).append(node)
                elif isinstance(parent, ast.Assign):
                    for target in parent.targets:
                        if isinstance(target, ast.Name) and _var_is_updated(
                            fn, target.id
                        ):
                            used = True
                        elif (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and _field_is_updated(fn, target.attr)
                        ):
                            used = True
                if not used:
                    unused.append((fn, node, f"{prefix}.{member}"))
                continue

            # metric reads ------------------------------------------------
            if attr == "get" and node.args:
                receiver = dotted_name(node.func.value) or ""
                if "metrics" in receiver:
                    lit = _literal(node.args[0])
                    if lit is not None:
                        metric_consumers.append((fn, node, lit))

    # ------------------------------------------------------------------
    def produces(full: str) -> bool:
        if "." in full:
            prefix, member = full.rsplit(".", 1)
        else:
            prefix, member = "", full
        if (prefix, member) in produced:
            return True
        return (WILDCARD, member) in produced

    for fn, node, full in metric_consumers:
        if not produces(full):
            yield Raw(
                module=fn.module,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"metrics.get({full!r}) reads a metric no code path "
                    "registers: the consumer silently sees 0/None "
                    "(renamed producer?)"
                ),
                severity="error",
            )
    for fn, node, name in span_consumers:
        if name not in span_names and not dynamic_spans:
            yield Raw(
                module=fn.module,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"span name {name!r} is compared against but no "
                    "trace.begin/add ever emits it: the branch is dead "
                    "(renamed span?)"
                ),
                severity="error",
            )
    for fn, node, full in unused:
        yield Raw(
            module=fn.module,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"metric {full!r} is registered here but never "
                "incremented or set on any path"
            ),
            severity="warning",
        )
    for (qualname, full), sites in sorted(inc_sites.items()):
        if len(sites) > 1 and not full.startswith(f"{WILDCARD}."):
            first = sites[0]
            yield Raw(
                module=program.functions[qualname].module,
                line=sites[1].lineno,
                col=sites[1].col_offset,
                message=(
                    f"counter {full!r} is incremented {len(sites)} times "
                    f"in {qualname.split('::')[-1]}() (first at line "
                    f"{first.lineno}): double-counted per iteration"
                ),
                severity="warning",
            )


def _span_compare(node: ast.Compare) -> Optional[str]:
    """``<x>.name == "layer.event"`` -> the literal, else None."""
    if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Eq,)):
        return None
    sides = [node.left, node.comparators[0]]
    attr = next(
        (
            s
            for s in sides
            if isinstance(s, ast.Attribute) and s.attr == "name"
        ),
        None,
    )
    lit = next((_literal(s) for s in sides if _literal(s) is not None), None)
    if attr is None or lit is None or "." not in lit:
        return None
    return lit
