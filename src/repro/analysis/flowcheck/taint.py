"""Isoguard's interprocedural field-sensitive taint engine.

The FC001–FC006 passes are mostly *shape* analyses (does a release
exist, does a name resolve).  The tenancy-era contracts (DESIGN §13)
are *value* questions: did this wire name pass through
``tenancy.qualify()`` before reaching the fabric?  This module answers
them with a classic forward taint analysis over flowcheck's
:class:`~repro.analysis.flowcheck.model.Program`:

- **labels** are short strings (``"raw-name"``, ``"tenant-id"``)
  attached to abstract values by *source* rules (a parameter predicate,
  source-call results, source-attribute reads);
- **sanitizers** are callees whose result is always clean
  (``qualify``);
- **sinks** are call arguments that must never carry a forbidden
  label; dict-valued sinks can restrict the check to specific keys
  (``{"pipeline": ..., "name": ...}`` payloads).

Propagation is field-sensitive per class (``self.name = name`` in
``__init__`` taints every later ``self.name`` read *of that class*),
key-sensitive for dict literals and ``d["k"] = v`` stores, and flows
through f-strings, concatenation, tuple unpacking, and —
interprocedurally — through call arguments,
constructor arguments and return values.  The whole program iterates
to a fixpoint (labels only ever grow, so it terminates); each label
carries a provenance chain that becomes the finding's witness path::

    witness: client.py:150 parameter 'name' of distributed_pipeline_handle()
    carries raw-name -> client.py:153 distributed_pipeline_handle() passes it
    to __init__(name=...) -> client.py:172 __init__() stores self.name

Precision notes (documented in DESIGN §14): field labels are
flow-insensitive across methods (a field sanitized in one method still
reads tainted elsewhere), unresolved calls conservatively propagate
the union of their argument labels, and branches merge by union.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.flowcheck.model import (
    FlowModule,
    FunctionInfo,
    Program,
    dotted_name,
)

__all__ = ["SinkSpec", "TaintEngine", "TaintFinding", "TaintSpec"]

#: Fixpoint safety net; real chains in this tree converge in <= 4.
MAX_ROUNDS = 10


@dataclass(frozen=True)
class SinkSpec:
    """One sink: a callee name plus which argument must stay clean."""

    callee: str
    arg: int
    kw: str = ""
    kind: str = "sink"
    #: For dict-valued arguments, only these keys are inspected;
    #: empty means the whole value.
    keys: Tuple[str, ...] = ()


@dataclass
class TaintSpec:
    """Sources, sanitizers and sinks for one taint domain."""

    #: (fn, param_name) -> label or None: parameter sources.
    param_label: Callable[[FunctionInfo, str], Optional[str]]
    #: callee last-name -> label of its result.
    source_calls: Dict[str, str]
    #: attribute name -> label of any ``obj.<attr>`` read.
    source_attrs: Dict[str, str]
    #: callee last-names whose result is always clean.
    sanitizers: FrozenSet[str]
    sinks: Tuple[SinkSpec, ...]
    #: labels that must not reach a sink.
    forbidden: FrozenSet[str]
    #: modules the engine skips entirely (the sanitizer's own home).
    exempt: Callable[[FlowModule], bool] = lambda module: False


@dataclass(frozen=True)
class TaintFinding:
    fn: FunctionInfo
    line: int
    col: int
    label: str
    kind: str
    sunk: str
    witness: Tuple[str, ...]


@dataclass
class Val:
    """Abstract value: labels, per-dict-key labels, label provenance."""

    labels: Set[str] = dc_field(default_factory=set)
    keys: Dict[str, Set[str]] = dc_field(default_factory=dict)
    #: label -> provenance key into TaintEngine._prov.
    prov: Dict[str, tuple] = dc_field(default_factory=dict)

    def copy(self) -> "Val":
        return Val(
            labels=set(self.labels),
            keys={k: set(v) for k, v in self.keys.items()},
            prov=dict(self.prov),
        )

    def all_labels(self) -> Set[str]:
        out = set(self.labels)
        for labels in self.keys.values():
            out |= labels
        return out

    def merge(self, other: "Val") -> "Val":
        out = self.copy()
        out.labels |= other.labels
        for k, v in other.keys.items():
            out.keys.setdefault(k, set()).update(v)
        for label, key in other.prov.items():
            out.prov.setdefault(label, key)
        return out


def _callee_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


class TaintEngine:
    """Run one :class:`TaintSpec` over a program to a fixpoint."""

    def __init__(self, program: Program, spec: TaintSpec):
        self.program = program
        self.spec = spec
        #: (qualname, param) -> labels flowing in from call sites.
        self._param_in: Dict[Tuple[str, str], Set[str]] = {}
        #: (qualname, param, key) -> labels for dict-valued params.
        self._param_key_in: Dict[Tuple[str, str, str], Set[str]] = {}
        #: (class key, field) -> labels ever stored into the field.
        self._field_in: Dict[Tuple[tuple, str], Set[str]] = {}
        #: qualname -> labels / per-key labels of the return value.
        self._ret: Dict[str, Set[str]] = {}
        self._ret_keys: Dict[str, Dict[str, Set[str]]] = {}
        #: provenance key -> (description, predecessor key or None).
        self._prov: Dict[tuple, Tuple[str, Optional[tuple]]] = {}
        self._findings: Dict[tuple, TaintFinding] = {}
        self._fns = [
            fn
            for qn, fn in sorted(program.functions.items())
            if not spec.exempt(fn.module)
        ]

    # ------------------------------------------------------------------
    def run(self) -> List[TaintFinding]:
        for _ in range(MAX_ROUNDS):
            self._changed = False
            for fn in self._fns:
                _FnFlow(self, fn).run()
            if not self._changed:
                break
        return sorted(
            self._findings.values(),
            key=lambda f: (f.fn.module.rel, f.line, f.label),
        )

    # ------------------------------------------------------------------
    # fixpoint state updates (all monotone)
    def _note(self) -> None:
        self._changed = True

    def add_prov(self, key: tuple, desc: str, prev: Optional[tuple]) -> tuple:
        self._prov.setdefault(key, (desc, prev))
        return key

    def witness(self, key: Optional[tuple]) -> Tuple[str, ...]:
        chain: List[str] = []
        seen = set()
        while key is not None and key not in seen:
            seen.add(key)
            desc, key = self._prov.get(key, ("", None))
            if desc:
                chain.append(desc)
        return tuple(reversed(chain))

    def push_param(
        self, callee: FunctionInfo, param: str, val: Val, desc: str,
    ) -> None:
        slot = self._param_in.setdefault((callee.qualname, param), set())
        for label in val.all_labels():
            self.add_prov(
                ("param", callee.qualname, param, label), desc, val.prov.get(label)
            )
            if label not in slot:
                slot.add(label)
                self._note()
        for dkey, labels in val.keys.items():
            kslot = self._param_key_in.setdefault(
                (callee.qualname, param, dkey), set()
            )
            for label in labels:
                self.add_prov(
                    ("param", callee.qualname, param, label),
                    desc,
                    val.prov.get(label),
                )
                if label not in kslot:
                    kslot.add(label)
                    self._note()

    def store_field(
        self, cls_key: tuple, field: str, val: Val, desc: str,
    ) -> None:
        slot = self._field_in.setdefault((cls_key, field), set())
        for label in val.all_labels():
            self.add_prov(
                ("field", cls_key, field, label), desc, val.prov.get(label)
            )
            if label not in slot:
                slot.add(label)
                self._note()

    def read_field(self, cls_key: tuple, field: str) -> Val:
        labels = self._field_in.get((cls_key, field), set())
        return Val(
            labels=set(labels),
            prov={lb: ("field", cls_key, field, lb) for lb in labels},
        )

    def set_return(self, fn: FunctionInfo, val: Val) -> None:
        slot = self._ret.setdefault(fn.qualname, set())
        for label in val.labels:
            self.add_prov(
                ("ret", fn.qualname, label),
                f"{fn.module.rel} {fn.name}() returns it",
                val.prov.get(label),
            )
            if label not in slot:
                slot.add(label)
                self._note()
        kslot = self._ret_keys.setdefault(fn.qualname, {})
        for dkey, labels in val.keys.items():
            cur = kslot.setdefault(dkey, set())
            for label in labels:
                self.add_prov(
                    ("ret", fn.qualname, label),
                    f"{fn.module.rel} {fn.name}() returns it",
                    val.prov.get(label),
                )
                if label not in cur:
                    cur.add(label)
                    self._note()

    def return_val(self, fn: FunctionInfo) -> Val:
        labels = self._ret.get(fn.qualname, set())
        val = Val(
            labels=set(labels),
            prov={lb: ("ret", fn.qualname, lb) for lb in labels},
        )
        for dkey, labels in self._ret_keys.get(fn.qualname, {}).items():
            val.keys[dkey] = set(labels)
            for lb in labels:
                val.prov.setdefault(lb, ("ret", fn.qualname, lb))
        return val

    def report(
        self,
        fn: FunctionInfo,
        call: ast.Call,
        spec: SinkSpec,
        label: str,
        sunk: str,
        prov: Optional[tuple],
    ) -> None:
        key = (fn.qualname, call.lineno, spec.kind, label, sunk)
        if key in self._findings:
            return
        self._findings[key] = TaintFinding(
            fn=fn,
            line=call.lineno,
            col=call.col_offset,
            label=label,
            kind=spec.kind,
            sunk=sunk,
            witness=self.witness(prov),
        )
        self._note()

    # ------------------------------------------------------------------
    def resolve_callees(
        self, call: ast.Call, caller: FunctionInfo
    ) -> List[FunctionInfo]:
        """resolve_call plus unique-class constructor resolution."""
        if isinstance(call.func, ast.Name):
            classes = self.program.classes.get(call.func.id, [])
            if len(classes) == 1:
                init = classes[0].methods.get("__init__")
                if init is not None:
                    return [init]
        return self.program.resolve_call(call, caller)


class _FnFlow:
    """One intraprocedural pass over one function."""

    def __init__(self, engine: TaintEngine, fn: FunctionInfo):
        self.engine = engine
        self.fn = fn
        self.env: Dict[str, Val] = {}
        spec = engine.spec
        for param in fn.params():
            val = Val()
            incoming = engine._param_in.get((fn.qualname, param), set())
            for label in incoming:
                val.labels.add(label)
                val.prov[label] = ("param", fn.qualname, param, label)
            for (qn, p, dkey), labels in engine._param_key_in.items():
                if qn == fn.qualname and p == param:
                    val.keys.setdefault(dkey, set()).update(labels)
                    for label in labels:
                        val.prov.setdefault(
                            label, ("param", fn.qualname, param, label)
                        )
            own = spec.param_label(fn, param)
            if own is not None and own not in val.labels:
                val.labels.add(own)
                val.prov[own] = engine.add_prov(
                    ("src", fn.qualname, param, own),
                    f"{fn.module.rel}:{fn.node.lineno} parameter "
                    f"'{param}' of {fn.name}() carries {own}",
                    None,
                )
            if val.labels or val.keys:
                self.env[param] = val

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._block(self.fn.node.body)

    def _block(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, val)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            val = self.eval(stmt.value)
            name = dotted_name(stmt.target)
            if name is not None:
                old = self.env.get(name, Val())
                self.env[name] = old.merge(val)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.engine.set_return(self.fn, self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            before = {k: v.copy() for k, v in self.env.items()}
            self._block(stmt.body)
            after_body = self.env
            self.env = before
            self._block(stmt.orelse)
            for name, val in after_body.items():
                self.env[name] = self.env.get(name, Val()).merge(val)
        elif isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                self._assign(stmt.target, self.eval(stmt.iter))
            else:
                self.eval(stmt.test)
            # Two passes approximate the loop fixpoint (labels are
            # monotone, one extra pass covers loop-carried flows).
            self._block(stmt.body)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                val = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, val)
            self._block(stmt.body)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    # ------------------------------------------------------------------
    def _assign(self, target: ast.expr, val: Val) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = val.copy()
            return
        if isinstance(target, ast.Tuple):
            # Each element of a tuple unpack gets the union.
            for element in target.elts:
                self._assign(element, val)
            return
        if isinstance(target, ast.Attribute):
            dotted = dotted_name(target)
            if dotted is not None:
                self.env[dotted] = val.copy()
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.fn.cls is not None
            ):
                self.engine.store_field(
                    self.fn.cls.key,
                    target.attr,
                    val,
                    f"{self.fn.module.rel}:{target.lineno} {self.fn.name}() "
                    f"stores self.{target.attr}",
                )
            return
        if isinstance(target, ast.Subscript):
            receiver = dotted_name(target.value)
            key = target.slice
            if (
                receiver is not None
                and isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            ):
                holder = self.env.setdefault(receiver, Val())
                holder.keys[key.value] = set(val.all_labels())
                for label in holder.keys[key.value]:
                    holder.prov.setdefault(label, val.prov.get(label))
            elif receiver is not None and val.all_labels():
                holder = self.env.setdefault(receiver, Val())
                self.env[receiver] = holder.merge(val)

    # ------------------------------------------------------------------
    def eval(self, node: ast.expr) -> Val:
        spec = self.engine.spec
        if isinstance(node, ast.Constant):
            return Val()
        if isinstance(node, ast.Name):
            val = self.env.get(node.id)
            return val.copy() if val is not None else Val()
        if isinstance(node, ast.Attribute):
            if node.attr in spec.source_attrs:
                label = spec.source_attrs[node.attr]
                prov = self.engine.add_prov(
                    ("src", self.fn.qualname, node.lineno, node.attr),
                    f"{self.fn.module.rel}:{node.lineno} reads "
                    f".{node.attr} ({label})",
                    None,
                )
                return Val(labels={label}, prov={label: prov})
            dotted = dotted_name(node)
            if dotted is not None and dotted in self.env:
                return self.env[dotted].copy()
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.fn.cls is not None
            ):
                return self.engine.read_field(self.fn.cls.key, node.attr)
            return self.eval(node.value) if not isinstance(node.value, ast.Name) else Val()
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.JoinedStr):
            out = Val()
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    out = out.merge(self.eval(part.value))
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, (ast.BinOp,)):
            return self.eval(node.left).merge(self.eval(node.right))
        if isinstance(node, ast.BoolOp):
            out = Val()
            for value in node.values:
                out = out.merge(self.eval(value))
            return out
        if isinstance(node, (ast.Compare,)):
            out = self.eval(node.left)
            for comp in node.comparators:
                out = out.merge(self.eval(comp))
            return Val()  # a comparison result carries no name taint
        if isinstance(node, ast.Dict):
            out = Val()
            for key, value in zip(node.keys, node.values):
                vval = self.eval(value)
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                ):
                    out.keys[key.value] = set(vval.all_labels())
                else:
                    if key is not None:
                        out = out.merge(self.eval(key))
                    out.labels |= vval.all_labels()
                for label, prov in vval.prov.items():
                    out.prov.setdefault(label, prov)
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = Val()
            for element in node.elts:
                out = out.merge(self.eval(element))
            return out
        if isinstance(node, ast.Subscript):
            receiver = dotted_name(node.value)
            base = (
                self.env.get(receiver, Val()).copy()
                if receiver is not None
                else self.eval(node.value)
            )
            if (
                isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
                and node.slice.value in base.keys
            ):
                labels = base.keys[node.slice.value]
                return Val(
                    labels=set(labels),
                    prov={lb: base.prov.get(lb) for lb in labels},
                )
            return Val(labels=base.all_labels(), prov=dict(base.prov))
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            if node.value is not None:
                return self.eval(node.value)
            return Val()
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body).merge(self.eval(node.orelse))
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Lambda):
            return Val()
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.eval(node.elt)
        if isinstance(node, ast.DictComp):
            return self.eval(node.key).merge(self.eval(node.value))
        return Val()

    # ------------------------------------------------------------------
    def _call(self, call: ast.Call) -> Val:
        spec = self.engine.spec
        cn = _callee_name(call)
        arg_vals = [self.eval(arg) for arg in call.args]
        kw_vals = {
            kw.arg: self.eval(kw.value) for kw in call.keywords if kw.arg
        }
        for kw in call.keywords:
            if kw.arg is None:
                self.eval(kw.value)

        # Sink check first: the argument as written at this site.
        for sink in spec.sinks:
            if cn != sink.callee:
                continue
            val = self._sink_arg(call, sink, arg_vals, kw_vals)
            if val is None:
                continue
            if sink.keys:
                hit: Set[str] = set()
                for dkey in sink.keys:
                    hit |= val.keys.get(dkey, set())
                # A value with no key map at all (opaque dict) falls
                # back to its overall labels.
                if not val.keys:
                    hit |= val.labels
            else:
                hit = val.all_labels()
            for label in sorted(hit & spec.forbidden):
                self.engine.report(
                    self.fn, call, sink, label,
                    sunk=f"argument {sink.arg} of {sink.callee}()",
                    prov=val.prov.get(label),
                )

        if cn is not None and cn in spec.sanitizers:
            return Val()
        if cn is not None and cn in spec.source_calls:
            label = spec.source_calls[cn]
            prov = self.engine.add_prov(
                ("src", self.fn.qualname, call.lineno, cn),
                f"{self.fn.module.rel}:{call.lineno} result of {cn}() "
                f"carries {label}",
                None,
            )
            return Val(labels={label}, prov={label: prov})

        callees = self.engine.resolve_callees(call, self.fn)
        result = Val()
        if callees:
            for callee in callees:
                params = callee.params()
                for idx, val in enumerate(arg_vals):
                    # Constructor/method calls drop the receiver slot via
                    # params(); positional args line up directly.
                    if idx < len(params) and (val.labels or val.keys):
                        self.engine.push_param(
                            callee, params[idx], val,
                            f"{self.fn.module.rel}:{call.lineno} "
                            f"{self.fn.name}() passes it to "
                            f"{callee.name}({params[idx]}=...)",
                        )
                for name, val in kw_vals.items():
                    if name in params and (val.labels or val.keys):
                        self.engine.push_param(
                            callee, name, val,
                            f"{self.fn.module.rel}:{call.lineno} "
                            f"{self.fn.name}() passes it to "
                            f"{callee.name}({name}=...)",
                        )
                result = result.merge(self.engine.return_val(callee))
                if callee.name == "__init__" and callee.cls is not None:
                    # Constructing an object whose fields the args taint:
                    # the object itself reads back through read_field.
                    pass
        else:
            # Unknown callee: conservatively propagate the union of the
            # receiver's and the arguments' labels through the result.
            if isinstance(call.func, ast.Attribute):
                result = result.merge(self.eval(call.func.value))
            for val in arg_vals:
                result = result.merge(val)
            for val in kw_vals.values():
                result = result.merge(val)
        return result

    def _sink_arg(
        self,
        call: ast.Call,
        sink: SinkSpec,
        arg_vals: List[Val],
        kw_vals: Dict[str, Val],
    ) -> Optional[Val]:
        if sink.arg < len(arg_vals):
            return arg_vals[sink.arg]
        if sink.kw and sink.kw in kw_vals:
            return kw_vals[sink.kw]
        return None
