"""FC007: tenant-taint — unqualified names must not reach the fabric.

DESIGN §13's isolation argument is structural: every wire-level
pipeline name, ownership key and rendezvous-hash key is
``tenant#name``-qualified, so two tenants' key spaces are disjoint *by
construction*.  That argument holds only if every value derived from a
tenant id or a client-side pipeline name actually passes through
``tenancy.qualify()`` before reaching the fabric.  This pass proves it
with the taint engine (:mod:`repro.analysis.flowcheck.taint`):

**Sources.**  ``name``/``pipeline``/``pipeline_name`` parameters of
methods on *tenant-bound* classes (classes whose ``__init__`` assigns
``self.tenant`` — the client/admin handles) carry ``raw-name``;
``tenant`` parameters, ``.tenant`` attribute reads and ``tenant_of()``
results carry ``tenant-id``.

**Sanitizer.**  ``qualify()`` (and the client's ``qualified()``
wrapper, transitively — its body ends in ``qualify``).

**Sinks.**  The RPC payload of ``provider_call``/``forward`` (dict
keys ``pipeline``/``name`` — the keys the provider routes by) and the
key argument of ``placement_rank``/``block_owner``/``replica_buddies``
(the HRW rendezvous hash).

A purely local rule catches a *join* that would launder a name across
tenants without any sink involved: an f-string gluing a tainted part to
a ``#``-bearing literal hand-builds a qualified name, bypassing
``qualify()``'s separator validation.

The module that defines ``qualify`` is exempt (it *is* the
sanitizer).  Server-side code is naturally out of scope: its
``pipeline`` parameters carry already-qualified wire names and the
handle classes that hold them never assign ``self.tenant``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.flowcheck.callgraph import CallGraph
from repro.analysis.flowcheck.model import FlowModule, FunctionInfo, Program
from repro.analysis.flowcheck.passes import Raw, flowpass
from repro.analysis.flowcheck.taint import SinkSpec, TaintEngine, TaintSpec

RAW = "raw-name"
TENANT = "tenant-id"

#: Parameter names that mean "a client-side pipeline name" on a
#: tenant-bound class.
NAME_PARAMS = {"name", "pipeline", "pipeline_name"}

SINKS = (
    SinkSpec(callee="provider_call", arg=3, kw="input",
             kind="wire-name", keys=("pipeline", "name")),
    SinkSpec(callee="forward", arg=2, kw="input",
             kind="wire-name", keys=("pipeline", "name")),
    SinkSpec(callee="placement_rank", arg=0, kind="rendezvous-hash"),
    SinkSpec(callee="block_owner", arg=0, kind="rendezvous-hash"),
    SinkSpec(callee="replica_buddies", arg=0, kind="ownership-key"),
)


def _tenant_bound_classes(program: Program) -> Set[tuple]:
    """Class keys whose ``__init__`` assigns ``self.tenant``."""
    out: Set[tuple] = set()
    for infos in program.classes.values():
        for info in infos:
            init = info.methods.get("__init__")
            if init is None:
                continue
            for node in ast.walk(init.node):
                if (
                    isinstance(node, (ast.Assign, ast.AnnAssign))
                    and any(
                        isinstance(t, ast.Attribute)
                        and t.attr == "tenant"
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        for t in (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                    )
                ):
                    out.add(info.key)
    return out


def _qualify_modules(program: Program) -> Set[str]:
    """Modules that define ``qualify`` — the sanitizer's own home."""
    return {
        fn.module.rel
        for fn in program.functions.values()
        if fn.name == "qualify" and fn.cls is None
    }


def _build_spec(program: Program) -> TaintSpec:
    bound = _tenant_bound_classes(program)
    exempt_rels = _qualify_modules(program)

    def param_label(fn: FunctionInfo, param: str) -> Optional[str]:
        if param == "tenant":
            return TENANT
        if (
            param in NAME_PARAMS
            and fn.cls is not None
            and fn.cls.key in bound
        ):
            return RAW
        return None

    return TaintSpec(
        param_label=param_label,
        source_calls={"tenant_of": TENANT},
        source_attrs={"tenant": TENANT},
        sanitizers=frozenset({"qualify"}),
        sinks=SINKS,
        forbidden=frozenset({RAW, TENANT}),
        exempt=lambda module: module.rel in exempt_rels,
    )


# ---------------------------------------------------------------------------
# local join rule
def _manual_join_findings(
    fn: FunctionInfo, engine: TaintEngine, exempt: Set[str]
) -> Iterator[Raw]:
    """f-strings that glue tainted parts to a '#' literal."""
    if fn.module.rel in exempt:
        return
    tainted_params = {
        p
        for p in fn.params()
        if engine.spec.param_label(fn, p) is not None
        or engine._param_in.get((fn.qualname, p))
    }
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.JoinedStr):
            continue
        has_sep = any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and "#" in part.value
            for part in node.values
        )
        if not has_sep:
            continue
        for part in node.values:
            if not isinstance(part, ast.FormattedValue):
                continue
            tainted = False
            if (
                isinstance(part.value, ast.Name)
                and part.value.id in tainted_params
            ):
                tainted = True
            if (
                isinstance(part.value, ast.Attribute)
                and part.value.attr == "tenant"
            ):
                tainted = True
            if tainted:
                yield Raw(
                    module=fn.module,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        "hand-built '#' join with a tenant-derived part: "
                        "use tenancy.qualify(), which validates the "
                        "separator, instead of an f-string"
                    ),
                    severity="error",
                )
                break


@flowpass("FC007", "tenant-taint", severity="error")
def check_tenant_taint(program: Program, graph: CallGraph) -> Iterator[Raw]:
    spec = _build_spec(program)
    engine = TaintEngine(program, spec)
    for finding in engine.run():
        witness = " -> ".join(finding.witness) if finding.witness else ""
        tail = f" [witness: {witness}]" if witness else ""
        yield Raw(
            module=finding.fn.module,
            line=finding.line,
            col=finding.col,
            message=(
                f"{finding.label} reaches the {finding.kind} sink "
                f"({finding.sunk}) without passing through "
                f"tenancy.qualify(){tail}"
            ),
            severity="error",
        )
    exempt = _qualify_modules(program)
    for _, fn in sorted(program.functions.items()):
        yield from _manual_join_findings(fn, engine, exempt)
