"""Unified report across detlint and flowcheck: SARIF-lite and SARIF 2.1.0.

One JSON document for CI artifact upload: every finding from both
analyzers, normalized to a shared shape (tool, rule id, severity,
location, suppression state + reason). detlint findings have no
native severity; they are all determinism hazards, so they map to
``"error"``.

Two serializations of the same merged finding list:

``to_json()``
    The stable ``sarif-lite-1`` shape (flat finding dicts) consumed by
    the repo's own tests and ``make report``.

``to_sarif()``
    Real SARIF 2.1.0 — one run, one driver carrying both tools' rule
    metadata, results with physical locations/regions, and ``inSource``
    suppressions with justifications — suitable for GitHub code
    scanning upload (``github/codeql-action/upload-sarif``).

Findings identical under the ``(rule, path, line)`` fingerprint are
deduplicated at merge time (two passes flagging the same line under the
same rule would otherwise double-report in CI).

::

    python -m repro.analysis report --json > analysis-report.json
    python -m repro.analysis report --sarif > analysis.sarif
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.analysis.detlint import RULES, run_lint
from repro.analysis.flowcheck import PASSES, run_check

__all__ = ["AnalysisReport", "run_report"]

SCHEMA_VERSION = "sarif-lite-1"
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
    "master/Schemata/sarif-schema-2.1.0.json"
)

# SARIF result levels: only error/warning/note/none are legal.
_SARIF_LEVEL = {"error": "error", "warning": "warning", "info": "note"}


def _rule_metadata() -> List[Dict]:
    """Both analyzers' rule tables as SARIF reportingDescriptors."""
    rules: List[Dict] = []
    for det in sorted(RULES, key=lambda r: r.id):
        rules.append(
            {
                "id": det.id,
                "name": det.slug,
                "shortDescription": {"text": det.summary},
                "defaultConfiguration": {"level": "error"},
                "properties": {"tool": "detlint"},
            }
        )
    for rule_id in sorted(PASSES):
        spec = PASSES[rule_id]
        rules.append(
            {
                "id": spec.rule,
                "name": spec.slug,
                "shortDescription": {"text": spec.slug.replace("-", " ")},
                "defaultConfiguration": {
                    "level": _SARIF_LEVEL.get(spec.severity, "warning")
                },
                "properties": {"tool": "flowcheck"},
            }
        )
    return rules


@dataclass
class AnalysisReport:
    """Normalized findings from every analyzer over one file set."""

    findings: List[Dict]
    files_checked: int
    deduped: int = 0

    @property
    def ok(self) -> bool:
        return not [f for f in self.findings if not f["suppressed"]]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            key = "suppressed" if finding["suppressed"] else finding["severity"]
            out[key] = out.get(key, 0) + 1
        return out

    def suppressed_by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            if finding["suppressed"]:
                out[finding["rule"]] = out.get(finding["rule"], 0) + 1
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": SCHEMA_VERSION,
                "tools": {
                    "detlint": "determinism AST lint (DET rules)",
                    "flowcheck": "interprocedural protocol/lifecycle analysis (FC rules)",
                },
                "files_checked": self.files_checked,
                "ok": self.ok,
                "counts": self.counts(),
                "suppressed_by_rule": self.suppressed_by_rule(),
                "deduped": self.deduped,
                "findings": self.findings,
            },
            indent=2,
            sort_keys=True,
        )

    def to_sarif(self) -> str:
        rules = _rule_metadata()
        rule_index = {r["id"]: i for i, r in enumerate(rules)}
        results: List[Dict] = []
        for f in self.findings:
            result: Dict = {
                "ruleId": f["rule"],
                "level": _SARIF_LEVEL.get(f["severity"], "warning"),
                "message": {"text": f["message"]},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f["path"].replace("\\", "/"),
                                "uriBaseId": "SRCROOT",
                            },
                            "region": {
                                "startLine": f["line"],
                                # SARIF columns are 1-based; ast's are 0-based.
                                "startColumn": f["col"] + 1,
                            },
                        }
                    }
                ],
                "properties": {"tool": f["tool"]},
            }
            if f["rule"] in rule_index:
                result["ruleIndex"] = rule_index[f["rule"]]
            if f["suppressed"]:
                result["suppressions"] = [
                    {"kind": "inSource", "justification": f["reason"] or ""}
                ]
            results.append(result)
        return json.dumps(
            {
                "$schema": SARIF_SCHEMA,
                "version": SARIF_VERSION,
                "runs": [
                    {
                        "tool": {
                            "driver": {
                                "name": "repro-analysis",
                                "informationUri": (
                                    "https://example.invalid/repro/DESIGN.md"
                                ),
                                "semanticVersion": "1.0.0",
                                "rules": rules,
                            }
                        },
                        "columnKind": "utf16CodeUnits",
                        "originalUriBaseIds": {
                            "SRCROOT": {"uri": "file:///"},
                        },
                        "results": results,
                    }
                ],
            },
            indent=2,
            sort_keys=True,
        )


def _entry(
    tool: str,
    rule: str,
    severity: str,
    path: str,
    line: int,
    col: int,
    message: str,
    suppressed: bool,
    reason: str,
) -> Dict:
    return {
        "tool": tool,
        "rule": rule,
        "severity": severity,
        "path": path,
        "line": line,
        "col": col,
        "message": message,
        "suppressed": suppressed,
        "reason": reason,
    }


def run_report(
    paths: Iterable[str], root: Optional[str] = None
) -> AnalysisReport:
    lint = run_lint(list(paths), root=root)
    check = run_check(list(paths), root=root)
    findings: List[Dict] = []
    for f in lint.findings:
        findings.append(
            _entry(
                "detlint", f.rule, "error", f.path, f.line, f.col,
                f.message, f.suppressed, f.reason,
            )
        )
    for f in check.findings:
        findings.append(
            _entry(
                "flowcheck", f.rule, f.severity, f.path, f.line, f.col,
                f.message, f.suppressed, f.reason,
            )
        )
    findings.sort(key=lambda e: (e["path"], e["line"], e["tool"], e["rule"]))
    seen = set()
    unique: List[Dict] = []
    for entry in findings:
        fingerprint = (entry["rule"], entry["path"], entry["line"])
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        unique.append(entry)
    return AnalysisReport(
        findings=unique,
        files_checked=check.files_checked,
        deduped=len(findings) - len(unique),
    )
