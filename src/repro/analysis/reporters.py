"""Lint output: human text, machine JSON, and SARIF 2.1.0.

The JSON document is a stable contract (version field, documented in
``docs/analysis.md`` and validated by
``tests/analysis/test_runner.py::TestReporters::test_json_schema``)::

    {
      "version": 2,
      "ok": false,
      "rules": ["dtype-promotion", ...],
      "files_checked": 272,
      "suppressed": 3,
      "findings": [
        {"path": "src/repro/x.py", "line": 10, "col": 4,
         "rule": "span-leak", "message": "..."}
      ]
    }

:func:`render_sarif` emits SARIF 2.1.0 (one run, one result per
finding, rule metadata under ``tool.driver.rules``) so GitHub code
scanning renders findings as inline PR annotations:
``repro lint --format sarif`` or ``--sarif <path>`` as a side output.
"""

from __future__ import annotations

import json

from repro.analysis.framework import get_rule
from repro.analysis.runner import LintResult

__all__ = ["REPORT_VERSION", "render_text", "render_json", "render_sarif"]

REPORT_VERSION = 2

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult, *, verbose: bool = False) -> str:
    """One ``file:line:col: rule: message`` line per finding."""
    lines = [f.render() for f in result.findings]
    summary = (
        f"{len(result.findings)} finding(s) "
        f"({result.suppressed} suppressed) in {result.files_checked} file(s)"
    )
    if verbose:
        summary += f"; rules: {', '.join(result.rules)}"
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "version": REPORT_VERSION,
        "ok": result.ok,
        "rules": list(result.rules),
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 document over the findings (the gate)."""
    rule_ids = sorted({f.rule for f in result.findings} | set(result.rules))
    rules_meta = []
    for rule_id in rule_ids:
        meta = {"id": rule_id}
        try:
            rule = get_rule(rule_id)
        except Exception:
            rule = None  # e.g. synthetic "parse-error" findings
        if rule is not None:
            meta["shortDescription"] = {"text": rule.description}
            if rule.invariant:
                meta["fullDescription"] = {"text": rule.invariant}
        else:
            meta["shortDescription"] = {"text": rule_id}
        rules_meta.append(meta)
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": rule_ids.index(f.rule),
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in result.findings
    ]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules_meta,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
