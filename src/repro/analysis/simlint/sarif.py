"""SARIF 2.1.0 emission for lint findings.

SARIF is the interchange format CI annotation surfaces consume; one
``run`` with a ``repro-deeplint`` driver, the full SL+DL rule catalogue
in ``tool.driver.rules``, and one ``result`` per finding.  Output is
rendered with sorted keys and a trailing newline so two identical
analysis runs produce byte-identical files — the same determinism bar
the simulator itself is held to.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from .model import Finding

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif"]

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


def finding_fingerprint(finding: Finding) -> str:
    """Line-number-independent identity of a finding.

    Hashes ``rule|path|message`` — stable across unrelated edits that
    shift line numbers, so a SARIF consumer matches a finding from one
    run to the next.
    """
    key = f"{finding.rule}|{finding.path}|{finding.message}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def _uri(path: str) -> str:
    return pathlib.PurePath(path).as_posix()


def render_sarif(findings: list[Finding],
                 rules: list[tuple[str, str, str]]) -> str:
    """Render findings as a SARIF 2.1.0 document (a JSON string).

    *rules* is the ``(code, title, doc)`` catalogue; every finding's
    rule must appear in it (unknown rules get a minimal stub so the
    document stays valid).
    """
    codes = [code for code, _, _ in rules]
    rule_objects = [
        {
            "id": code,
            "name": title or code,
            "shortDescription": {"text": title or code},
            "fullDescription": {"text": doc or title or code},
        }
        for code, title, doc in rules
    ]
    for finding in findings:
        if finding.rule not in codes:
            codes.append(finding.rule)
            rule_objects.append({
                "id": finding.rule,
                "name": finding.rule,
                "shortDescription": {"text": finding.rule},
            })
    results = []
    for finding in sorted(findings):
        results.append({
            "ruleId": finding.rule,
            "ruleIndex": codes.index(finding.rule),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": _uri(finding.path),
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        "startColumn": finding.col + 1,
                    },
                },
            }],
            "partialFingerprints": {
                "reproDeeplint/v1": finding_fingerprint(finding),
            },
        })
    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-deeplint",
                    "informationUri":
                        "https://example.invalid/repro/docs/ANALYSIS.md",
                    "rules": rule_objects,
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file:///./"},
            },
            "results": results,
        }],
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
