"""Baseline suppression for lint findings.

A baseline is a committed JSON file listing findings that are known and
accepted — the escape hatch that lets the strict CI gate land before
every last legacy finding is fixed, without letting *new* drift in.
Entries are line-number independent (rule + path + message), so
unrelated edits don't churn the file; a suppression that no longer
matches anything is reported as *stale* so the file shrinks as debt is
paid down.

The shipped tree's baseline (``.deeplint-baseline.json``) is empty:
the tree lints clean, and the file exists to pin the workflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .model import Finding
from .sarif import finding_fingerprint

__all__ = [
    "Baseline",
    "BaselineError",
    "apply_baseline",
    "load_baseline",
    "write_baseline",
]

_SCHEMA = 1


class BaselineError(ValueError):
    """A baseline file that cannot be used (bad JSON, wrong schema)."""


@dataclass(frozen=True)
class Baseline:
    """Parsed suppressions: fingerprint -> the entry that produced it."""

    path: str
    entries: tuple[dict, ...]

    @property
    def fingerprints(self) -> frozenset[str]:
        return frozenset(
            finding_fingerprint(_entry_finding(e)) for e in self.entries)


def _entry_finding(entry: dict) -> Finding:
    return Finding(path=entry["path"], line=0, col=0,
                   rule=entry["rule"], message=entry["message"])


def load_baseline(path: str) -> Baseline:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict) or raw.get("schema") != _SCHEMA:
        raise BaselineError(
            f"{path}: expected {{'schema': {_SCHEMA}, 'suppressions': "
            f"[...]}}")
    entries = raw.get("suppressions", [])
    for entry in entries:
        if not isinstance(entry, dict) or not (
                {"rule", "path", "message"} <= set(entry)):
            raise BaselineError(
                f"{path}: each suppression needs rule/path/message keys")
    return Baseline(path=str(path), entries=tuple(entries))


def apply_baseline(findings: list[Finding], baseline: Baseline | None,
                   skipped: frozenset[str] = frozenset(),
                   ) -> tuple[list[Finding], list[Finding], list[dict]]:
    """Split findings into (active, suppressed) and report stale entries.

    *active* findings fail the build; *suppressed* ones matched a
    baseline entry; *stale* baseline entries matched nothing and should
    be deleted.  Entries for a rule in *skipped* — one that did not run,
    as the whole-program rules do not without ``--deep`` — cannot be
    judged and are never stale.
    """
    if baseline is None:
        return list(findings), [], []
    suppressed_fps = baseline.fingerprints
    active = [f for f in findings
              if finding_fingerprint(f) not in suppressed_fps]
    suppressed = [f for f in findings
                  if finding_fingerprint(f) in suppressed_fps]
    live = {finding_fingerprint(f) for f in findings}
    stale = [e for e in baseline.entries
             if e["rule"] not in skipped
             and finding_fingerprint(_entry_finding(e)) not in live]
    return active, suppressed, stale


def write_baseline(path: str, findings: list[Finding],
                   keep: tuple[dict, ...] = ()) -> None:
    """Write a baseline suppressing exactly *findings* plus the *keep*
    entries carried over from the file it replaces (sorted, stable)."""
    entries = sorted(
        {(f.rule, f.path, f.message) for f in findings}
        | {(e["rule"], e["path"], e["message"]) for e in keep})
    payload = {
        "schema": _SCHEMA,
        "suppressions": [
            {"rule": rule, "path": p, "message": message}
            for rule, p, message in entries
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
