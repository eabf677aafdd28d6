"""simlint: repo-specific static analysis for determinism & invariants.

A small AST-based linter (stdlib :mod:`ast` only, no dependencies) whose
rules encode this repository's correctness contracts — the properties
that keep fleet manifests bit-identical across worker counts and keep
allocator invariants alive under ``python -O``:

========  ==========================================================
SL001     no wall-clock time in ``mm``/``sim``/``kalloc``/``fleet``
          (sim-time only; ``time.perf_counter`` durations are exempt)
SL002     no module-level or unseeded ``random`` — randomness must
          flow through an injected seeded ``random.Random(seed)``
SL003     tracepoint disabled-path contract — ``tp.emit(...)`` with
          arguments must sit under ``if tp.enabled:``
SL004     no bare ``assert`` carrying simulator invariants (stripped
          by ``-O``); raise ``SimInvariantError`` / use the sanitizer
SL005     no mutable default arguments
SL006     deterministic iteration — set iteration feeding output or
          accumulation in ``fleet``/``telemetry`` needs ``sorted()``
SL008     retry loops must be bounded — ``while True:`` with retry
          markers needs an attempt counter
SL009     no per-frame Python-object construction in ``mm`` hot
          loops — read the packed arrays, build objects at the API
          boundary
========  ==========================================================

Suppress a finding with a trailing ``# simlint: disable=SL004`` comment
(comma-separate several codes), or a whole file with
``# simlint: disable-file=SL004`` on its own line.  See
``docs/ANALYSIS.md`` for the full catalogue and the ``repro lint`` CLI.
"""

from .core import (
    Finding,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from .rules import DEFAULT_RULES, Rule, rule_catalogue

__all__ = [
    "DEFAULT_RULES",
    "Finding",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "rule_catalogue",
]
