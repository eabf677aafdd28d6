"""simlint: repo-specific static analysis for determinism & invariants.

An AST-based linter (stdlib :mod:`ast` only, no dependencies) whose
rules encode this repository's correctness contracts — the properties
that keep fleet manifests bit-identical across worker counts and keep
allocator invariants alive under ``python -O``.  Every file is parsed
once into a shared :class:`~repro.analysis.simlint.model.ProgramModel`;
the per-file rules read one file's record, the whole-program rules
(``deep``) read the model and the docs it is checked against:

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
SL010     durable writes in ``checkpoint``/``experiments``/
          ``telemetry`` must stage to a temp file and ``os.replace``
DL101     every tracepoint/metric name emitted anywhere must match
          the docs/OBSERVABILITY.md catalogue (and vice versa, and
          kinds agree)
DL102     every string-seeded ``random.Random`` follows the
          ``{site}:{purpose}…:{seed}`` named-stream convention and
          stream objects don't escape their declaring purpose
DL103     docs/API.md and the code agree on the stable surface
          (``__all__`` snapshots, frozen front-door configs)
DL104     nothing reachable from a manifest/snapshot producer
          iterates a set unsorted or calls ``id()``
========  ==========================================================

Suppress a source-anchored finding with a trailing ``# simlint:
disable=SL004`` comment (comma-separate several codes), or a whole file
with ``# simlint: disable-file=SL004`` on its own line.  A finding
anchored in a docs file (a dead catalogue row) is fixed in the docs.
See ``docs/ANALYSIS.md`` for the full catalogue and the ``repro lint``
CLI.
"""

from .core import (
    RULES,
    DeepLintError,
    find_contract_root,
    lint_paths,
    render_json,
    render_text,
    rule_catalogue,
)
from .model import Finding
from .rules import Rule
from .sarif import render_sarif

__all__ = [
    "DeepLintError",
    "Finding",
    "RULES",
    "Rule",
    "find_contract_root",
    "lint_paths",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalogue",
]
