"""Fail when ``src/repro`` grows past its committed code-line budget.

Usage (from the repo root)::

    python benchmarks/perf/loc_budget.py [--root src/repro]

Size is a measured quantity here, like throughput (ROADMAP item 3): the
count is taken from the token stream, so a line counts only if it holds
at least one token of code.  Blank lines, comment-only lines and
docstrings (any statement that is nothing but a string literal) are
excluded — the number cannot be moved by reflowing prose or deleting
comments, only by adding or removing code.

:data:`BUDGET` is the count at the last PR that changed it on purpose.
A PR that adds code raises it deliberately, in the same diff, with the
reason in CHANGES.md; a PR that removes code lowers it so the saving
cannot silently be spent later.

Exit status: 0 when the count is within the budget, 1 otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tokenize

#: Code lines under ``src/repro`` (PR 24: one grid runner — the sweep
#: path, its result class, counters, tracepoint and printer went, and
#: ``scenarios/report.py`` builds one document for both emitters; with
#: them ``fleet/report.py``, ``kalloc.FsBufferPool`` and the ``"fifo"``
#: pop mode, which nothing but tests reached.  13,233 before it, 13,235
#: before PR 23, 13,517 before PR 22, 13,545 before PR 21, 13,596 before
#: PR 20, 13,603 before PR 19, 13,604 before PR 17, 13,816 before PR 16,
#: 13,848 before PR 15, 14,049 before PR 12).
#: Then 13,030 → 13,070: reclaim frees the pages nobody named in runs,
#: without building their handles — the slot walk in
#: ``ReclaimLRU.reclaim``, ``LinuxKernel.reclaim``/``_free_unnamed``,
#: ``BuddyAllocator.free_run``/``free_blocks`` and the freed marker.
#: Then 13,070 → 13,553: figure code moved into ``src`` — the eleven
#: figures that ran private kernel loops under ``benchmarks/`` became
#: specs in ``experiments/builtin.py`` (with the shared
#: ``steady-profile`` run), and the shared bench helpers plus the 18
#: ``bench_*.py`` files became one ``bench_figures.py`` (679 → 181
#: code lines); ``src/repro`` plus ``benchmarks/*.py`` went 13,749 →
#: 13,734.
#: Then 13,553 → 13,312: the ``fleet``, ``chaos`` and ``loadgen`` CLI
#: verbs went, with their handlers, their parser blocks and the second
#: checkpoint-flag dialect (``run.checkpoint_flags``) and fleet table
#: renderer only they used; ``cli.py`` 879 → 665.
#: Then 13,312 → 13,182: one allocator core — ``mm/freelist.py``
#: (``FreeList``/``FreelistStore``) went, its links became
#: ``PhysicalMemory`` columns and its per-list state a table in
#: ``BuddyAllocator``, with ``free_bulk``/``mark_free_bulk``, which only
#: tests called; ``src/repro/mm`` 2,480 → 2,311.
#: Then 13,182 → 13,206: the driver's expiry calendar and one loop per
#: churn kind, each binding its draws and lifetimes once
#: (``workloads/base.py`` 321 → 337), a slotted slab ``ObjectRef``, and
#: typed double-free checks in ``SlabCache.free_object`` and
#: ``NetworkBufferPool.free_buffer`` (``kalloc`` +8).
#: Then 13,206 → 13,664: the paper's claims became data on the specs —
#: the claim table on the 18 figure specs (``experiments/builtin.py``
#: 936 → 1,208), its two kinds and the verifier
#: (``experiments/claims.py``, 141) and ``experiment verify`` (``cli``
#: +30); the 18 check functions went from ``bench_figures.py`` (181 →
#: 14), so ``src/repro`` plus ``benchmarks/*.py`` went 13,387 → 13,678.
#: Then 13,664 → 12,935: the dead-surface rule (DL105, +108 in
#: ``analysis/simlint``) and the deletion of everything it reported —
#: ``repro.vm``, ``mm/hugetlb.py``, ``mm/thp.py``, ``sim/coherence.py``,
#: ``sim/hwtiming.py``, ``analysis/timeline.py``,
#: ``HwMigrationEngine.migrate_page``, ``defrag_unmovable_region`` and
#: some forty accessors and methods only tests called; the five that
#: tests still read moved to ``tests/conftest.py``.
#: Then 12,935 → 13,580: checkpoints as data — the sectioned envelope
#: with typed header and table checks and per-section ``inspect``
#: (``checkpoint/format.py`` and ``cli.py``, +155), the handle table,
#: the registry's sections and its vectorised sweep (``mm/handle.py``,
#: ``mm/sections.py``, +143), and ``snapshot()``/``restore()`` on every
#: other stateful layer of the ``workload`` run kind (``mm``, ``core``,
#: ``kalloc``, the driver, ``WorkloadConfig.state``, ``run.py``, +347).
#: Then 13,580 → 13,636: the handle registry as a frame column and a
#: slot array, with its range-checked restore and array sweep
#: (``mm``, +33), and typed errors for hostile trace logs and scenario
#: fields (the trace-log loader, deleted since, and ``scenarios``, +23).
#: Then 13,636 → 13,470: options only tests set went — 20 of the 51
#: fields of the seven front-door configs, with the fleet's per-server
#: load burst and tail aggregates, ``WorkloadConfig.loadgen``, the
#: straggler timeout and the chunk-size override, ``run_fleet_scans``
#: and ``FleetSample.merge``; calibrations became module constants.
#: Then 13,470 → 13,507: a warm ``scenario run`` loads only what it
#: runs — ``experiments/builtin.py`` became five spec family modules
#: plus their shared helpers (1,208 → 1,227: each family repeats its
#: imports), ``spec.FAMILIES`` and the import-on-first-use lookup
#: (+26), the tool verbs' handlers in ``repro/tools.py`` behind door
#: strings (+7), manifests built on first read (``LazyManifest``, +7,
#: with both runners' cell addressing shared: −15) and ``faults``
#: re-exported lazily (−7).
#: Then 13,507 → 13,322: values nothing set went — the lint baseline
#: (``simlint/baseline.py``, its exports, ``--baseline``,
#: ``--write-baseline``, ``--strict`` and SARIF's suppression marks,
#: −135) and 46 keyword parameters no call passed, their defaults now
#: module constants or the only branch (−51); ``trace --service``
#: takes any registered name (+1).
#: Then 13,322 → 13,248: fields only tests set went, round two —
#: ``TelemetryConfig`` (``telemetry/config.py``), ``RunSession``'s sink,
#: ``ExitStack`` and context-manager methods, the three
#: ``manifest_path=`` parameters and ``resume_run``'s telemetry rewrite,
#: ``KernelConfig.thp_enabled``/``compaction_enabled`` with their off
#: branches; every front door's result builds its manifest on first
#: read (``manifest_derived``), and the uptime range, ``walk_cycles``
#: and the s24 producer refuse their edge values.
#: Then 13,248 → 12,947: DL105 stopped rooting the ``__all__`` of the
#: modules docs/API.md documents, and what it then found went —
#: ``core/illuminator.py``, ``workloads/tracelog.py`` (−185; its
#: recorder is a test helper now), ``relative_throughput``,
#: ``list_services``, ``list_shapes``, ``unregister`` and
#: ``lint_source`` — with the second grid spelling
#: (``ExperimentSpec.axes``, ``axes_from_grid``, ``experiment sweep``
#: and ``experiment list``'s cell count); the vacuous-claim verdict and
#: the boolean-seed checks added 24.
#: Then 12,947 → 12,792: one matrix model — ``experiments/grid.py``
#: (``Axis``, ``AxisValue``, ``Cell``, ``expand_axes``, ``value_id``)
#: and ``Smoke`` went, and ``scenario_from_dict`` checks a document
#: once into plain-data axes that expand straight to cells (grid, model
#: and loader 496 → 345); ``ScenarioConfig`` checks its fields by type
#: (+10).
#: Then 12,792 → 12,599: the linter checks what exists, once — DL103's
#: deprecation-table and scenario-library passes went (API.md holds no
#: deprecation table, and ``list_scenarios`` plus
#: ``TestLibraryIsData`` check the library), and DL102 reads seeds
#: through ``ProgramModel.resolve_string`` (``analysis/simlint`` 1,572
#: → 1,375); ``ExperimentSpec`` refuses an empty description (+4).
#: Then 12,599 → 12,457: one way to finish a killed run — ``repro
#: checkpoint resume`` and what only it needed went (``run.RunKind``,
#: ``KINDS``, ``load_resumable``, ``resume_run``, the embedded config,
#: ``WorkloadConfig.state``/``from_state``,
#: ``LoadgenResult.snapshot``), ``run_loadgen`` and ``survey_fleet``
#: stopped checkpointing, and the ``fleet`` payload became JSON, so the
#: envelope lost its ``pickle`` section type (``run.py`` 108 → 55).
#: Then 12,457 → 12,474: a warm ``scenario run`` compiles only what it
#: runs — each verb's parser is filled in when it parses (``_Verb``),
#: the other verbs' handlers moved to ``verbs.py``, and claim
#: verification, ``ExperimentContext`` and telemetry's sinks,
#: instruments and ``LazyManifest`` to modules of their own (their
#: headers cost more than the lazy ``__init__`` tables saved);
#: ``ResultCache.keys``/``__contains__``, which only tests read, went
#: (−14); a spec that does not checkpoint refuses a checkpoint request
#: (+9).
#: Then 12,474 → 12,487: a checkpoint costs its bytes — the handle
#: table numbers its first holder's handles in one pass and builds its
#: columns per field, the writer sends the envelope in one ``writev``
#: and slab objects restore in bulk (+12); a figure's ``--resume-from``
#: directory reaches the survey it fetches and worker tracebacks name
#: files relative to the package (+12); the TLB ``flush`` methods,
#: which nothing called, went (−11).
#: Then 12,487 → 12,515: the warm ``scenario run`` records became named
#: tuples and plain classes, net of the ``dataclasses`` imports they
#: drop — validation in ``__new__``/``__init__``, field tuples for the
#: claim kinds, ``__init__``/``__eq__`` written out for the two run
#: results (+7); DL103 accepts a ``NamedTuple`` config by structure
#: (+15); ``--set`` refuses a repeated key (+2); a cache entry is checked
#: before it is served (+2); the HTML renderer's own module costs its
#: imports (+2).
#: Then 12,515 → 12,501: the handle registry became the one numbering
#: of allocations (format 14) — the handle table, the scalar map, the
#: mixed-list encoder and the per-batch fields went; the slot path, the
#: columnar batch build and the driver's slot calendar came in their
#: place (−19); the bulk mark refuses a birth tick past int32 and
#: ``relocate`` an unregistered head (+5).
#: Then 12,501 → 12,535: a buffer touch that hits the L1 TLB and L1D
#: runs in one frame of ``TimingCore.execute``, with its cost computed
#: at construction (+27); ``RequestLoop`` refuses sizes below 1 and
#: ``relative_throughput_simulated`` zero requests (+8); a
#: ``LatencyRecorder`` keeps only its samples, and the manifest's
#: histograms are built from them when it is read (−1).
#: Then 12,535 → 12,489: a report that is one table over a spec's rows
#: is a ``spec.Table`` value (+14), and the 20 hand-built
#: ``format_table`` reports became nine tables and eleven short
#: functions over them (−69); ``analysis.percent`` went (−3); migration
#: rates that are not finite and >= 0 and page shifts other than
#: 12/21/30 are refused, in one check ``LoadgenConfig`` shares (+12).
#: Then 12,489 → 12,485: ``repro.core``, ``repro.core.hwext`` and
#: ``repro.sim`` re-export through lazy tables (−7), and
#: ``mm/kernel.py`` imports the sanitizer at module level (+3).
BUDGET = 12_485

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def code_lines(path: pathlib.Path) -> int:
    """Physical lines of *path* that carry code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                # A logical line that is one string literal is a
                # docstring (or a bare string doing a comment's job).
                if not (len(statement) == 1
                        and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src/repro",
                        help="package directory to count (default: %(default)s)")
    args = parser.parse_args(argv)
    counts = {path: code_lines(path)
              for path in sorted(pathlib.Path(args.root).rglob("*.py"))}
    total = sum(counts.values())
    for path, n in sorted(counts.items(), key=lambda kv: -kv[1])[:10]:
        print(f"{n:>7,}  {path}")
    status = "ok" if total <= BUDGET else "FAIL"
    print(f"{status:4s} {total:,} code lines under {args.root} "
          f"(budget {BUDGET:,}, {BUDGET - total:+,} to spare)")
    return 0 if total <= BUDGET else 1


if __name__ == "__main__":
    sys.exit(main())
