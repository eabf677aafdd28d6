"""The tool verbs of ``repro``: ``lint``, ``trace``, ``metrics`` and
``checkpoint inspect``.

:func:`repro.cli.build_parser` names each handler by a
``"repro.tools:function"`` door string that :func:`repro.cli.main`
resolves after parsing, so a ``scenario`` or ``experiment`` invocation
never compiles this module.
"""

from __future__ import annotations

from .analysis.reporting import format_table
from .units import MiB


def _format_event(event) -> str:
    payload = " ".join(f"{k}={v}" for k, v in sorted(event.fields.items()))
    return f"{event.ts:>10}  {event.name:<24} {payload}"


def cmd_trace(args) -> None:
    from fnmatch import fnmatchcase

    from .telemetry import JsonlSink, read_jsonl, tracing

    if args.input:
        events = read_jsonl(args.input)
    else:
        # No input stream: run a small steady-state workload under
        # tracing so the command is useful standalone.
        from .mm import KernelConfig, LinuxKernel
        from .workloads import Workload, get_service

        kernel = LinuxKernel(KernelConfig(mem_bytes=MiB(args.mem_mib)))
        workload = Workload(kernel, get_service(args.service),
                            seed=args.seed)
        with tracing(*(args.match or ["*"])) as sink:
            workload.start()
            for _ in range(args.steps):
                workload.step()
        events = sink.events()
        if sink.dropped:
            print(f"# ring dropped {sink.dropped} oldest events")

    if args.match:
        events = [e for e in events
                  if any(fnmatchcase(e.name, p) for p in args.match)]
    if args.limit:
        events = events[-args.limit:]

    if args.out:
        with JsonlSink(args.out) as sink:
            for e in events:
                sink.append(e)
        print(f"{len(events)} events written to {args.out}")
    else:
        for e in events:
            print(_format_event(e))


def cmd_metrics(args) -> None:
    import json

    from .telemetry import (
        format_manifest,
        format_manifest_diff,
        load_manifest,
        manifest_diff,
    )

    if len(args.manifests) > 2:
        raise SystemExit("repro metrics takes one manifest, or two to diff")
    if len(args.manifests) == 1:
        manifest = load_manifest(args.manifests[0])
        print(json.dumps(manifest, indent=2, sort_keys=True)
              if args.json else format_manifest(manifest))
    else:
        a, b = (load_manifest(p) for p in args.manifests)
        diff = manifest_diff(a, b)
        print(json.dumps(diff, indent=2, sort_keys=True)
              if args.json else format_manifest_diff(diff))


def cmd_lint(args) -> None:
    import os

    from .analysis import simlint

    if args.list_rules:
        catalogue = simlint.rule_catalogue(args.deep)
        if args.json:
            import json

            print(json.dumps(
                [{"code": c, "title": t, "summary": s}
                 for c, t, s in catalogue], indent=2))
        else:
            print(format_table(
                ["Rule", "Contract"],
                [(code, title) for code, title, _ in catalogue],
                title=("simlint + deeplint" if args.deep else "simlint")
                      + " rule catalogue (docs/ANALYSIS.md)"))
        return
    # Default target: the installed repro package itself, so `repro lint`
    # works from any working directory.
    paths = args.paths or [os.path.dirname(os.path.abspath(__file__))]
    try:
        findings = simlint.lint_paths(paths, deep=args.deep,
                                      docs_dir=args.docs)
    except simlint.DeepLintError as exc:
        raise SystemExit(f"repro lint: {exc}")
    if args.sarif:
        document = simlint.render_sarif(
            findings, simlint.rule_catalogue(deep=True))
        if args.sarif == "-":
            print(document, end="")
        else:
            with open(args.sarif, "w", encoding="utf-8") as fh:
                fh.write(document)
    if args.sarif != "-":
        print(simlint.render_json(findings) if args.json
              else simlint.render_text(findings))
    if findings:
        raise SystemExit(1)


def _store_names(directory: str) -> list[str]:
    """Checkpoint store names under *directory* (one per ``*.ckpt``,
    staging temp files excluded); exits when there are none."""
    import os

    from .checkpoint import CheckpointStore

    try:
        entries = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        raise SystemExit(
            f"repro: no such checkpoint directory: {directory!r}")
    suffix = CheckpointStore.SUFFIX
    names = sorted(entry[:-len(suffix)] for entry in entries
                   if entry.endswith(suffix)
                   and not entry.startswith(".tmp-"))
    if not names:
        raise SystemExit(
            f"repro: no checkpoints (*{suffix}) under {directory!r}")
    return names


def cmd_checkpoint_inspect(args) -> None:
    import json

    from .checkpoint import (
        DEFAULT_DEADLINE_S,
        CheckpointStore,
        DeadlineWatchdog,
    )

    names = _store_names(args.dir)
    deadline = (DEFAULT_DEADLINE_S if args.deadline is None
                else args.deadline)
    reports = []
    for name in names:
        store = CheckpointStore(args.dir, name)
        watchdog = DeadlineWatchdog(store.current_path,
                                    deadline_s=deadline)
        reports.append({**store.inspect(),
                        "watchdog": watchdog.describe()})
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return
    rows = []
    for report in reports:
        for generation, desc in zip(("current", "previous"),
                                    report["generations"]):
            rows.append((report["name"], generation, desc["status"],
                         str(desc.get("step", "-")),
                         desc.get("kind", "-"),
                         str(desc.get("size", "-"))))
    print(format_table(
        ["Store", "Generation", "Status", "Step", "Kind", "Bytes"],
        rows, title=f"Checkpoints under {args.dir}"))
    for report in reports:
        for generation, desc in zip(("current", "previous"),
                                    report["generations"]):
            if desc.get("sections"):
                print()
                print(format_table(
                    ["Section", "Type", "Dtype", "Shape", "Bytes",
                     "Checksum"],
                    [(sec["name"], sec["type"], sec["dtype"] or "-",
                      "-" if sec["shape"] is None
                      else "x".join(map(str, sec["shape"])) or "()",
                      str(sec["bytes"]), sec["checksum"])
                     for sec in desc["sections"]],
                    title=f"{report['name']} {generation}: sections"))
    for report in reports:
        wd = report["watchdog"]
        age = ("-" if wd["age_s"] is None
               else f"{wd['age_s']:.0f}s old")
        print(f"\n{report['name']}: watchdog {wd['status']} "
              f"({age}, deadline {wd['deadline_s']:.0f}s)")

