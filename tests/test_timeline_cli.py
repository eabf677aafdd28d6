"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def experiment(tmp_path, capsys):
    """``repro experiment run NAME [--set ...]`` against a throwaway
    cache; returns what it printed."""
    def run(name, *sets):
        argv = ["experiment", "run", name, "--cache-dir", str(tmp_path)]
        for pair in sets:
            argv += ["--set", pair]
        main(argv)
        return capsys.readouterr().out
    return run


class TestCli:
    def test_parser_has_all_commands(self):
        """The scenario and checkpoint front doors and the tools; every
        simulation is an ``experiment run <spec>``, not a verb of its
        own."""
        parser = build_parser()
        # argparse stores subparser choices on the last action.
        sub = parser._subparsers._group_actions[0]
        assert list(sub.choices) == ["experiment", "scenario", "checkpoint",
                                     "trace", "metrics", "lint"]

    @pytest.mark.parametrize("verb", ["fleet", "chaos", "loadgen"])
    def test_removed_verbs_are_invalid_choices(self, verb, capsys):
        """``fleet`` and ``chaos`` are ``experiment run fleet-survey
        [--plan P]``, ``loadgen`` a ``tail-latency-interference`` cell
        (docs/API.md, "Removed CLI verbs")."""
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_shared_options_spelled_identically(self):
        """The verbs take --seed/--workers/--json/--manifest from one
        parent parser: same defaults, same validation."""
        parser = build_parser()
        args = parser.parse_args(["experiment", "run", "fleet-survey",
                                  "--seed", "3", "--workers", "2"])
        assert (args.seed, args.workers) == (3, 2)
        args = parser.parse_args(["scenario", "run", "uce-degrade",
                                  "--seed", "3", "--workers", "2"])
        assert (args.seed, args.workers) == (3, 2)
        args = parser.parse_args(["experiment", "run", "fleet-survey",
                                  "--workers", "2", "--json"])
        assert args.seed is None and args.workers == 2 and args.json
        args = parser.parse_args(["metrics", "--json", "a.json"])
        assert args.json

    def test_workers_validated_identically(self, capsys):
        parser = build_parser()
        for argv in (["scenario", "run", "--matrix", "m.json",
                      "--workers", "0"],
                     ["scenario", "run", "x", "--workers", "-2"],
                     ["experiment", "run", "x", "--workers", "zero"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            assert "process count" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", [[], ["--plan", "ci-smoke"]],
                             ids=["fleet", "chaos"])
    def test_bad_mem_mib_is_one_front_door_error(self, plan, tmp_path):
        """Nothing validated ``ServerConfig.mem_bytes``, so 3 MiB was
        every worker's failure: both servers retried through their whole
        budget and the survey died on the statistics of an empty sample
        — with or without a fault plan."""
        import repro.fleet  # noqa: F401  (tracing arms existing points)
        from repro.telemetry import tracing

        with tracing("fleet.server.*") as sink:
            with pytest.raises(SystemExit) as exc:
                main(["experiment", "run", "fleet-survey", *plan,
                      "--set", "n_servers=2", "--set", "mem_mib=3",
                      "--workers", "1", "--cache-dir", str(tmp_path)])
        assert exc.value.code == ("repro: memory size 3145728 must be a "
                                  "positive multiple of 2097152 bytes")
        assert sink.events() == []

    @pytest.mark.parametrize("argv,complaint", [
        (["experiment", "run", "s53-hwcost", "--checkpoint-every", "-3"],
         "argument --checkpoint-every: checkpoint cadence must be >= 0, "
         "got -3"),
        (["scenario", "run", "--matrix", "m.json", "--checkpoint-every",
          "-3"],
         "argument --checkpoint-every: checkpoint cadence must be >= 0, "
         "got -3"),
        (["trace", "--limit", "-3"],
         "argument --limit: event count must be >= 0, got -3"),
        (["scenario", "run", "steady-web", "--checkpoint-every", "-3"],
         "argument --checkpoint-every: checkpoint cadence must be >= 0, "
         "got -3"),
        (["checkpoint", "resume", "ck", "--checkpoint-every", "-3"],
         "argument --checkpoint-every: checkpoint cadence must be >= 0, "
         "got -3"),
    ])
    def test_counts_are_refused_by_flag_name(self, argv, complaint,
                                             capsys):
        """``--limit -3`` printed everything but the first three events,
        and ``experiment run --checkpoint-every -3`` exited 0."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert complaint in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["experiment", "run", "fleet-survey", "--plan", "nope"],
        ["experiment", "run", "s53-hwcost", "--plan", "nope"],
        ["experiment", "report", "s53-hwcost", "--plan", "nope"],
    ])
    def test_unknown_plan_is_a_repro_line(self, argv):
        """The message lists every named plan: the catalogue the CLI
        has."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code.startswith(
            "repro: unknown plan 'nope'; one of ")
        assert "ci-smoke" in exc.value.code and "\n" not in exc.value.code

    @pytest.mark.parametrize("verb,content,complaint", [
        (["lint"], None, "cannot lint"),
        (["metrics"], None, "cannot read manifest"),
        (["metrics"], "{not json", "cannot read manifest"),
        (["metrics"], "[1, 2]", "must be a JSON object"),
        (["trace", "--input"], None, "cannot read event stream"),
        (["trace", "--input"], "garbage\n", ":1: not a trace event"),
    ])
    def test_bad_input_file_is_a_typed_error(self, tmp_path, verb, content,
                                             complaint):
        """A missing or malformed input file exits with ``repro: ...``
        naming the path — never a traceback."""
        target = tmp_path / "input.dat"
        if content is not None:
            target.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main([*verb, str(target)])
        message = str(exc.value.code)
        assert message.startswith("repro: ")
        assert complaint in message and str(target) in message

    def test_interference_runs(self, experiment):
        out = experiment("s53-interference")
        assert "noncacheable" in out

    def test_fig13_runs(self, experiment):
        out = experiment("fig13-unavailable")
        assert "Contiguitas" in out
        assert "Victim TLBs" in out

    def test_hwcost_runs(self, experiment):
        out = experiment("s53-hwcost")
        assert "mm^2" in out

    def test_walk_runs(self, experiment):
        out = experiment("fig03-walk-cycles", "instructions=20000")
        assert "Data walk" in out
        assert "CacheB" in out

    def test_steady_runs(self, experiment):
        """What ``repro steady`` printed beyond this table — the three
        Contiguitas-only rows — is asserted on the kernel itself in
        tests/test_contiguitas_kernel.py."""
        out = experiment("workload-steady", "service=cache-b",
                         "kernel=contiguitas", "mem_mib=64", "steps=50")
        assert "contiguitas" in out
        assert "Unmovable" in out and "Free frames" in out

    def test_loadgen_runs(self, experiment):
        out = experiment("tail-latency-interference", "shape=steady",
                         "rate_krps=500", "duration_ms=0.5")
        assert "open-loop" in out
        assert "migration" in out and "quiet" in out
        assert "Migration windows during the burst" in out

    def test_loadgen_json_deterministic(self, tmp_path, capsys):
        """Two computations against two fresh caches print the same
        rows."""
        import json

        outs = []
        for cache in ("a", "b"):
            main(["experiment", "run", "tail-latency-interference",
                  "--json", "--set", "shape=spiky-cache",
                  "--set", "rate_krps=500", "--set", "duration_ms=0.5",
                  "--seed", "9", "--cache-dir", str(tmp_path / cache)])
            captured = capsys.readouterr()
            assert "[computed]" in captured.err
            outs.append(captured.out)
        assert outs[0] == outs[1]
        by_class = {row["class"]: row for row in json.loads(outs[0])}
        assert set(by_class) == {"all", "migration", "quiet"}
        assert by_class["all"]["requests"] > 0
