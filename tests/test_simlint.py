"""simlint: every rule gets a clean, a violating, and a suppressed case.

Fixtures are inline source strings; subsystem-scoped rules (SL001,
SL006) are exercised by giving :func:`lint_source` a *path* inside and
outside the scoped directories — the engine scopes on directory
components, not file contents.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.simlint import (
    RULES,
    Finding,
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_catalogue,
)

MM_PATH = "src/repro/mm/fixture.py"
FLEET_PATH = "src/repro/fleet/fixture.py"
NEUTRAL_PATH = "src/repro/analysis/fixture.py"


def rules_of(source: str, path: str = NEUTRAL_PATH) -> set[str]:
    return {f.rule for f in lint_source(textwrap.dedent(source), path)}


def findings_for(source: str, path: str = NEUTRAL_PATH) -> list[Finding]:
    return lint_source(textwrap.dedent(source), path)


class TestWallClockSL001:
    def test_flags_wall_clock_in_sim_subsystem(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        found = findings_for(src, MM_PATH)
        assert [f.rule for f in found] == ["SL001"]
        assert "time.time" in found[0].message

    def test_flags_aliased_and_from_imports(self):
        src = """
            from datetime import datetime
            import time as t

            def stamp():
                return datetime.now(), t.monotonic()
        """
        found = findings_for(src, FLEET_PATH)
        assert [f.rule for f in found] == ["SL001", "SL001"]

    def test_perf_counter_exempt(self):
        src = """
            import time

            def duration():
                return time.perf_counter()
        """
        assert "SL001" not in rules_of(src, FLEET_PATH)

    def test_outside_sim_subsystems_allowed(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert "SL001" not in rules_of(src, "src/repro/telemetry/manifest.py")


class TestSeededRandomSL002:
    def test_flags_unseeded_random(self):
        src = """
            import random

            def jitter():
                return random.random()
        """
        assert "SL002" in rules_of(src)

    def test_flags_unseeded_random_instance(self):
        src = """
            import random

            def make_rng():
                return random.Random()
        """
        assert "SL002" in rules_of(src)

    def test_seeded_instance_in_function_clean(self):
        src = """
            import random

            def make_rng(seed):
                return random.Random(seed)
        """
        assert "SL002" not in rules_of(src)

    def test_module_level_seeded_instance_flagged(self):
        src = """
            import random

            RNG = random.Random(1234)
        """
        assert "SL002" in rules_of(src)

    def test_from_import_unseeded_flagged(self):
        src = """
            from random import Random

            def make_rng():
                return Random()
        """
        assert "SL002" in rules_of(src)

    def test_from_import_as_alias_unseeded_flagged(self):
        src = """
            from random import Random as R

            def make_rng():
                return R()
        """
        assert "SL002" in rules_of(src)

    def test_assignment_factory_alias_unseeded_flagged(self):
        src = """
            import random

            _factory = random.Random

            def make_rng():
                return _factory()
        """
        assert "SL002" in rules_of(src)

    def test_assignment_factory_alias_of_from_import_flagged(self):
        src = """
            from random import Random

            _factory = Random

            def make_rng():
                return _factory()
        """
        assert "SL002" in rules_of(src)

    def test_assignment_factory_alias_seeded_in_function_clean(self):
        src = """
            import random

            _factory = random.Random

            def make_rng(seed):
                return _factory(f"site:purpose:{seed}")
        """
        assert "SL002" not in rules_of(src)


class TestTracepointGuardSL003:
    def test_unguarded_emit_with_kwargs_flagged(self):
        src = """
            from repro.telemetry import tracepoint

            tp_alloc = tracepoint("mm.buddy.alloc")

            def alloc(pfn):
                tp_alloc.emit(pfn=pfn)
        """
        found = findings_for(src)
        assert [f.rule for f in found] == ["SL003"]
        assert "enabled" in found[0].message

    def test_guarded_emit_clean(self):
        src = """
            from repro.telemetry import tracepoint

            tp_alloc = tracepoint("mm.buddy.alloc")

            def alloc(pfn):
                if tp_alloc.enabled:
                    tp_alloc.emit(pfn=pfn)
        """
        assert "SL003" not in rules_of(src)

    def test_argless_emit_clean(self):
        # No kwargs built on the disabled path -> no overhead to guard.
        src = """
            from repro.telemetry import tracepoint

            tp_tick = tracepoint("sim.tick")

            def tick():
                tp_tick.emit()
        """
        assert "SL003" not in rules_of(src)


class TestBareAssertSL004:
    def test_flags_assert_in_non_test_code(self):
        src = """
            def merge(order):
                assert order >= 0, "invariant"
        """
        assert "SL004" in rules_of(src, MM_PATH)

    def test_test_files_exempt(self):
        src = """
            def test_merge():
                assert 1 + 1 == 2
        """
        assert "SL004" not in rules_of(src, "tests/test_fixture.py")
        assert "SL004" not in rules_of(src, "src/repro/test_inline.py")


class TestMutableDefaultSL005:
    def test_flags_literal_and_constructor_defaults(self):
        src = """
            def f(xs=[], mapping=dict(), *, seen=set()):
                return xs, mapping, seen
        """
        found = findings_for(src)
        assert [f.rule for f in found] == ["SL005", "SL005", "SL005"]

    def test_none_sentinel_clean(self):
        src = """
            def f(xs=None, n=3, name="x"):
                return xs or []
        """
        assert "SL005" not in rules_of(src)


class TestDeterministicIterationSL006:
    def test_flags_set_iteration_in_fleet(self):
        src = """
            def report(scans):
                names = {s.name for s in scans}
                return [n for n in names]
        """
        assert "SL006" in rules_of(src, FLEET_PATH)

    def test_sorted_iteration_clean(self):
        src = """
            def report(scans):
                names = {s.name for s in scans}
                return [n for n in sorted(names)]
        """
        assert "SL006" not in rules_of(src, FLEET_PATH)

    def test_outside_ordered_subsystems_allowed(self):
        src = """
            def report(scans):
                names = {s.name for s in scans}
                return [n for n in names]
        """
        assert "SL006" not in rules_of(src, MM_PATH)


class TestDeprecatedApiSL007:
    """SL007 flagged calls to ``FleetSample.contiguity_values`` /
    ``unmovable_values``.  The accessors are gone, so calling one is an
    ``AttributeError`` a test catches, and the rule was retired."""

    def test_rule_is_retired(self):
        src = """
            def legacy(sample):
                return sample.contiguity_values("2MB")
        """
        assert findings_for(src) == []
        assert "SL007" not in [code for code, _, _ in rule_catalogue()]

    def test_replacement_api_clean(self):
        src = """
            def modern(sample):
                return sample.series("contiguity", "2MB")
        """
        assert findings_for(src) == []


class TestBoundedRetrySL008:
    def test_flags_unbounded_sleep_retry(self):
        src = """
            import time

            def fetch(conn):
                while True:
                    try:
                        return conn.read()
                    except OSError:
                        time.sleep(0.1)
                        continue
        """
        found = findings_for(src)
        assert [f.rule for f in found] == ["SL008"]
        assert "attempt counter" in found[0].message

    def test_flags_retry_marker_names(self):
        src = """
            def fetch(conn, backoff):
                while True:
                    if conn.poll(backoff):
                        return conn.read()
        """
        assert "SL008" in rules_of(src)

    def test_bounded_by_attempt_counter_clean(self):
        src = """
            def fetch(conn, max_attempts=3):
                attempt = 0
                while True:
                    attempt += 1
                    try:
                        return conn.read()
                    except OSError:
                        if attempt >= max_attempts:
                            raise
                        continue
        """
        assert "SL008" not in rules_of(src)

    def test_plain_event_loop_clean(self):
        src = """
            def pump(queue):
                while True:
                    item = queue.get()
                    if item is None:
                        return
                    item.run()
        """
        assert "SL008" not in rules_of(src)

    def test_bounded_for_loop_clean(self):
        src = """
            def fetch(conn, max_retries=2):
                for attempt in range(max_retries + 1):
                    try:
                        return conn.read()
                    except OSError:
                        continue
        """
        assert "SL008" not in rules_of(src)

    def test_test_files_exempt(self):
        src = """
            import time

            def drive(conn):
                while True:
                    try:
                        return conn.read()
                    except OSError:
                        time.sleep(0.01)
                        continue
        """
        assert "SL008" not in rules_of(src, "tests/test_fixture.py")

    def test_disable_comment(self):
        src = """
            import time

            def watch(conn):
                while True:  # simlint: disable=SL008
                    try:
                        return conn.read()
                    except OSError:
                        time.sleep(0.1)
                        continue
        """
        assert "SL008" not in rules_of(src)


class TestPerFrameObjectSL009:
    def test_flags_handle_construction_in_pfn_loop(self):
        src = """
            def handles(pfns, mt, src, now):
                out = []
                for pfn in pfns:
                    out.append(PageHandle(pfn, 0, mt, src, now, False))
                return out
        """
        found = findings_for(src, MM_PATH)
        assert [f.rule for f in found] == ["SL009"]
        assert "PageHandle" in found[0].message

    def test_flags_enum_construction_in_comprehension(self):
        src = """
            def types(mem, heads):
                return [MigrateType(mem.free_mt[head]) for head in heads]
        """
        assert "SL009" in rules_of(src, MM_PATH)

    def test_packed_array_reads_clean(self):
        src = """
            def orders(mem, pfns):
                out = []
                for pfn in pfns:
                    out.append(mem.free_order_mv[pfn])
                return out
        """
        assert "SL009" not in rules_of(src, MM_PATH)

    def test_non_frame_loop_clean(self):
        src = """
            def build(rows):
                return [PageHandle(*row) for row in rows]
        """
        assert "SL009" not in rules_of(src, MM_PATH)

    def test_outside_mm_clean(self):
        src = """
            def handles(pfns):
                return [PageHandle(pfn) for pfn in pfns]
        """
        assert "SL009" not in rules_of(src, FLEET_PATH)

    def test_disable_comment_honoured(self):
        src = """
            def handles(pfns):
                return [
                    PageHandle(pfn)  # simlint: disable=SL009
                    for pfn in pfns
                ]
        """
        assert "SL009" not in rules_of(src, MM_PATH)


TELEMETRY_PATH = "src/repro/telemetry/fixture.py"
CHECKPOINT_PATH = "src/repro/checkpoint/fixture.py"


class TestAtomicDurableWriteSL010:
    BARE_WRITE = """
        def save(path, data):
            with open(path, "w") as fh:
                fh.write(data)
    """

    def test_flags_bare_write_in_durable_subsystems(self):
        for path in (TELEMETRY_PATH, CHECKPOINT_PATH,
                     "src/repro/experiments/fixture.py"):
            found = findings_for(self.BARE_WRITE, path)
            assert [f.rule for f in found] == ["SL010"], path
            assert "os.replace" in found[0].message

    def test_ignores_non_durable_subsystems(self):
        assert "SL010" not in rules_of(self.BARE_WRITE, MM_PATH)
        assert "SL010" not in rules_of(self.BARE_WRITE, NEUTRAL_PATH)

    def test_ignores_read_mode_and_nonconstant_mode(self):
        src = """
            def load(path, mode):
                with open(path) as fh:
                    a = fh.read()
                with open(path, "rb") as fh:
                    b = fh.read()
                with open(path, mode) as fh:
                    c = fh.read()
                return a, b, c
        """
        assert "SL010" not in rules_of(src, TELEMETRY_PATH)

    def test_atomic_idiom_passes(self):
        src = """
            import os
            import tempfile

            def save(path, data):
                fd, tmp = tempfile.mkstemp(dir=".")
                with os.fdopen(fd, "w") as fh:
                    fh.write(data)
                os.replace(tmp, path)
        """
        assert "SL010" not in rules_of(src, CHECKPOINT_PATH)

    def test_mode_keyword_and_append_flagged(self):
        src = """
            def log(path, line):
                with open(path, mode="a") as fh:
                    fh.write(line)
        """
        assert "SL010" in rules_of(src, TELEMETRY_PATH)

    def test_disable_comment_for_streaming_sinks(self):
        src = """
            def stream(path):
                return open(path, "w")  # simlint: disable=SL010
        """
        assert "SL010" not in rules_of(src, TELEMETRY_PATH)

    def test_test_files_exempt(self):
        assert "SL010" not in rules_of(
            self.BARE_WRITE, "tests/test_fixture.py")


class TestSuppression:
    VIOLATION = """
        def merge(order):
            assert order >= 0  # simlint: disable=SL004
    """

    def test_line_disable_comment(self):
        assert "SL004" not in rules_of(self.VIOLATION, MM_PATH)

    def test_line_disable_is_per_line(self):
        src = """
            def merge(order):
                assert order >= 0  # simlint: disable=SL004
                assert order < 64
        """
        found = findings_for(src, MM_PATH)
        assert [f.rule for f in found] == ["SL004"]
        assert found[0].line == 4

    def test_file_level_disable(self):
        src = """
            # simlint: disable-file=SL004
            def merge(order):
                assert order >= 0
                assert order < 64
        """
        assert "SL004" not in rules_of(src, MM_PATH)

    def test_disable_all_wildcard(self):
        src = """
            def f(xs=[]):  # simlint: disable=ALL
                return xs
        """
        assert rules_of(src) == set()

    def test_unrelated_code_not_suppressed(self):
        src = """
            def f(xs=[]):  # simlint: disable=SL004
                return xs
        """
        assert "SL005" in rules_of(src)


class TestEngine:
    def test_syntax_error_yields_sl000(self):
        found = lint_source("def broken(:\n", "bad.py")
        assert [f.rule for f in found] == ["SL000"]
        assert "syntax error" in found[0].message

    def test_findings_are_structured_and_sorted(self):
        src = """
            def f(xs=[]):
                assert xs
        """
        found = findings_for(src, MM_PATH)
        assert found == sorted(found)
        for f in found:
            d = f.to_dict()
            assert set(d) == {"path", "line", "col", "rule", "message"}
            assert f.format().startswith(f"{f.path}:{f.line}:")

    def test_render_text_and_json(self):
        found = findings_for("def f(xs=[]):\n    return xs\n")
        text = render_text(found)
        assert "SL005" in text and text.endswith("simlint: 1 finding")
        payload = json.loads(render_json(found))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "SL005"
        assert json.loads(render_json([])) == {"findings": [], "count": 0}

    def test_clean_render(self):
        assert render_text([]) == "simlint: clean"

    def test_rule_catalogue_covers_default_rules(self):
        codes = [code for code, _, _ in rule_catalogue()]
        assert codes == sorted(r.code for r in RULES if not r.deep)

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "fleet"
        pkg.mkdir()
        (pkg / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        (pkg / "good.py").write_text("def f(xs=None):\n    return xs\n")
        (pkg / "__pycache__").mkdir()
        (pkg / "__pycache__" / "stale.py").write_text("def f(xs=[]): pass\n")
        found = lint_paths([tmp_path])
        assert [f.rule for f in found] == ["SL005"]
        assert found[0].path.endswith("bad.py")


class TestShippedTree:
    def test_repro_package_is_clean(self):
        import repro
        import os

        assert lint_paths([os.path.dirname(repro.__file__)]) == []


class TestCli:
    def _violating_file(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def f(xs=[]):\n    return xs\n")
        return target

    def test_lint_clean_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        clean = tmp_path / "ok.py"
        clean.write_text("def f(xs=None):\n    return xs\n")
        main(["lint", str(clean)])
        assert "simlint: clean" in capsys.readouterr().out

    def test_lint_findings_exit_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        target = self._violating_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(target)])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "SL005" in out and "1 finding" in out

    def test_lint_json_output(self, tmp_path, capsys):
        from repro.cli import main

        target = self._violating_file(tmp_path)
        with pytest.raises(SystemExit):
            main(["lint", "--json", str(target)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "SL005"

    def test_list_rules(self, capsys):
        from repro.cli import main

        main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        for code in ("SL001", "SL004", "SL008"):
            assert code in out
