"""scenario-cli: what a user of ``repro scenario run`` waits for.

Set-up points ``$REPRO_EXPERIMENT_CACHE`` at an empty directory and
makes one **cold** pass ``python -m repro scenario run <name> --smoke
--seed N`` over the 11 library scenarios; that pass is this workload's
set-up time.  The timed region makes **warm** passes over the library,
one subprocess per scenario.  The warm path bypasses simulation: only
the ``cli`` import, ``scenarios`` parse/compile/report and
``experiments`` cache lookups run, so lazy imports, the ``repro.run``
refactor and yamlite-vs-JSON show here and nowhere else.  Closed loop,
one client.
"""

from __future__ import annotations

import hashlib
import os
import re
import statistics
import subprocess
import sys

import repro
import repro.scenarios.report as report_module
import repro.scenarios.runner as runner_module
from repro.experiments import ResultCache
from repro.scenarios import (ScenarioConfig, ScenarioMatrix, list_scenarios,
                             run_scenario)

from ..tracer import patched
from .base import RunContext, Workload, all_of

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_CACHED_RE = re.compile(rb"(\d+) cell\(s\), (\d+) cached")
#: Subprocess start-ups timed for ``cli.import_ms_p50``.
_IMPORT_SAMPLES = 5


class ScenarioCli(Workload):
    name = "scenario-cli"
    unit = "CLI invocations"
    item = "one warm `python -m repro scenario run <name> --smoke`"
    #: The cold pass is ~5 s of subprocesses: once is all a run affords.
    setup_repeats = 1
    one_cpu = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.env: dict[str, str] = {}
        self.cold_stdout: dict[str, bytes] = {}
        self.cold_pass_s = 0.0
        self.warm_identical = True
        self.warm_all_cached = True
        self.detail = ""

    # -- subprocesses ----------------------------------------------------

    def _python(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], env=self.env,
                              capture_output=True, timeout=120, check=False)

    def _invoke(self, tracer, name: str, seed: int, req=None):
        with tracer.span("cli.subprocess", req=req):
            return self._python("-m", "repro", "scenario", "run", name,
                                "--smoke", "--seed", str(seed))

    def setup(self, ctx: RunContext) -> None:
        names = [s.name for s in list_scenarios()]
        self.names = names[:3] if ctx.quick else names
        self.env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED="0",
                        REPRO_EXPERIMENT_CACHE=ctx.fresh_dir("cache"))
        self.cold_stdout = {}
        _none, item = ctx.meter.timed("cold-pass", len(self.names),
                                      self._cold_pass, ctx)
        self.cold_pass_s = item.ref_s

    def _cold_pass(self, ctx: RunContext) -> None:
        for name in self.names:
            done = self._invoke(ctx.tracer, name, ctx.seed)
            ctx.attempted += 1
            if done.returncode != 0:
                ctx.failed += 1
                self.detail = f"cold {name}: {done.stderr[-300:]!r}"
            self.cold_stdout[name] = done.stdout

    def round(self, ctx: RunContext, index: int) -> dict:
        outputs = {}
        for name in self.names:
            done = ctx.meter.item(name, 1, self._invoke, ctx.tracer, name,
                                  ctx.seed, {"round": index, "scenario": name})
            ctx.attempted += 1
            if done.returncode != 0:
                ctx.failed += 1
                self.detail = f"warm {name}: {done.stderr[-300:]!r}"
            if done.stdout != self.cold_stdout[name]:
                self.warm_identical = False
                self.detail = f"warm {name}: stdout differs from the cold run"
            cached = _CACHED_RE.search(done.stderr)
            if cached is None or cached.group(1) != cached.group(2):
                self.warm_all_cached = False
                self.detail = f"warm {name}: {done.stderr[-200:]!r}"
            outputs[name] = hashlib.sha256(done.stdout).hexdigest()
        return outputs

    def finish(self, ctx: RunContext, round0: dict) -> None:
        ctx.check("exit-codes", ctx.failed == 0, self.detail)
        ctx.check("warm-stdout-identical", self.warm_identical,
                  "every warm run's stdout must equal the cold run's, byte "
                  "for byte " + self.detail)
        ctx.check("warm-all-cached", self.warm_all_cached,
                  "every warm run must report all its cells cached "
                  + self.detail)
        ctx.check("reports-non-empty",
                  all(len(out) > 100 for out in self.cold_stdout.values()),
                  "every scenario prints a report")

    # -- the traced run: the warm path in this process --------------------

    def _in_process_taps(self, ctx: RunContext):
        """Wrappers for the in-process passes; the timed subprocesses
        cannot be tapped from here."""
        tr = ctx.tracer
        return all_of(
            patched(runner_module, "get_scenario",
                    lambda fn: tr.spanned("scenarios.parse", fn)),
            patched(ScenarioMatrix, "compile",
                    lambda fn: tr.spanned("scenarios.compile", fn)),
            patched(report_module, "render_markdown",
                    lambda fn: tr.spanned("scenarios.report", fn)),
            patched(ResultCache, "get",
                    lambda fn: tr.tap("experiments.cache_get", fn)),
            patched(ResultCache, "put",
                    lambda fn: tr.tap("experiments.cache_put", fn)))

    def _in_process_pass(self, ctx: RunContext, cache: ResultCache,
                         span: str) -> tuple[int, int]:
        """Every scenario through ``run_scenario`` + report in this
        process; returns (cells, cached cells) from the manifests."""
        total = cached = 0
        for name in self.names:
            with ctx.tracer.span(span, req={"scenario": name}):
                result = run_scenario(
                    ScenarioConfig(name, smoke=True, seed=ctx.seed),
                    cache=cache)
                result.report()
            total += result.manifest["aggregates"]["cells_total"]
            cached += result.manifest["aggregates"]["cells_cached"]
        return total, cached

    def _startup_ms(self, ctx: RunContext, *argv: str) -> float:
        samples = []
        for _ in range(_IMPORT_SAMPLES):
            _done, item = ctx.meter.timed("startup", 1, self._python, *argv)
            samples.append(item.ref_s * 1e3)
        return statistics.median(samples)

    def layer_metrics(self, ctx: RunContext) -> dict[str, float]:
        tr = ctx.tracer
        cache = ResultCache(ctx.fresh_dir("cache-in-process"))
        with self._in_process_taps(ctx):
            self._in_process_pass(ctx, cache, "scenarios.run_cold")
            total, cached = self._in_process_pass(ctx, cache,
                                                  "scenarios.run_warm")

        def p50_ms(name: str) -> float:
            return statistics.median(tr.span_durations_s(name)) * 1e3

        bare_ms = self._startup_ms(ctx, "-c", "pass")
        import_ms = self._startup_ms(ctx, "-c", "import repro.cli") - bare_ms
        warm_ms = statistics.median(i.ref_s for i in ctx.meter.items) * 1e3
        # Spans are host time as measured; scale the in-process run to
        # the reference speed the subprocess times are in.
        run_warm_ms = p50_ms("scenarios.run_warm") / ctx.meter.median_speed()
        return {
            "cli.cold_pass_s": self.cold_pass_s,
            "cli.bare_python_ms_p50": bare_ms,
            "cli.import_ms_p50": import_ms,
            "cli.dispatch_ms_p50": warm_ms - bare_ms - import_ms - run_warm_ms,
            "scenarios.parse_ms_p50": p50_ms("scenarios.parse"),
            "scenarios.compile_ms_p50": p50_ms("scenarios.compile"),
            "scenarios.report_ms_p50": p50_ms("scenarios.report"),
            "scenarios.run_warm_ms_p50": p50_ms("scenarios.run_warm"),
            "experiments.cache_get_ms_p50":
                tr.total("experiments.cache_get").percentile_us(50) / 1e3,
            "experiments.cache_put_ms_p50":
                tr.total("experiments.cache_put").percentile_us(50) / 1e3,
            "experiments.hit_ratio": cached / total if total else 0.0,
        }
