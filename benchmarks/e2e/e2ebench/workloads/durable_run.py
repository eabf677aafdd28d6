"""durable-run: what checkpointing costs a long run.

Each round runs ``run_workload(WorkloadConfig("web", "linux", 256 MiB,
steps=300))`` with ``checkpoint_every=50`` into an empty directory and
then resumes it from its final checkpoint (``resume=True``): the cycle
a long-run user pays.  It uses ``mm`` state as *data* — pickled,
hashed, fsynced, swept by the sanitizer on restore — rather than as an
allocator, so a layout change that speeds server-aging but bloats
snapshots shows here.  Closed loop, one client; the only workload that
waits for the disk.

Checkpointing every 50 steps makes a 0.2 s run take about 1 s today;
the traced run reports that ratio as ``checkpoint.overhead_x``.
"""

from __future__ import annotations

import statistics

import repro.checkpoint as checkpoint_module
from repro.checkpoint import CheckpointStore
from repro.checkpoint.format import metrics as checkpoint_counters
from repro.units import MiB
from repro.workloads import WorkloadConfig, run_workload

from ..tracer import patched
from .base import RunContext, Workload, all_of

SERVICE = "web"
KERNEL = "linux"
MEM_BYTES = MiB(256)
STEPS = 300
CHECKPOINT_EVERY = 50
#: Plain/checkpointed pairs timed for ``checkpoint.overhead_x``.
_OVERHEAD_PAIRS = 3


def _write_failures() -> int:
    return checkpoint_counters.counters.snapshot().get(
        "checkpoint.write_failures", 0)


class DurableRun(Workload):
    name = "durable-run"
    unit = "simulated steps"
    item = "one 300-step run checkpointed every 50 steps, then resumed"

    def __init__(self) -> None:
        self.resume_equal = True
        self.final_step_ok = True
        self.bytes = 0

    def _config(self, ctx: RunContext, seed: int) -> WorkloadConfig:
        return WorkloadConfig(
            SERVICE, KERNEL, MiB(64) if ctx.quick else MEM_BYTES,
            steps=100 if ctx.quick else STEPS, seed=seed)

    def setup(self, ctx: RunContext) -> None:
        # A small checkpointed run and its resume: imports the
        # checkpoint stack and the sanitizer before anything is timed.
        config = WorkloadConfig(SERVICE, KERNEL, MiB(64), steps=20,
                                seed=ctx.item_seed(0))
        directory = ctx.fresh_dir("warm")
        run_workload(config, checkpoint_every=10, checkpoint_dir=directory)
        run_workload(config, checkpoint_every=10, checkpoint_dir=directory,
                     resume=True)

    def _cycle(self, ctx: RunContext, config: WorkloadConfig,
               directory: str, req) -> dict:
        """Checkpointed run, then resume from its last checkpoint."""
        tr = ctx.tracer
        with tr.span("workloads.run_checkpointed", req=req):
            ran = run_workload(config, checkpoint_every=CHECKPOINT_EVERY,
                               checkpoint_dir=directory).snapshot()
        current = CheckpointStore(directory, "workload").inspect()[
            "generations"][0]
        self.bytes = current.get("size", 0)
        if current.get("step") != config.steps:
            self.final_step_ok = False
        with tr.span("workloads.run_resumed", req=req):
            resumed = run_workload(config, checkpoint_every=CHECKPOINT_EVERY,
                                   checkpoint_dir=directory,
                                   resume=True).snapshot()
        if resumed != ran:
            self.resume_equal = False
        return ran

    def round(self, ctx: RunContext, index: int) -> dict:
        config = self._config(ctx, ctx.item_seed(index))
        failures = _write_failures()
        out = ctx.meter.item(
            "cycle", config.steps, self._cycle, ctx, config,
            ctx.fresh_dir("ckpt"), {"round": index, "seed": config.seed})
        ctx.attempted += 2
        ctx.failed += _write_failures() - failures
        return out

    def taps(self, ctx: RunContext):
        tr = ctx.tracer
        return all_of(
            patched(CheckpointStore, "save",
                    lambda fn: tr.spanned("checkpoint.save", fn)),
            patched(CheckpointStore, "load_latest",
                    lambda fn: tr.spanned("checkpoint.load", fn)),
            # run_workload looks restore_kernel up on the package at
            # call time.
            patched(checkpoint_module, "restore_kernel",
                    lambda fn: tr.spanned("checkpoint.restore_kernel", fn)))

    def finish(self, ctx: RunContext, round0: dict) -> None:
        plain = run_workload(self._config(ctx, ctx.item_seed(0))).snapshot()
        ctx.check("checkpointing-is-transparent", plain == round0,
                  "a run without checkpoints must produce round 0's result")
        ctx.check("resume-equals-uninterrupted", self.resume_equal,
                  "every resumed run must return the result of the run "
                  "that wrote its checkpoint")
        ctx.check("final-checkpoint-written", self.final_step_ok,
                  "the newest checkpoint must be the run's last step")
        ctx.exact["vmstat.alloc_success"] = float(
            round0["vmstat"].get("alloc_success", 0))

    def layer_metrics(self, ctx: RunContext) -> dict[str, float]:
        tr = ctx.tracer

        def p50_ms(name: str) -> float:
            return statistics.median(tr.span_durations_s(name)) * 1e3

        ratios = []
        for i in range(_OVERHEAD_PAIRS):
            config = self._config(ctx, ctx.item_seed(0, i))
            _out, plain = ctx.meter.timed("plain", config.steps,
                                          run_workload, config)
            _out, durable = ctx.meter.timed(
                "checkpointed", config.steps, run_workload, config,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=ctx.fresh_dir("ckpt"))
            ratios.append(durable.ref_s / plain.ref_s)
        return {
            "checkpoint.save_ms_p50": p50_ms("checkpoint.save"),
            "checkpoint.load_ms_p50": p50_ms("checkpoint.load"),
            "checkpoint.restore_kernel_ms_p50":
                p50_ms("checkpoint.restore_kernel"),
            "checkpoint.resume_ms_p50": p50_ms("workloads.run_resumed"),
            "checkpoint.bytes": float(self.bytes),
            "checkpoint.overhead_x": statistics.median(ratios),
        }

