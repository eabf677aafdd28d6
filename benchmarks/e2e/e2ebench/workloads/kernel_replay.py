"""kernel-replay: the kernels alone, on the driver's own call stream.

Set-up runs the churn driver once per service (web, cache-a, cache-b,
ci; 300 steps at 256 MiB on Linux) against a recording kernel subclass
and keeps every public kernel call it and the kalloc glue make —
``alloc_pages_bulk``, ``alloc_thp`` and ``alloc_gigapage`` included,
which ``workloads.tracelog.TraceRecorder`` forwards unrecorded.  The
timed region replays each stream against a fresh ``LinuxKernel`` and a
fresh ``ContiguitasKernel``: the same ``mm``/``core`` code as
server-aging with the driver out of the way.  A driver optimisation
must move server-aging and leave this flat; an allocator optimisation
must move both.  Closed loop, one client.

The stream is Linux's.  Contiguitas answers some calls differently (a
THP that falls back, a cache page it reclaimed earlier), so calls on a
handle the replay never got, or that the kernel already freed, are
skipped and counted; on Linux the replay must reproduce the capture's
vmstat exactly with nothing skipped.
"""

from __future__ import annotations

from repro.errors import ContiguityError, OutOfMemoryError
from repro.mm import KernelConfig, LinuxKernel
from repro.workloads import Workload as ChurnDriver
from repro.workloads import get_service

from ..tracer import KERNEL_METHODS
from .base import RunContext, Workload
from .kernel_metrics import counter_metrics, kernel_layer_metrics
from .server_aging import KERNELS, MEM_BYTES, SERVICES, STEPS

#: Calls that return one new handle / a list of them / take a handle.
_RETURNS_HANDLE = frozenset({"alloc_pages", "alloc_thp", "alloc_gigapage"})
_TAKES_HANDLE = frozenset({"free_pages", "pin_pages", "unpin_pages"})
_ALLOC_ERRORS = (OutOfMemoryError, ContiguityError)


class CallStream:
    """Every outermost public kernel call of one driver run."""

    def __init__(self) -> None:
        #: (method name, args, kwargs, out) — handles appear as indices;
        #: *out* is the new handle's index (-1: the call raised or
        #: returned None), a list of indices for bulk calls, else None.
        self.calls: list[tuple] = []
        self.n_handles = 0
        self.alloc_failures = 0
        self.vmstat: dict[str, int] = {}


def recording_kernel_class(base: type, stream: CallStream) -> type:
    """A subclass of *base* that appends each outermost public call to
    *stream* (nested public calls belong to the outer one)."""
    index_of: dict[int, int] = {}
    keep_alive = []     # no id() reuse while the capture runs
    depth = [0]

    def new_handle(handle) -> int:
        keep_alive.append(handle)
        index_of[id(handle)] = stream.n_handles
        stream.n_handles += 1
        return stream.n_handles - 1

    def wrap(name: str):
        fn = getattr(base, name)

        def recorded(self, *args, **kwargs):
            if depth[0]:
                return fn(self, *args, **kwargs)
            depth[0] = 1
            try:
                if name in _TAKES_HANDLE:
                    fn(self, *args, **kwargs)
                    stream.calls.append(
                        (name, (index_of[id(args[0])],), kwargs, None))
                    return None
                try:
                    result = fn(self, *args, **kwargs)
                except _ALLOC_ERRORS:
                    stream.alloc_failures += 1
                    stream.calls.append((name, args, kwargs, -1))
                    raise
                if name in _RETURNS_HANDLE:
                    out = -1 if result is None else new_handle(result)
                elif name == "alloc_pages_bulk":
                    out = [new_handle(h) for h in result]
                else:
                    out = None
                stream.calls.append((name, args, kwargs, out))
                return result
            finally:
                depth[0] = 0

        return recorded

    return type(f"Recording{base.__name__}", (base,),
                {name: wrap(name) for name in KERNEL_METHODS})


def capture(service: str, seed: int, steps: int) -> CallStream:
    """Run the driver for *service* on a recording Linux kernel."""
    stream = CallStream()
    kernel = recording_kernel_class(LinuxKernel, stream)(
        KernelConfig(mem_bytes=MEM_BYTES))
    driver = ChurnDriver(kernel, get_service(service), seed=seed)
    driver.start()
    for _ in range(steps):
        driver.step()
    stream.vmstat = kernel.stat.snapshot()
    return stream


def replay(stream: CallStream, kernel) -> dict:
    """Issue *stream* against *kernel*; returns the simulated outcome."""
    handles = [None] * stream.n_handles
    methods = {name: getattr(kernel, name) for name in KERNEL_METHODS}
    failures = skipped = 0
    for name, args, kwargs, out in stream.calls:
        fn = methods[name]
        if name in _TAKES_HANDLE:
            handle = handles[args[0]]
            if handle is None or handle.freed:
                skipped += 1
            else:
                fn(handle, **kwargs)
        elif name in _RETURNS_HANDLE:
            try:
                handle = fn(*args, **kwargs)
            except _ALLOC_ERRORS:
                failures += 1
                continue
            if out >= 0:
                handles[out] = handle
            elif handle is not None:
                # The capture got nothing here, so nothing later frees it.
                kernel.free_pages(handle)
                skipped += 1
        elif name == "alloc_pages_bulk":
            got = fn(*args, **kwargs)
            for index, handle in zip(out, got):
                handles[index] = handle
            for handle in got[len(out):]:
                kernel.free_pages(handle)
                skipped += 1
        else:
            fn(*args, **kwargs)
    return {"vmstat": kernel.stat.snapshot(),
            "free_frames": kernel.free_frames(),
            "alloc_failures": failures, "skipped": skipped}


class KernelReplay(Workload):
    name = "kernel-replay"
    unit = "kernel calls"
    item = "one 300-step call stream replayed on one fresh kernel"
    setup_repeats = 2

    def __init__(self) -> None:
        self.streams: dict[str, CallStream] = {}
        self.steps = STEPS
        self.outcomes: dict[str, list[dict]] = {}

    def setup(self, ctx: RunContext) -> None:
        self.steps = 30 if ctx.quick else STEPS
        self.streams = {
            service: capture(service, ctx.item_seed(0, i), self.steps)
            for i, service in enumerate(SERVICES)}
        # Warm both kernels' code paths on a short prefix of one stream.
        short = CallStream()
        short.calls = self.streams[SERVICES[0]].calls[:2000]
        short.n_handles = self.streams[SERVICES[0]].n_handles
        for _name, _layer, cls, cfg in KERNELS:
            replay(short, cls(cfg(mem_bytes=MEM_BYTES)))

    def _replay_item(self, stream, cls, cfg, tracer, req) -> dict:
        with tracer.span("workloads.run", req=req):
            return replay(stream, cls(cfg(mem_bytes=MEM_BYTES)))

    def round(self, ctx: RunContext, index: int) -> dict:
        outputs = {}
        for service, stream in self.streams.items():
            for kname, layer, base, cfg in KERNELS:
                out = ctx.meter.item(
                    f"{service}/{kname}", len(stream.calls),
                    self._replay_item, stream, ctx.kernel_class(base, layer),
                    cfg, ctx.tracer,
                    {"round": index, "stream": service, "kernel": kname})
                ctx.attempted += len(stream.calls)
                ctx.failed += max(
                    0, out["alloc_failures"] - stream.alloc_failures)
                key = f"{service}/{kname}"
                self.outcomes.setdefault(key, []).append(out)
                outputs[key] = out
        return outputs

    def finish(self, ctx: RunContext, round0: dict) -> None:
        for service, stream in self.streams.items():
            out = round0[f"{service}/linux"]
            ctx.check(
                f"replay-equals-capture[{service}]",
                out["vmstat"] == stream.vmstat and out["skipped"] == 0
                and out["alloc_failures"] == stream.alloc_failures,
                "replaying Linux's stream on Linux must reproduce the "
                f"capture's vmstat with nothing skipped (skipped "
                f"{out['skipped']}, failures {out['alloc_failures']} vs "
                f"{stream.alloc_failures})")
        ctx.check("rounds-identical",
                  all(out == outs[0] for outs in self.outcomes.values()
                      for out in outs),
                  "every round replays the same streams and must end in "
                  "the same vmstat")
        ctx.exact.update(counter_metrics(
            [out["vmstat"] for key, out in round0.items()
             if key.endswith("/linux")]))
        calls = sum(len(s.calls) for s in self.streams.values())
        ctx.exact["workloads.kernel_calls_per_step"] = (
            calls / (len(self.streams) * self.steps))
        ctx.exact["core.replay_skipped_calls"] = float(sum(
            out["skipped"] for key, out in round0.items()
            if key.endswith("/contiguitas")))

    def layer_metrics(self, ctx: RunContext) -> dict[str, float]:
        return kernel_layer_metrics(ctx.tracer, ctx.rounds)
