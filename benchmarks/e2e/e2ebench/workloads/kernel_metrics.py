"""Per-layer metrics of the two kernels, shared by the workloads that
run them under taps (server-aging, kernel-replay, fleet-survey's serial
slice).

``mm.*`` is the time inside the outermost public ``LinuxKernel`` calls;
``core.*`` the same for ``ContiguitasKernel``, which includes the mm
code beneath it — pcp, buddy, free lists, compaction and reclaim are
not separable from outside, nor are ``kalloc`` and ``vm``.
"""

from __future__ import annotations

from ..tracer import KERNEL_METHODS, Tracer

#: vmstat counters reported per layer; exact for a given seed.
COUNTERS = ("alloc_success", "alloc_fallback", "pageblock_steal",
            "compact_pages_migrated", "pages_reclaimed", "alloc_fail")


def counter_metrics(vmstats: list[dict]) -> dict[str, float]:
    """Summed ``kernel.stat.snapshot()`` counters of round 0's Linux
    kernels, plus fallbacks per thousand successful allocations — the
    allocator's wasted-work ratio."""
    out = {f"mm.{name}": float(sum(v.get(name, 0) for v in vmstats))
           for name in COUNTERS}
    success = out["mm.alloc_success"]
    out["mm.fallback_per_kalloc"] = (
        1000.0 * out["mm.alloc_fallback"] / success if success else 0.0)
    return out


def _layer_call_s(tracer: Tracer, layer: str) -> float:
    return sum(tracer.total(f"{layer}.{name}").sum_ns
               for name in KERNEL_METHODS + ("boot",)) / 1e9


def kernel_layer_metrics(tracer: Tracer, rounds: int,
                         steps_round0: int | None = None) -> dict[str, float]:
    """``workloads.*``, ``mm.*`` and ``core.*`` timings from the taps.
    Seconds are per round (a round is fixed work; how many rounds fit
    in the measuring time is not)."""
    out: dict[str, float] = {}
    for layer in ("mm", "core"):
        alloc = tracer.total(f"{layer}.alloc_pages")
        out[f"{layer}.call_s"] = _layer_call_s(tracer, layer) / rounds
        out[f"{layer}.alloc_pages_us_p50"] = alloc.percentile_us(50)
        out[f"{layer}.alloc_pages_us_p99"] = alloc.percentile_us(99)
        out[f"{layer}.advance_s"] = (
            tracer.total(f"{layer}.advance").sum_ns / 1e9 / rounds)
        out[f"{layer}.boot_ms_p50"] = (
            tracer.total(f"{layer}.boot").percentile_us(50) / 1e3)
    out["mm.free_pages_us_p50"] = tracer.total("mm.free_pages").percentile_us(50)
    bulk = tracer.total("mm.alloc_pages_bulk")
    out["mm.alloc_bulk_us_per_page"] = (
        bulk.sum_ns / 1e3 / bulk.units if bulk.units else 0.0)
    out["core.over_mm_x"] = (out["core.call_s"] / out["mm.call_s"]
                             if out["mm.call_s"] else 0.0)

    # Driver: the item spans minus everything beneath them.
    self_s = tracer.self_times()
    runs = sum(tracer.span_durations_s("workloads.run"))
    out["workloads.driver_self_s"] = self_s.get("workloads.run", 0.0) / rounds
    out["workloads.driver_share_pct"] = (
        100.0 * self_s.get("workloads.run", 0.0) / runs if runs else 0.0)

    bulk_pages = sum(tracer.total(f"{layer}.alloc_pages_bulk").units
                     for layer in ("mm", "core"))
    scalar = sum(tracer.total(f"{layer}.alloc_pages").count
                 for layer in ("mm", "core"))
    out["workloads.bulk_page_share_pct"] = (
        100.0 * bulk_pages / (bulk_pages + scalar)
        if bulk_pages + scalar else 0.0)
    if steps_round0:
        out["workloads.kernel_calls_per_step"] = (
            round0_kernel_calls(tracer) / steps_round0)
    return out


def round0_kernel_calls(tracer: Tracer) -> int:
    """Public kernel calls issued inside round 0's item spans (exact)."""
    round0 = {s[0] for s in tracer.spans
              if s[1] == "workloads.run" and isinstance(s[5], dict)
              and s[5].get("round") == 0}
    return sum(agg.count for (parent, name), agg in tracer.all_aggs().items()
               if parent in round0 and not name.endswith(".boot"))
