"""Figure 12: potential memory contiguity after perfect compaction.

Paper: even a hypothetically perfect software compactor cannot recover
blocks containing unmovable pages — Linux fails to assemble a single
1 GiB region, while Contiguitas's whole movable region is recoverable by
design.
"""

from repro.analysis import format_table, movable_potential, percent
from repro.units import PAGEBLOCK_FRAMES

from common import (
    SCALED_1G_FRAMES,
    STEADY_SERVICES,
    save_result,
    steady_state_run,
)

#: "1G*" is the scale-equivalent of the paper's 1 GiB granularity:
#: memory/64, matching 1 GiB on the paper's 64 GiB hosts.
GRANULARITIES = (("2M", PAGEBLOCK_FRAMES), ("32M", 16 * PAGEBLOCK_FRAMES),
                 ("1G*", SCALED_1G_FRAMES))


def compute():
    out = {}
    for service in STEADY_SERVICES:
        for kernel_name in ("linux", "contiguitas"):
            run = steady_state_run(service, kernel_name)
            for label, frames in GRANULARITIES:
                out[(service, kernel_name, label)] = movable_potential(
                    run.mem, frames)
    return out


def test_fig12_potential():
    out = compute()
    rows = []
    for service in STEADY_SERVICES:
        for kernel_name in ("linux", "contiguitas"):
            rows.append(
                (service, kernel_name)
                + tuple(percent(out[(service, kernel_name, g)], 0)
                        for g, _ in GRANULARITIES))
    text = format_table(
        ["Workload", "Kernel", "2M", "32M", "1G*"],
        rows,
        title=("Figure 12: potential contiguity after perfect compaction "
               "(% of total memory; 1G* = memory/64, the scale-equivalent "
               "of 1GiB on the paper's 64GiB hosts)"),
    )
    save_result("fig12_potential.txt", text)

    for service in STEADY_SERVICES:
        for g, _ in GRANULARITIES:
            linux = out[(service, "linux", g)]
            cont = out[(service, "contiguitas", g)]
            assert cont >= linux, (service, g)
        # Contiguitas preserves most of memory as potential contiguity
        # even at the coarsest granularity that fits the machine.
        assert out[(service, "contiguitas", "32M")] > 0.5, service
        # Linux's potential collapses as granularity grows...
        assert out[(service, "linux", "32M")] <= \
            out[(service, "linux", "2M")], service
        # ...while Contiguitas keeps most memory recoverable even at the
        # paper's 1 GiB scale-equivalent (Linux finds almost nothing).
        assert out[(service, "contiguitas", "1G*")] > 0.4, service
        assert out[(service, "linux", "1G*")] < \
            out[(service, "contiguitas", "1G*")], service
