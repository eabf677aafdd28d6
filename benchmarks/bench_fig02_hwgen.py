"""Figure 2: memory capacity vs TLB coverage across hardware generations.

Paper: memory grows ~8x across five generations while TLB entry counts
stay flat, so 4 KiB (and even 2 MiB) coverage collapses; only 1 GiB pages
cover Gen-5 memory.
"""

from repro.analysis import format_table, percent
from repro.perfmodel import generation_trends

from common import save_result


def render() -> str:
    rows = [
        (r["generation"],
         f'{r["relative_capacity"]:.1f}x',
         percent(r["coverage_4k"], 3),
         percent(r["coverage_2m"], 2),
         percent(r["coverage_1g"], 0))
        for r in generation_trends()
    ]
    return format_table(
        ["Generation", "Rel. memory", "TLB cov 4K", "TLB cov 2M",
         "TLB cov 1G"],
        rows,
        title="Figure 2: memory capacity and TLB coverage by generation",
    )


def test_fig02_hwgen():
    text = render()
    save_result("fig02_hwgen.txt", text)
    rows = generation_trends()
    assert rows[-1]["relative_capacity"] >= 7.5
    assert rows[-1]["coverage_1g"] == 1.0
