"""Figure 5: distribution of unmovable pages in 2MB/4MB/32MB/1GB regions.

Paper: the median server has 34 % of its 2 MiB blocks unmovable even
though only 7.6 % of its 4 KiB pages are — scattering amplifies unmovable
memory by block granularity, and the effect worsens at larger regions.
"""

from repro.analysis import format_table
from repro.fleet import median

from common import fleet_sample, save_result

CDF_POINTS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0)


def compute():
    sample = fleet_sample()
    rows = []
    for gran in ("2MB", "4MB", "32MB", "1GB"):
        values = sample.series("unmovable", gran)
        cdf = [sum(1 for v in values if v <= p) / len(values)
               for p in CDF_POINTS]
        rows.append([gran] + [f"{c:.2f}" for c in cdf])
    return sample, rows


def test_fig05_unmovable_cdf():
    sample, rows = compute()
    med = {g: median(sample.series("unmovable", g))
           for g in ("2MB", "4MB", "32MB", "1GB")}
    text = format_table(
        ["Granularity"] + [f"<= {p:.0%}" for p in CDF_POINTS],
        rows,
        title=("Figure 5: CDF of servers vs fraction of blocks containing "
               "unmovable pages"),
    )
    text += (
        f"\n\nMedian unmovable 2MB blocks:  {med['2MB']:.0%} (paper: 34%)"
        f"\nMedian unmovable 1GB regions: {med['1GB']:.0%} (paper: ~100%)"
    )
    save_result("fig05_unmovable_cdf.txt", text)

    # Amplification grows with granularity.
    assert med["2MB"] <= med["4MB"] <= med["32MB"] <= med["1GB"]
    # Scattering amplification: block-level far above page-level.
    assert 0.1 < med["2MB"] < 0.7
    assert med["1GB"] > 0.9
