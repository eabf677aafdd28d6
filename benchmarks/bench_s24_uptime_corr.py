"""§2.4: contiguity is uncorrelated with server uptime.

Paper: Pearson correlation between uptime and free 2 MiB page count is
0.00286 across the fleet — servers fragment within their first hour, so
uptime tells you nothing.
"""

from repro.analysis import format_table

from common import fleet_sample, save_result


def compute():
    sample = fleet_sample()
    return sample, sample.uptime_correlation()


def test_s24_uptime_correlation():
    sample, corr = compute()
    uptimes = [s.uptime_steps for s in sample.scans]
    text = format_table(
        ["Metric", "Value", "Paper"],
        [
            ("servers sampled", len(sample.scans), "tens of thousands"),
            ("uptime range (steps)", f"{min(uptimes)}-{max(uptimes)}",
             "hours to weeks"),
            ("Pearson(uptime, free 2MB blocks)", f"{corr:+.3f}", "0.00286"),
        ],
        title="Section 2.4: uptime vs contiguity correlation",
    )
    save_result("s24_uptime_corr.txt", text)

    # The paper's non-result: effectively no correlation.  (With a small
    # sample we allow a wider band than the fleet's 0.003.)
    assert abs(corr) < 0.35
