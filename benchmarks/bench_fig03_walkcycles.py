"""Figure 3: percentage of cycles lost to page walks (data/instructions).

Paper: production counters show up to ~20 % of cycles in page walks; 2 MiB
pages halve Web's instruction walks but help its data walks much less than
1 GiB pages do (14 % → 8 %).

Driven by the ``fig03-walk-cycles`` :class:`repro.experiments` spec
(shared with ``repro experiment run fig03-walk-cycles``).
"""

from repro.experiments import run_experiment

from common import save_result


def compute():
    return run_experiment("fig03-walk-cycles")


def test_fig03_walkcycles():
    result = compute()
    save_result("fig03_walkcycles.txt", result.report())

    results = {(row["service"], row["pages"]): row for row in result.rows}
    web_4k = results[("Web", "4KB")]
    web_2m = results[("Web", "2MB")]
    web_1g = results[("Web", "1GB")]
    # Paper: total can approach 20 % of cycles.
    assert 10.0 < web_4k["total_pct"] < 35.0
    # Paper: 2 MiB halves Web's instruction walk cycles.
    assert web_2m["instr_pct"] < 0.7 * web_4k["instr_pct"]
    # Paper: 1 GiB's data gain exceeds 2 MiB's for Web.
    assert (web_4k["data_pct"] - web_1g["data_pct"]) > \
        (web_4k["data_pct"] - web_2m["data_pct"])
    # Ordering holds for every service.
    for service in {service for service, _ in results}:
        assert results[(service, "2MB")]["total_pct"] < \
            results[(service, "4KB")]["total_pct"]
