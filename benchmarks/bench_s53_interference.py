"""§5.3 performance: NGINX/memcached under unmovable-page migration.

Paper: at the Regular rate (100 migrations/s) neither design affects the
applications; at Very High (1000/s) the noncacheable design costs 0.2 %
(NGINX) / 0.3 % (memcached) while the cacheable design stays at ~0.
Separately, memcached gains ~7 % when contiguity enables 2 MiB pages.

Driven by the ``s53-interference`` :class:`repro.experiments` spec
(shared with ``repro experiment run s53-interference``).
"""

from repro.experiments import run_experiment

from common import save_result


def compute():
    return run_experiment("s53-interference")


def test_s53_interference():
    result = compute()
    save_result("s53_interference.txt", result.report())

    overheads = {(row["app"], row["rate"], row["design"]): row["overhead"]
                 for row in result.rows if row["method"] == "analytic"}
    nc, c = "noncacheable", "cacheable"
    # Regular rate: no measurable impact for either design.
    assert overheads[("nginx", "regular", nc)] < 0.001
    assert overheads[("memcached", "regular", nc)] < 0.001
    # Very High: small but nonzero for noncacheable...
    assert 0.0005 < overheads[("nginx", "very-high", nc)] < 0.005
    assert 0.0005 < overheads[("memcached", "very-high", nc)] < 0.006
    # ...and effectively zero for cacheable.
    assert overheads[("memcached", "very-high", c)] < 1e-4
    # memcached's huge-page win lands near the paper's 7 %.
    assert 1.03 < result.rows[0]["memcached_2m_gain"] < 1.12
