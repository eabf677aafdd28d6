"""The percentile rule, the spread figure and digest canonicalisation."""

import enum

import pytest

from e2ebench.stats import (canonical_json, percentile, quartile_spread,
                            sim_digest, summarize, tail_percentile)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(39) is None          # 25 % of 39 < 10
    assert tail_percentile(40) == 75.0
    assert tail_percentile(44) == 75.0          # the issue's 44 warm runs
    assert tail_percentile(99) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_summarize_reports_count_and_admissible_tail():
    small = summarize(range(10))
    assert small == {"n": 10, "p50": 4.5}
    big = summarize(range(100))
    assert big["n"] == 100 and big["tail_q"] == 90.0
    assert big["tail"] == pytest.approx(89.1)


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_matches_the_drivers_definition():
    import statistics

    values = [10.0, 10.5, 9.5, 11.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.3]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / statistics.median(values)


class Source(enum.IntEnum):
    USER = 0
    SLAB = 1


def test_digest_ignores_dict_order_and_container_flavour():
    a = {"scan": {"x": 1, "y": (1, 2)}, "sources": {Source.SLAB: 3}}
    b = {"sources": {"SLAB": 3}, "scan": {"y": [1, 2], "x": 1}}
    assert canonical_json(a) == canonical_json(b)
    assert sim_digest(a) == sim_digest(b)


def test_digest_pins_every_float_bit_and_int_float_identity():
    assert sim_digest({"v": 0.1 + 0.2}) != sim_digest({"v": 0.3})
    assert sim_digest({"v": 1}) != sim_digest({"v": 1.0})
    assert sim_digest({"v": True}) != sim_digest({"v": 1})


def test_digest_rejects_what_it_cannot_spell():
    with pytest.raises(TypeError):
        sim_digest({"v": object()})
