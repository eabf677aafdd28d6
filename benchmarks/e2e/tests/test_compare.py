"""Verdicts of ``run.py --compare``."""

from e2ebench.compare import exact_mismatches, verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def scaled(values, factor):
    return [v * factor for v in values]


def test_same_within_the_bound():
    word, worse_by, spread = verdict(STEADY, scaled(STEADY, 1.04),
                                     "lower", 0.10)
    assert word == "same" and 0.03 < worse_by < 0.05 and spread < 0.02


def test_worse_and_better_follow_the_direction():
    assert verdict(STEADY, scaled(STEADY, 1.2), "lower", 0.10)[0] == "worse"
    assert verdict(STEADY, scaled(STEADY, 1.2), "higher", 0.10)[0] == "better"
    assert verdict(STEADY, scaled(STEADY, 0.8), "lower", 0.10)[0] == "better"
    assert verdict(STEADY, scaled(STEADY, 0.8), "higher", 0.10)[0] == "worse"


def test_wide_spread_is_unresolved_unless_the_sets_do_not_overlap():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, scaled(noisy, 1.05), "lower", 0.10)[0] == "unresolved"
    # Every run of B better than every run of A: the spread cannot hide it.
    assert verdict(noisy, scaled(noisy, 0.3), "lower", 0.10)[0] == "better"
    assert verdict(noisy, scaled(noisy, 3.0), "lower", 0.10)[0] == "worse"


def test_single_runs_compare_by_median_alone():
    word, _, spread = verdict([100.0], [104.0], "lower", 0.10)
    assert word == "same" and spread is None


def run(seed, digest, **exact):
    return {"workload": "server-aging", "seed": seed, "quick": False,
            "sim_digest": digest, "exact": exact}


def test_exact_mismatches_pair_runs_by_workload_and_seed():
    a = [run(11, "aa", steals=52.0), run(12, "bb", steals=40.0)]
    same = [run(12, "bb", steals=40.0), run(11, "aa", steals=52.0)]
    assert exact_mismatches(a, same) == []
    moved = [run(11, "aa", steals=53.0), run(12, "cc", steals=40.0),
             run(13, "zz", steals=1.0)]          # seed 13 has no partner
    lines = exact_mismatches(a, moved)
    assert len(lines) == 2
    assert "steals" in lines[0] and "sim_digest" in lines[1]
