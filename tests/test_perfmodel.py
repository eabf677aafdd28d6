"""Performance models: Fig. 2 trends, Fig. 3 walk cycles, Fig. 10 RPS."""

import pytest

from repro.errors import ConfigurationError
from repro.perfmodel import (
    GENERATIONS,
    MIX_1G,
    MIX_2M,
    MIX_4K,
    PageSizeMix,
    evaluate_configuration,
    generation_trends,
    mix_for_coverage,
    perf_ratio,
    walk_cycles,
)
from repro.perfmodel.walkcycles import WalkCycleResult
from repro.sim.tlb import SHIFT_1G, SHIFT_2M, SHIFT_4K
from repro.workloads.services import CACHE_B, WEB

N = 60_000  # instructions per model run (kept small for test speed)


class TestHwGen:
    def test_capacity_grows_8x(self):
        rows = generation_trends()
        assert rows[0]["relative_capacity"] == 1.0
        assert rows[-1]["relative_capacity"] == pytest.approx(8.0)

    def test_4k_coverage_collapses(self):
        rows = generation_trends()
        assert rows[-1]["coverage_4k"] < rows[0]["coverage_4k"]
        assert rows[-1]["coverage_4k"] < 0.001

    def test_1g_covers_even_gen5(self):
        """Fig. 2: only 1 GiB pages provide coverage larger than Gen-5
        memory capacity."""
        rows = generation_trends()
        assert rows[-1]["coverage_1g"] == 1.0
        assert rows[-1]["coverage_2m"] < 0.01

    def test_tlb_entries_stay_flat(self):
        entries = [g.tlb_entries for g in GENERATIONS]
        assert max(entries) / min(entries) < 1.5


class TestPageSizeMix:
    def test_shift_selection(self):
        mix = PageSizeMix(frac_1g=0.25, frac_2m=0.25)
        fp = 1000
        assert mix.shift_for(0, fp) == SHIFT_1G
        assert mix.shift_for(300, fp) == SHIFT_2M
        assert mix.shift_for(900, fp) == SHIFT_4K

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PageSizeMix(frac_1g=0.8, frac_2m=0.8)

    def test_mix_from_coverage(self):
        mix = mix_for_coverage({"1g": 0.3, "2m": 0.5, "4k": 0.2})
        assert mix.frac_1g == 0.3
        assert mix.frac_2m == 0.5


class TestWalkCycles:
    def test_huge_pages_reduce_walk_share(self):
        r4k = walk_cycles(CACHE_B, MIX_4K, n_instructions=N)
        r2m = walk_cycles(CACHE_B, MIX_2M, n_instructions=N)
        r1g = walk_cycles(CACHE_B, MIX_1G, n_instructions=N)
        assert r4k.data_pct > r2m.data_pct > r1g.data_pct

    def test_web_1g_gain_exceeds_2m_gain(self):
        """The paper's §2.3 observation: for Web data, 2 MiB offers less
        improvement than 1 GiB pages."""
        r4k = walk_cycles(WEB, MIX_4K, n_instructions=N)
        r2m = walk_cycles(WEB, MIX_2M, n_instructions=N)
        r1g = walk_cycles(WEB, MIX_1G, n_instructions=N)
        gain_2m = r4k.data_pct - r2m.data_pct
        gain_1g = r4k.data_pct - r1g.data_pct
        assert gain_1g > gain_2m

    def test_2m_helps_instructions(self):
        r4k = walk_cycles(WEB, MIX_4K, n_instructions=N)
        r2m = walk_cycles(WEB, MIX_2M, n_instructions=N)
        assert r2m.instr_pct < r4k.instr_pct

    def test_magnitudes_match_production_band(self):
        """§2.3: page-walk cycles can approach 20 % of total cycles."""
        r4k = walk_cycles(WEB, MIX_4K, n_instructions=N)
        assert 5.0 < r4k.total_pct < 35.0

    def test_deterministic(self):
        a = walk_cycles(CACHE_B, MIX_4K, n_instructions=N, seed=5)
        b = walk_cycles(CACHE_B, MIX_4K, n_instructions=N, seed=5)
        assert a.data_pct == b.data_pct

    def test_partial_mix_between_extremes(self):
        r4k = walk_cycles(CACHE_B, MIX_4K, n_instructions=N)
        rhalf = walk_cycles(CACHE_B, PageSizeMix(frac_2m=0.5),
                            n_instructions=N)
        r2m = walk_cycles(CACHE_B, MIX_2M, n_instructions=N)
        assert r2m.data_pct <= rhalf.data_pct <= r4k.data_pct


class TestEndToEnd:
    def test_perf_ratio_direction(self):
        base = WalkCycleResult(data_pct=15.0, instr_pct=5.0)
        better = WalkCycleResult(data_pct=8.0, instr_pct=2.0)
        assert perf_ratio(base, better) > 1.0
        assert perf_ratio(better, base) < 1.0
        assert perf_ratio(base, base) == 1.0

    def test_full_coverage_beats_baseline(self):
        result = evaluate_configuration(
            CACHE_B, {"1g": 0.0, "2m": 1.0, "4k": 0.0}, "thp",
            n_instructions=N)
        assert result.relative_perf > 1.0
        assert result.perf_from_1g == 0.0

    def test_web_1g_contribution_reported(self):
        result = evaluate_configuration(
            WEB, {"1g": 0.3, "2m": 0.6, "4k": 0.1}, "contiguitas",
            n_instructions=N)
        assert result.relative_perf > 1.0
        assert result.perf_from_1g > 0.0
        assert result.perf_from_1g < result.relative_perf - 0.0

    def test_gains_in_paper_band(self):
        """Fig. 10: end-to-end wins land in the 2-18 % band."""
        result = evaluate_configuration(
            CACHE_B, {"1g": 0.0, "2m": 1.0, "4k": 0.0}, "contiguitas",
            n_instructions=N)
        assert 1.01 < result.relative_perf < 1.30
