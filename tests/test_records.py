"""The records a warm ``repro scenario run`` builds are named tuples and
plain classes, not dataclasses (docs/INTERNALS.md, "Import tiers"):
they keep what the dataclasses promised — constructor order and
defaults, immutability, equality by value, hashing where every field
hashes (``tests/test_faults.py`` pickles the fault plans the fleet
ships to workers)."""

from __future__ import annotations

import pytest

from repro.experiments import ResultCache, get_spec, run_experiment
from repro.experiments.claims import Band, Ordered
from repro.experiments.spec import ExperimentSpec
from repro.faults.plan import NAMED_PLANS, FaultPlan, FaultSpec
from repro.scenarios import ScenarioConfig, get_scenario, run_scenario


def _measure(rows):
    return len(rows)


def _producer(ctx):
    return []


#: Each frozen record's fields, in constructor order.
FIELDS = {
    FaultSpec: ("site", "rate", "max_fires", "skip"),
    FaultPlan: ("name", "specs"),
    Band: ("id", "paper", "measure", "lo", "hi"),
    Ordered: ("id", "paper", "measure", "op"),
    ExperimentSpec: ("name", "description", "producer", "defaults", "seed",
                     "version", "figure", "postprocess", "claims",
                     "checkpoints"),
    ScenarioConfig: ("scenario", "smoke", "seed", "workers", "cells",
                     "select", "force", "checkpoint_every"),
}


def _records() -> list:
    scenario = get_scenario("uce-degrade")
    matrix = scenario.matrix(smoke=True)
    spec = FaultSpec("sim.crash", rate=0.5, skip=1)
    return [FaultPlan("p", (spec,)), spec,
            Band("b", "p", _measure, lo=1), Ordered("o", "p", _measure),
            ExperimentSpec("x", "d", _producer, claims=[
                Band("b", "p", _measure, hi=2)]),
            ScenarioConfig("steady-web", cells=["a"]),
            scenario, matrix, matrix.cells()[0]]


@pytest.mark.parametrize("cls", sorted(FIELDS, key=lambda c: c.__name__))
def test_fields_in_constructor_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("index", range(9))
def test_frozen_and_equal_by_value(index):
    record, twin = _records()[index], _records()[index]
    assert record == twin and record is not twin
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record._replace() == record


def test_records_hash_when_their_fields_do():
    assert hash(Band("b", "p", _measure, 0, 1)) == \
        hash(Band("b", "p", _measure, 0, 1))
    assert len({plan for plan in NAMED_PLANS.values()}) == len(NAMED_PLANS)
    with pytest.raises(TypeError):
        hash(ScenarioConfig("steady-web"))      # its select is a dict


def test_conversions_and_fresh_defaults():
    spec = ExperimentSpec("x", "d", _producer,
                          claims=[Band("b", "p", _measure, hi=2)])
    assert type(spec.claims) is tuple
    config = ScenarioConfig("steady-web", cells=["a"])
    assert config.cells == ("a",)
    assert config.select == {} and \
        config.select is not ScenarioConfig("steady-web").select


def test_run_results_are_equal_by_value(tmp_path):
    cache = ResultCache(str(tmp_path))
    first = run_experiment("s53-hwcost", cache=cache)
    second = run_experiment("s53-hwcost", cache=cache)
    assert second.cached and not first.cached
    assert first != second                       # ``cached`` differs
    assert second == run_experiment("s53-hwcost", cache=cache)
    assert second.spec is get_spec("s53-hwcost")
    config = ScenarioConfig("steady-web", smoke=True,
                            select={"design": "none"})
    run_scenario(config, cache=cache)
    assert run_scenario(config, cache=cache) == \
        run_scenario(config, cache=cache)
