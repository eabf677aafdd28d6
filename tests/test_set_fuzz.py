"""``--set`` with random values: whatever follows ``KEY=`` — huge,
negative, non-finite, non-numeric, any JSON — for every spec's
parameters and every library scenario's axis pins, a run either starts
or ends in one ``repro: ...`` line, never a traceback.

A value the spec accepts is not run (a huge count would run for hours):
the producer's context is replaced by one that stops the run where the
producer would start, so what is checked is the boundary every value
crosses first — parsing, type and range checks, axis selection.
``test_set_boundaries.py`` runs the 0 and -1 edges for real.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.experiments import all_specs
from repro.scenarios import list_scenarios

#: Typed after ``KEY=``: integers of any size and sign, floats and their
#: non-finite spellings, JSON of every kind, and arbitrary text.
VALUES = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-Infinity",
                     "1e400", "-1e400", "1e-400", "", " ", "null", "true",
                     "false", "[]", "{}", '"x"', "[1, 2]", '{"a": 1}',
                     "0x10", "1_000", "=", "--", "é"]),
    st.text(max_size=8))

SPECS = sorted(all_specs(), key=lambda spec: spec.name)
SCENARIOS = list_scenarios()


class _Started(BaseException):
    """Raised where a producer would start: the value was accepted."""


@pytest.fixture(scope="module")
def stopped():
    import repro.experiments.context as context

    def stop(*args, **kwargs):
        raise _Started
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(context, "ExperimentContext", stop)
        yield


def _ends_cleanly(argv: list[str]) -> None:
    try:
        main(argv)
    except _Started:
        pass
    except SystemExit as exc:
        message = str(exc.code)
        assert message.startswith("repro: ") and "\n" not in message, (
            argv, message)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_value_of_any_parameter(data, stopped, tmp_path_factory,
                                    capsys):
    spec = data.draw(st.sampled_from(SPECS))
    key = data.draw(st.sampled_from(sorted(spec.defaults)
                                    + ["no-such-parameter"]))
    value = data.draw(VALUES)
    cache = str(tmp_path_factory.getbasetemp() / "set-fuzz")
    _ends_cleanly(["experiment", "run", spec.name, "--set",
                   f"{key}={value}", "--cache-dir", cache,
                   "--workers", "1"])
    capsys.readouterr()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_pin_of_any_axis(data, stopped, tmp_path_factory, capsys):
    scenario = data.draw(st.sampled_from(SCENARIOS))
    axes = scenario.smoke.axes
    axis = data.draw(st.sampled_from(
        sorted(a["name"] for a in axes) + ["no-such-axis"]))
    ids = [str(v["id"]) for a in axes if a["name"] == axis
           for v in a["values"]]
    value = data.draw(st.sampled_from(ids) | VALUES if ids else VALUES)
    cache = str(tmp_path_factory.getbasetemp() / "set-fuzz")
    _ends_cleanly(["scenario", "run", scenario.name, "--smoke", "--set",
                   f"{axis}={value}", "--cache-dir", cache])
    capsys.readouterr()
