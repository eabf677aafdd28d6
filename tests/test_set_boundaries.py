"""``--set`` at the edges: every numeric parameter of every spec at 0 and
-1 either computes or ends in one ``repro: ...`` line, never a
traceback.

``n_servers=2`` and ``mem_mib=64`` are pinned where a spec has them and
they are not the probed parameter: only to keep the sweep fast (the
edges do not depend on size).  One cache serves the whole sweep, so the
fleet survey behind Figs. 4-6 runs once per distinct config.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import all_specs

#: Probed values: the first non-positive count, and a negative one.
EDGES = (0, -1)
#: Size pins (parameter -> value) applied when not the one probed.
PINS = {"n_servers": 2, "mem_mib": 64}


def _cases():
    return [(spec.name, param, value)
            for spec in all_specs()
            for param, default in sorted(spec.defaults.items())
            if isinstance(default, (int, float))
            and not isinstance(default, bool)
            for value in EDGES]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("edge-cache"))


@pytest.mark.parametrize("name,param,value", _cases())
def test_numeric_edge_computes_or_is_refused(name, param, value, cache_dir,
                                            capsys):
    from repro.experiments import get_spec

    defaults = get_spec(name).defaults
    pins = [arg for key, pinned in PINS.items()
            if key in defaults and key != param
            for arg in ("--set", f"{key}={pinned}")]
    argv = ["experiment", "run", name, "--set", f"{param}={value}", *pins,
            "--cache-dir", cache_dir, "--workers", "1"]
    try:
        main(argv)
    except SystemExit as exc:
        message = str(exc.code)
        assert message.startswith("repro: "), message
        assert "\n" not in message, message
    capsys.readouterr()
