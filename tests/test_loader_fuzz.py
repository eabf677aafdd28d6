"""Hostile input to the three text loaders: the trace log, a manifest and
a scenario matrix.  Whatever a file holds, loading it succeeds or raises
the loader's typed ``ConfigurationError`` — never a traceback from the
JSON parser, a dict lookup or a constructor call."""

from __future__ import annotations

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scenarios import load_matrix
from repro.scenarios.loader import library_dir
from repro.telemetry import load_manifest
from repro.workloads import load_trace

#: 100 k nested arrays: one recursion per level in the JSON decoder.
DEEP = "[" * 100_000 + "]" * 100_000

_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
            | st.floats(allow_nan=False) | st.text(max_size=8))
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)
_EVENT_KEYS = ("op", "obj", "order", "source", "migratetype", "pinned",
               "reclaimable", "dt", "bogus")
_EVENTS = st.dictionaries(st.sampled_from(_EVENT_KEYS), _SCALARS,
                          max_size=5)
#: A line: an event-shaped object, any JSON value, or any text.
_LINES = (_EVENTS.map(json.dumps) | _JSON.map(json.dumps)
          | st.text(max_size=20).filter(lambda t: "\n" not in t)
          | st.just(DEEP))


def _typed(load, *args):
    """*load*(*args*): a result, or None for ConfigurationError."""
    try:
        return load(*args)
    except ConfigurationError:
        return None


class TestTraceLog:
    @settings(max_examples=40, deadline=None)
    @given(header=_LINES | st.just('{"version": 2}'),
           lines=st.lists(_LINES, max_size=5))
    def test_any_lines_load_or_raise_typed(self, header, lines):
        _typed(load_trace, io.StringIO("\n".join([header, *lines]) + "\n"))

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("not json\n", 1),
        ('["version", 2]\n', 1),
        ('{"version": 2}\n{"op": "alloc"\n', 2),
        ('{"version": 2}\n\n7\n', 3),
        ('{"version": 2}\n{"op": "free", "color": 1}\n', 2),
        ('{"version": 2}\n{"obj": 1}\n', 2),
        ('{"version": 2}\n' + DEEP + "\n", 2),
    ], ids=["empty", "not-json", "array-header", "cut-event",
            "scalar-event", "unknown-key", "no-op", "deep"])
    def test_the_error_names_the_line(self, text, line):
        with pytest.raises(ConfigurationError, match=f"trace line {line}:"):
            load_trace(io.StringIO(text))


class TestManifest:
    @settings(max_examples=40, deadline=None)
    @given(text=_JSON.map(json.dumps) | st.text(max_size=30)
           | st.just(DEEP))
    def test_any_file_loads_or_raises_typed(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("m") / "manifest.json"
        path.write_text(text)
        manifest = _typed(load_manifest, str(path))
        assert manifest is None or type(manifest) is dict

    def test_deep_nesting_names_the_path(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(DEEP)
        with pytest.raises(ConfigurationError, match=str(path)):
            load_manifest(str(path))


def _library_doc() -> dict:
    with open(os.path.join(library_dir(), "steady-web.json")) as fh:
        return json.load(fh)


class TestMatrix:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_edit_of_a_library_matrix_loads_or_raises_typed(
            self, data, tmp_path_factory):
        doc = _library_doc()
        key = data.draw(st.sampled_from(sorted(doc) + ["extra"]))
        if data.draw(st.booleans()):
            doc[key] = data.draw(_JSON)
        else:
            doc.pop(key, None)
        path = tmp_path_factory.mktemp("s") / "matrix.json"
        path.write_text(json.dumps(doc))
        _typed(load_matrix, str(path))

    @settings(max_examples=40, deadline=None)
    @given(text=_JSON.map(json.dumps) | st.text(max_size=30))
    def test_any_file_loads_or_raises_typed(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("s") / "matrix.json"
        path.write_text(text)
        _typed(load_matrix, str(path))

    def test_deep_nesting_names_the_path(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(DEEP)
        with pytest.raises(ConfigurationError, match=str(path)):
            load_matrix(str(path))
