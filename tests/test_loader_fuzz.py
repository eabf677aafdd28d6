"""Hostile input to the two text loaders: a manifest and a scenario
matrix.  Whatever a file holds, loading it succeeds or raises
the loader's typed ``ConfigurationError`` — never a traceback from the
JSON parser, a dict lookup or a constructor call."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scenarios import load_matrix
from repro.scenarios.loader import library_dir
from repro.telemetry import load_manifest

#: 100 k nested arrays: one recursion per level in the JSON decoder.
DEEP = "[" * 100_000 + "]" * 100_000

_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
            | st.floats(allow_nan=False) | st.text(max_size=8))
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)


def _typed(load, *args):
    """*load*(*args*): a result, or None for ConfigurationError."""
    try:
        return load(*args)
    except ConfigurationError:
        return None


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
