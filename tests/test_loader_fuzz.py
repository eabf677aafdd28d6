"""Hostile input to the text loaders: a manifest, a scenario matrix and
a result-cache entry.  Whatever a file holds, loading it succeeds or
raises the loader's typed ``ConfigurationError`` (a cache entry: is a
miss) — never a traceback from the JSON parser, a dict lookup or a
constructor call."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments import ResultCache
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


class TestResultCacheEntry:
    """``ResultCache.load`` serves an entry only when it is one: what
    else sits at a key's path is a miss, recomputed and overwritten."""

    KEY = "ab" + "0" * 62

    def _cache(self, tmp_path, data: bytes) -> ResultCache:
        cache = ResultCache(str(tmp_path))
        path = cache.path_for(self.KEY)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(data)
        return cache

    @pytest.mark.parametrize("data", [
        b"[1,2]",
        b"\xff\xfe{",
        b'{"schema":1,"rows":{"a":1}}',
        b'{"schema":1,"key":"' + b"cd" + b"0" * 62 + b'","rows":[]}',
        DEEP.encode(),
    ], ids=["not-a-mapping", "not-utf8", "rows-not-a-list",
            "another-key", "deep-nesting"])
    def test_a_non_entry_is_a_miss(self, tmp_path, data):
        cache = self._cache(tmp_path, data)
        assert cache.load(self.KEY) is None
        assert cache.get(self.KEY) is None

    def test_an_entry_put_under_its_key_is_a_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(self.KEY, [{"a": 1}], spec_name="s", version=1,
                  config={}, seed=0)
        assert cache.get(self.KEY) == [{"a": 1}]

    @settings(max_examples=40, deadline=None)
    @given(text=_JSON.map(json.dumps) | st.text(max_size=30))
    def test_any_file_is_an_entry_or_a_miss(self, text, tmp_path_factory):
        cache = self._cache(tmp_path_factory.mktemp("c"), text.encode())
        entry = cache.load(self.KEY)
        assert entry is None or type(entry["rows"]) is list
