"""Shared fixtures, and the ini warning filters made to hold under -W error."""

import sys
from functools import lru_cache

import pytest

from quadchow import schubert


def pytest_collection_modifyitems(config, items):
    """Put each `filterwarnings` entry of the ini settings on every test as a
    mark: pytest ranks command-line -W filters above the ini ones, and marks
    above both, so an entry there holds in runs with -W error too."""
    marks = [pytest.mark.filterwarnings(f) for f in config.getini("filterwarnings")]
    for item in items:
        for mark in marks:
            item.add_marker(mark)


@pytest.fixture
def cold_engine(monkeypatch):
    """An uncached engine for one test, restored after it: every quadchow
    module's `build_geometry` is swapped for a fresh cache, so a model is
    built anew on first use, with every memo empty.  Yields that fresh
    `build_geometry`."""
    cached, fresh = schubert.build_geometry, lru_cache(maxsize=None)(schubert.FlagModel)
    for name, mod in list(sys.modules.items()):
        if name == "quadchow" or name.startswith("quadchow."):
            for attr, value in list(vars(mod).items()):
                if value is cached:
                    monkeypatch.setattr(mod, attr, fresh)
    yield fresh
