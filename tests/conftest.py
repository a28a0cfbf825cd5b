"""Fixtures shared by the suites."""

import pytest

import fsrw.markers as markers


class EmptyStore(pytest.MonkeyPatch):
    """A monkeypatch holding an empty marker store (`fsrw.markers`) in
    place of the process's own, which undoing it puts back."""

    def empty(self):
        """Empty the store: no entry, no arcs counted, no shape."""
        for name, value in (("_shape_cache", {}), ("_shape_cache_arcs", 0),
                            ("_shapes", {})):
            self.setattr(markers, name, value)


@pytest.fixture
def store():
    """An empty marker store for the test, so that every kit machine and
    factor it asks for is built; `store.empty()` empties it again, and
    the process's own store is put back after the test."""
    with EmptyStore.context() as patch:
        patch.empty()
        yield patch
