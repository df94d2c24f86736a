"""Fixtures shared by every test module."""

import pytest

from hamparts import conditions


@pytest.fixture(autouse=True)
def _no_kept_cycles():
    """Each test starts, and leaves the next one, with no cycles kept by the
    lemma check, which keeps them in module state."""
    conditions._recent_cycles.clear()
    yield
    conditions._recent_cycles.clear()
