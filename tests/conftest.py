"""Shared fixtures for the package's tests."""

import pytest

from tripow import bounds


def _clear_threshold_caches():
    bounds._crossover_bracket.cache_clear()
    bounds._tail_start.cache_clear()


@pytest.fixture(autouse=True)
def threshold_caches():
    """Clears crossover's bracket and the tail start's e^w before each test.

    Both are certified once per (form, precision) in a process, so a test
    that counts or blurs the work behind them must start cold; a test that
    needs them cold again mid-way calls the returned function.
    """
    _clear_threshold_caches()
    return _clear_threshold_caches
