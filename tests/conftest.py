"""Shared fixtures."""

import builtins
import math

import pytest

_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 and later add floats: an iterable of floats alone,
    from the default start, is added with Neumaier's compensation; anything
    else is added as before."""
    items = list(iterable)
    if not (type(start) is int and start == 0 and items
            and all(type(x) is float for x in items)):
        return _SUM(items, start)
    total, compensation = items[0], 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


@pytest.fixture
def compensated_sum(monkeypatch):
    """Make ``sum`` add floats as Python 3.12 does, on any Python version."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
