"""The one description of asynchrony: window arithmetic (paper §2.1)."""

import pytest

from repro.engine.conditions import AsyncPeriod, NetworkConditions


def asynchronous_rounds(conditions, horizon):
    return tuple(r for r in range(horizon) if conditions.is_asynchronous(r))


def test_synchronous_network():
    assert asynchronous_rounds(NetworkConditions.synchronous(), 100) == ()


def test_windowed_asynchrony_covers_exactly_the_paper_interval():
    # Period [ra+1, ra+pi] per §2.1.
    conditions = NetworkConditions.window(ra=5, pi=3)
    assert not conditions.is_asynchronous(5)
    assert conditions.is_asynchronous(6)
    assert conditions.is_asynchronous(8)
    assert not conditions.is_asynchronous(9)
    assert asynchronous_rounds(conditions, 20) == (6, 7, 8)


def test_zero_length_window_is_synchrony():
    assert asynchronous_rounds(NetworkConditions.window(ra=5, pi=0), 20) == ()


def test_window_validation():
    with pytest.raises(ValueError):
        NetworkConditions.window(ra=-1, pi=1)
    with pytest.raises(ValueError):
        NetworkConditions.window(ra=0, pi=-1)


def test_multi_window():
    conditions = NetworkConditions(periods=(AsyncPeriod(2, 2), AsyncPeriod(10, 1)))
    assert asynchronous_rounds(conditions, 20) == (3, 4, 11)


def test_multi_window_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        NetworkConditions(periods=(AsyncPeriod(2, 3), AsyncPeriod(4, 2)))
    # Adjacent-but-disjoint windows are fine.
    NetworkConditions(periods=(AsyncPeriod(2, 2), AsyncPeriod(4, 2)))
