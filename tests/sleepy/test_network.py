"""The one description of asynchrony: window arithmetic (paper §2.1) and its surge factor."""

import math

import pytest

from repro.attacks import surge
from repro.engine.conditions import DEFAULT_SURGE_FACTOR, AsyncPeriod, NetworkConditions


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


def test_surge_factor_is_the_covering_periods_and_one_elsewhere():
    conditions = NetworkConditions(
        periods=(AsyncPeriod(2, 2, surge_factor=4.0), AsyncPeriod(10, 1), AsyncPeriod(15, 0, 9.0))
    )
    factors = {r: conditions.surge_factor(r) for r in range(20)}
    assert {r for r, f in factors.items() if f != 1.0} == set(asynchronous_rounds(conditions, 20))
    assert (factors[3], factors[4], factors[11]) == (4.0, 4.0, DEFAULT_SURGE_FACTOR)
    assert NetworkConditions.synchronous().surge_factor(0) == 1.0


@pytest.mark.parametrize(
    "declare",
    [lambda factor: AsyncPeriod(2, 2, surge_factor=factor), surge],
    ids=["period", "script-op"],
)
@pytest.mark.parametrize(
    "factor",
    [
        0.5,  # would speed links up
        -3.0,  # would turn delays negative
        math.nan,  # would reach the wheel's slot arithmetic as NaN
        math.inf,
    ],
)
def test_a_surge_factor_a_fabric_cannot_apply_is_refused_at_construction(declare, factor):
    """One check for both ways to declare a surge: a period's physical
    factor and a script's ``surge`` op must be finite and at least 1."""
    with pytest.raises(ValueError, match="surge factor must be finite and >= 1"):
        declare(factor)
