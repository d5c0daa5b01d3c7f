"""Round clock arithmetic and sleeping."""

import asyncio

import pytest

from repro.runtime.clock import ROUND_FACTOR, RoundClock


def test_round_duration_is_three_delta():
    clock = RoundClock(delta_s=0.05)
    assert ROUND_FACTOR == 3
    assert clock.round_s == pytest.approx(0.15)
    assert clock.start_of(4) == pytest.approx(0.6)


def test_delta_must_be_positive():
    with pytest.raises(ValueError):
        RoundClock(0)


def test_unstarted_clock_rejects_queries():
    clock = RoundClock(0.01)
    assert not clock.started
    with pytest.raises(RuntimeError, match="not started"):
        clock.current_round()


def test_clock_advances_through_rounds():
    async def scenario():
        clock = RoundClock(delta_s=0.01)  # 30 ms rounds
        clock.start()
        first = clock.current_round()
        await clock.sleep_until_elapsed(clock.start_of(2))
        second = clock.current_round()
        await clock.sleep_until_elapsed(clock.start_of(2) + 0.9 * clock.round_s)
        return first, second, clock.current_round()

    first, second, third = asyncio.run(scenario())
    assert first == 0
    assert second == 2
    assert third == 2  # still inside round 2, late phase


def test_sleep_until_past_time_returns_immediately():
    async def scenario():
        clock = RoundClock(delta_s=0.01)
        clock.start()
        await clock.sleep_until_elapsed(clock.start_of(1))
        start = asyncio.get_running_loop().time()
        await clock.sleep_until_elapsed(clock.start_of(0))  # already past
        return asyncio.get_running_loop().time() - start

    assert asyncio.run(scenario()) < 0.01
