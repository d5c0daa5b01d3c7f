"""Round clock arithmetic and sleeping."""

import pytest

from repro.runtime.clock import ROUND_FACTOR, RoundClock

from tests.net.conftest import run_virtual


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
    with pytest.raises(RuntimeError, match="not started"):
        clock.elapsed()


def test_clock_advances_through_rounds():
    """On a virtual clock the loop time *is* the timer that fired, so the
    time read after each sleep is arithmetic, not scheduling."""

    async def scenario():
        clock = RoundClock(delta_s=0.01)  # 30 ms rounds
        clock.start()
        first = clock.elapsed()
        await clock.sleep_until_elapsed(clock.start_of(2))
        second = clock.elapsed()
        await clock.sleep_until_elapsed(clock.start_of(2) + 0.9 * clock.round_s)
        return first, second, clock.elapsed(), clock

    first, second, third, clock = run_virtual(scenario())
    assert first == 0.0
    assert second == pytest.approx(clock.start_of(2))
    # Still inside round 2, late phase — however loaded the host.
    assert third == pytest.approx(clock.start_of(2) + 0.9 * clock.round_s)
    assert clock.start_of(2) <= third < clock.start_of(3)


def test_sleep_until_past_time_returns_immediately():
    async def scenario():
        clock = RoundClock(delta_s=0.01)
        clock.start()
        await clock.sleep_until_elapsed(clock.start_of(1))
        before = clock.elapsed()
        lateness = await clock.sleep_until_elapsed(clock.start_of(0))  # already past
        return clock.elapsed() - before, lateness, clock

    moved, lateness, clock = run_virtual(scenario())
    # No timer was armed, so the virtual clock did not move at all.
    assert moved == 0.0
    # The whole overshoot is the lateness: round 1's start, measured from 0.
    assert lateness == clock.start_of(1)
