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
    assert not clock.started
    with pytest.raises(RuntimeError, match="not started"):
        clock.current_round()


def test_clock_advances_through_rounds():
    """On a virtual clock the loop time *is* the timer that fired, so the
    round read after each sleep is arithmetic, not scheduling."""

    async def scenario():
        clock = RoundClock(delta_s=0.01)  # 30 ms rounds
        clock.start()
        first = clock.current_round()
        await clock.sleep_until_elapsed(clock.start_of(2))
        second = clock.current_round(), clock.elapsed()
        await clock.sleep_until_elapsed(clock.start_of(2) + 0.9 * clock.round_s)
        return first, second, (clock.current_round(), clock.elapsed()), clock

    first, second, third, clock = run_virtual(scenario())
    assert first == 0
    assert second == (2, pytest.approx(clock.start_of(2)))
    # Still inside round 2, late phase — however loaded the host.
    assert third == (2, pytest.approx(clock.start_of(2) + 0.9 * clock.round_s))


def test_sleep_until_past_time_returns_immediately():
    async def scenario():
        clock = RoundClock(delta_s=0.01)
        clock.start()
        await clock.sleep_until_elapsed(clock.start_of(1))
        before = clock.elapsed()
        await clock.sleep_until_elapsed(clock.start_of(0))  # already past
        return clock.elapsed() - before

    # No timer was armed, so the virtual clock did not move at all.
    assert run_virtual(scenario()) == 0.0
