"""The round clock: Δ = 3δ (paper §2.1, "Time and Network").

Given the synchrony bound δ, rounds of duration Δ = 3δ let every message
sent at the beginning of a round arrive before the round ends (send +
propagate + tally), which is how the round-by-round abstraction is
simulated on a real network.  Nodes share synchronized clocks (a model
assumption the paper keeps even under asynchrony), realised here by all
nodes reading the same event-loop clock.
"""

from __future__ import annotations

import asyncio

#: The paper's rounds-per-δ factor (Δ = 3δ, after [17] §2.1).
ROUND_FACTOR = 3


class RoundClock:
    """Maps event-loop time to protocol rounds for one deployment."""

    def __init__(self, delta_s: float) -> None:
        if delta_s <= 0:
            raise ValueError("δ must be positive")
        self.delta_s = delta_s
        self.round_s = ROUND_FACTOR * delta_s
        self._origin: float | None = None

    def start(self) -> None:
        """Anchor round 0 at the current loop time."""
        self._origin = asyncio.get_running_loop().time()

    def start_at(self, origin_loop_time: float) -> None:
        """Anchor round 0 at an explicit loop time.

        Multi-process workers anchor at a *shared* origin (a wall-clock
        instant translated into each worker's loop time) so every
        process agrees on round boundaries — the synchronized-clocks
        model assumption, realised across processes.
        """
        self._origin = origin_loop_time

    @property
    def started(self) -> bool:
        return self._origin is not None

    def elapsed(self) -> float:
        """Seconds since round 0 began."""
        if self._origin is None:
            raise RuntimeError("clock not started")
        return asyncio.get_running_loop().time() - self._origin

    def current_round(self) -> int:
        """The round the wall clock is currently in."""
        return int(self.elapsed() / self.round_s)

    def start_of(self, round_number: int) -> float:
        """Elapsed-seconds timestamp of the beginning of a round."""
        return round_number * self.round_s

    async def sleep_until_elapsed(self, elapsed_target: float) -> None:
        """Sleep until ``elapsed_target`` seconds after round 0."""
        remaining = elapsed_target - self.elapsed()
        if remaining > 0:
            await asyncio.sleep(remaining)
