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
import math

#: The paper's rounds-per-δ factor (Δ = 3δ, after [17] §2.1).
ROUND_FACTOR = 3
#: Where in its round a node runs its receive phase, as a fraction of Δ.
RECEIVE_FRACTION = 0.9


class RoundClock:
    """Maps event-loop time to protocol rounds for one deployment."""

    #: How close (as a fraction of Δ) below a round's start an instant may
    #: fall and still count as in that round: float residue, not time.
    edge_tolerance = 1e-6

    def __init__(self, delta_s: float) -> None:
        if delta_s <= 0:
            raise ValueError("δ must be positive")
        self.delta_s = delta_s
        self.round_s = ROUND_FACTOR * delta_s
        self._origin: float | None = None

    def start(self) -> None:
        """Start round 0 at the current loop time."""
        self._origin = asyncio.get_running_loop().time()

    def start_at(self, origin_loop_time: float) -> None:
        """Start round 0 at an explicit loop time.

        Multi-process workers start at a *shared* origin (a wall-clock
        instant translated into each worker's loop time) so every
        process agrees on round boundaries — the synchronized-clocks
        model assumption, realised across processes.
        """
        self._origin = origin_loop_time

    @property
    def origin(self) -> float:
        """The loop time round 0 began at."""
        if self._origin is None:
            raise RuntimeError("clock not started")
        return self._origin

    def now(self) -> float:
        """The loop time now."""
        return asyncio.get_running_loop().time()

    def elapsed(self) -> float:
        """Seconds since round 0 began."""
        origin = self.origin
        return self.now() - origin

    def round_at(self, t: float) -> int:
        """The round holding loop instant ``t``.

        A round holds the instants from its start up to, not including,
        the next one's: an instant exactly on an edge is in the round
        that begins there.  "Exactly" allows :attr:`edge_tolerance` of a
        round, so a phase woken on its edge, whose loop time carries the
        residue of a float sum, is in its own round.
        """
        return math.floor((t - self.origin) / self.round_s + self.edge_tolerance)

    def instant(self, round_number: int) -> float:
        """The loop time a round begins at."""
        return self.origin + round_number * self.round_s

    def start_of(self, round_number: int) -> float:
        """Elapsed-seconds timestamp of the beginning of a round."""
        return round_number * self.round_s

    async def sleep_until_elapsed(self, elapsed_target: float) -> float:
        """Sleep until ``elapsed_target`` seconds after round 0; return how
        many seconds past it this clock woke (all of it if already past)."""
        remaining = elapsed_target - self.elapsed()
        if remaining > 0:
            await asyncio.sleep(remaining)
        return self.elapsed() - elapsed_target
