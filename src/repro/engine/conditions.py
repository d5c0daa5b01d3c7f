"""Substrate-independent network conditions.

The paper's model has one notion of degraded networking — a bounded
asynchronous period ``[ra+1, ra+π]`` (§2.1) — and
:class:`NetworkConditions` is its one description.  The two substrates
realise it differently: in a synchronous round the round simulator
delivers to every awake process all messages sent in rounds ``≤ r`` it
has not received yet, and in a round :meth:`~NetworkConditions.
is_asynchronous` covers the adversary chooses an arbitrary subset per
receiver (messages are delayed, never lost); the asyncio deployment
models the *physical* phenomenon, a latency surge past δ
(:class:`~repro.net.transport.SurgeWindow`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.transport import SurgeWindow

#: Latency multiplier that comfortably pushes one-way delays past δ
#: (base latency is δ/8 + up to δ/8 jitter in the deployment transport).
DEFAULT_SURGE_FACTOR = 25.0


@dataclass(frozen=True)
class AsyncPeriod:
    """One asynchronous period: rounds ``[ra + 1, ra + pi]``.

    ``surge_factor`` is how the period manifests physically — the
    latency multiplier a deployment applies while the period lasts.
    """

    ra: int
    pi: int
    surge_factor: float = DEFAULT_SURGE_FACTOR

    def __post_init__(self) -> None:
        if self.ra < 0:
            raise ValueError("ra must be non-negative")
        if self.pi < 0:
            raise ValueError("pi must be non-negative")
        if self.surge_factor < 1.0:
            raise ValueError("surge_factor must be >= 1 (asynchrony slows the network)")

    def covers(self, round_number: int) -> bool:
        return self.ra + 1 <= round_number <= self.ra + self.pi


@dataclass(frozen=True)
class NetworkConditions:
    """Zero or more disjoint asynchronous periods over one run."""

    periods: tuple[AsyncPeriod, ...] = ()

    def __post_init__(self) -> None:
        # Several periods are an extension (the paper assumes one; the
        # ablations repeat outages with healing in between); overlapping
        # ones describe nothing and fail identically on every backend.
        spans = sorted((p.ra + 1, p.ra + p.pi) for p in self.periods if p.pi > 0)
        for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
            if start_b <= end_a:
                raise ValueError("asynchronous periods overlap")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def synchronous(cls) -> NetworkConditions:
        """Fully synchronous conditions (the paper's common case)."""
        return cls()

    @classmethod
    def window(
        cls, ra: int, pi: int, surge_factor: float = DEFAULT_SURGE_FACTOR
    ) -> NetworkConditions:
        """A single asynchronous period ``[ra + 1, ra + pi]``."""
        return cls(periods=(AsyncPeriod(ra, pi, surge_factor),))

    # ------------------------------------------------------------------
    # Realisation
    # ------------------------------------------------------------------
    def surge_windows(self, round_s: float) -> tuple[SurgeWindow, ...]:
        """The physical realisation for the deployment transport."""
        return tuple(
            SurgeWindow(
                start_s=(p.ra + 1) * round_s,
                end_s=(p.ra + p.pi + 1) * round_s,
                factor=p.surge_factor,
            )
            for p in self.periods
            if p.pi > 0
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_asynchronous(self, round_number: int) -> bool:
        return any(p.covers(round_number) for p in self.periods)
