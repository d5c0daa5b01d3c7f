"""Substrate-independent network conditions.

The paper's model has one notion of degraded networking — a bounded
asynchronous period ``[ra+1, ra+π]`` (§2.1) — and
:class:`NetworkConditions` is its one description.  The two substrates
realise it differently: in a synchronous round the round simulator
delivers to every awake process all messages sent in rounds ``≤ r`` it
has not received yet, and in a round :meth:`~NetworkConditions.
is_asynchronous` covers the adversary chooses an arbitrary subset per
receiver (messages are delayed, never lost); the asyncio deployment
models the *physical* phenomenon, a latency surge past δ: a shard's
flood multiplies every link draw by :meth:`~NetworkConditions.
surge_factor` of the round the frame is sent in
(:class:`~repro.net.gossip.GossipNetwork`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Latency multiplier that comfortably pushes one-way delays past δ
#: (base latency is δ/8 + up to δ/8 jitter in the deployment transport).
DEFAULT_SURGE_FACTOR = 25.0


def check_surge_factor(factor: float) -> None:
    """Refuse a latency multiplier a fabric cannot apply.

    A surge only slows links, and a delay must stay a number: NaN or
    inf would reach the flood's slot arithmetic mid-run.
    """
    if not (math.isfinite(factor) and factor >= 1.0):
        raise ValueError("surge factor must be finite and >= 1 (a surge only slows the network)")


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
        check_surge_factor(self.surge_factor)

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
    # Queries
    # ------------------------------------------------------------------
    def is_asynchronous(self, round_number: int) -> bool:
        return any(p.covers(round_number) for p in self.periods)

    def surge_factor(self, round_number: int) -> float:
        """The latency multiplier a deployment applies in ``round_number``
        (1.0 outside every period; periods never overlap)."""
        for p in self.periods:
            if p.covers(round_number):
                return p.surge_factor
        return 1.0
