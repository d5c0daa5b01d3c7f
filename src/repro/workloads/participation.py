"""Participation workloads: the shapes the paper's introduction motivates.

Each helper returns a :class:`~repro.sleepy.schedule.SleepSchedule`.
These are *generators*; whether a generated schedule satisfies the
paper's inequalities for given (η, γ, β̃) is validated per-run by
:mod:`repro.analysis.assumptions` — experiments assert the assumptions
on the executed trace rather than trusting the generator.
"""

from __future__ import annotations

import math

from repro.sleepy.schedule import (
    DiurnalSchedule,
    FullParticipation,
    RandomChurnSchedule,
    SleepSchedule,
    SpikeSchedule,
)


def stable(n: int) -> SleepSchedule:
    """Static participation: the classic synchronous-BFT population."""
    return FullParticipation(n)


def churn_walk(
    n: int,
    eta: int,
    gamma: float,
    seed: int = 0,
    wake_probability: float = 0.5,
    min_fraction: float = 0.5,
) -> SleepSchedule:
    """A random walk whose churn aims at ``γ`` per ``η`` rounds (Eq. 1).

    The per-round sleep budget is ``γ/max(η, 1)`` of the awake set, so
    over any η-round window at most ~γ of the recently-awake processes
    can have dropped out.  This is conservative, not exact — the
    experiments validate Eq. 1 on the produced trace.
    """
    if eta < 0:
        raise ValueError("η must be non-negative")
    per_round = gamma / max(eta, 1)
    return RandomChurnSchedule(
        n,
        churn_per_round=per_round,
        wake_probability=wake_probability,
        min_awake=max(1, int(math.ceil(min_fraction * n))),
        seed=seed,
    )


def outage(n: int, fraction: float, start: int, duration: int) -> SleepSchedule:
    """A sudden correlated outage: ``fraction`` of processes drop at once."""
    return SpikeSchedule(n, drop_fraction=fraction, start=start, duration=duration)


def ethereum_may_2023(n: int, start: int = 10, duration: int = 20) -> SleepSchedule:
    """The May 2023 Ethereum incident (paper §1, footnote 1).

    Roughly 60% of consensus clients crashed at once and returned about
    25 minutes later; the dynamically available chain kept growing.  The
    default ``duration`` is scaled down from the real ~125 rounds
    (Δ = 12 s) to keep simulations brisk; pass ``duration=125`` for the
    full-scale replay.
    """
    return outage(n, fraction=0.6, start=start, duration=duration)


def diurnal(n: int, period: int = 48, min_fraction: float = 0.3) -> SleepSchedule:
    """Day/night participation oscillation with gradual membership drift."""
    return DiurnalSchedule(n, period=period, min_fraction=min_fraction)


class RampSchedule(SleepSchedule):
    """Linear participation decline from 100% to ``floor_fraction``.

    Between ``start`` and ``start + length`` rounds the awake set shrinks
    by one process at a time (highest pids leave first) — the gentlest
    possible churn, useful for locating stall thresholds precisely.
    """

    def __init__(self, n: int, floor_fraction: float, start: int, length: int) -> None:
        super().__init__(n)
        if not 0.0 < floor_fraction <= 1.0:
            raise ValueError("floor_fraction must be in (0, 1]")
        if length <= 0:
            raise ValueError("length must be positive")
        self._floor = max(1, int(math.ceil(floor_fraction * n)))
        self._start = start
        self._length = length

    def awake(self, round_number: int) -> frozenset[int]:
        if round_number < self._start:
            keep = self.n
        else:
            progress = min(1.0, (round_number - self._start) / self._length)
            keep = round(self.n - progress * (self.n - self._floor))
        return frozenset(range(int(keep)))
