"""Awake/asleep schedules (paper §2.1, "Sleepiness").

A schedule answers one question: which processes are awake at the
beginning of round ``r`` (the set ``O_r``)?  Per the paper, the
processes awake at the beginning of round ``r`` coincide with those
awake at the end of round ``r − 1``, so a single per-round set fully
describes sleepiness; the simulator derives send-phase participants from
``O_r`` and receive-phase participants from ``O_{r+1}``.

Schedules describe *honest* sleep behaviour: Byzantine processes never
sleep (§2.1), so the simulator unions the adversary's corrupted set into
``O_r`` separately.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections.abc import Mapping
from functools import lru_cache


class SleepSchedule(ABC):
    """Abstract awake-set oracle: ``awake(r)`` returns ``O_r`` (honest part)."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("need at least one process")
        self.n = n

    @abstractmethod
    def awake(self, round_number: int) -> frozenset[int]:
        """The set of (honest-candidate) processes awake at round ``round_number``."""

    def awake_union(self, start: int, end: int) -> frozenset[int]:
        """``O_{start,end}`` = processes awake at some round in [start, end].

        Rounds below 0 contribute nothing (paper: ``O_r := ∅`` if r < 0).
        """
        result: set[int] = set()
        for r in range(max(start, 0), end + 1):
            result |= self.awake(r)
        return frozenset(result)


@lru_cache(maxsize=8)
def _everyone(n: int) -> frozenset[int]:
    return frozenset(range(n))


class FullParticipation(SleepSchedule):
    """Everyone is awake in every round (the classic static model).

    Every round answers with one set, built once per ``n`` and kept
    outside the instance (whose ``vars`` enter a spec's digest), so a
    run's round records share it.
    """

    def awake(self, round_number: int) -> frozenset[int]:
        return _everyone(self.n)


class TableSchedule(SleepSchedule):
    """An explicit per-round table with a default for unlisted rounds.

    Useful for hand-crafted counter-example scenarios in tests.
    """

    def __init__(
        self,
        n: int,
        table: Mapping[int, frozenset[int] | set[int]],
        default: frozenset[int] | set[int] | None = None,
    ) -> None:
        super().__init__(n)
        self._table = {r: frozenset(s) for r, s in table.items()}
        self._default = frozenset(default) if default is not None else frozenset(range(n))
        for r, awake_set in self._table.items():
            if not awake_set <= frozenset(range(n)):
                raise ValueError(f"round {r}: awake set contains unknown process ids")

    def awake(self, round_number: int) -> frozenset[int]:
        return self._table.get(round_number, self._default)


class SpikeSchedule(SleepSchedule):
    """A participation *spike*: a fraction drops offline for a window.

    Models the Ethereum May-2023 incident the paper's introduction
    recounts (≈60% of consensus clients offline for ~25 minutes): the
    processes with the highest ids sleep during ``[start, start + duration)``
    and return afterwards.
    """

    def __init__(self, n: int, drop_fraction: float, start: int, duration: int) -> None:
        super().__init__(n)
        if not 0.0 <= drop_fraction <= 1.0:
            raise ValueError("drop_fraction must be in [0, 1]")
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._start = start
        self._end = start + duration
        keep = n - int(math.floor(drop_fraction * n))
        self._during = frozenset(range(keep))
        self._normal = frozenset(range(n))

    def awake(self, round_number: int) -> frozenset[int]:
        if self._start <= round_number < self._end:
            return self._during
        return self._normal


class DiurnalSchedule(SleepSchedule):
    """Smoothly oscillating participation (day/night usage pattern).

    Participation follows a cosine between ``min_fraction`` and
    ``max_fraction`` of ``n`` with the given ``period``.  The awake set
    is a contiguous id window that slides by ``drift`` ids per round, so
    the population churns gradually instead of the same processes always
    being awake.
    """

    def __init__(
        self,
        n: int,
        period: int,
        min_fraction: float = 0.3,
        max_fraction: float = 1.0,
        drift: int = 1,
    ) -> None:
        super().__init__(n)
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < min_fraction <= max_fraction <= 1.0:
            raise ValueError("need 0 < min_fraction <= max_fraction <= 1")
        self._period = period
        self._min = min_fraction
        self._max = max_fraction
        self._drift = drift

    def awake(self, round_number: int) -> frozenset[int]:
        phase = 2.0 * math.pi * (round_number % self._period) / self._period
        fraction = self._min + (self._max - self._min) * (1.0 + math.cos(phase)) / 2.0
        count = max(1, int(round(fraction * self.n)))
        offset = (round_number * self._drift) % self.n
        return frozenset((offset + i) % self.n for i in range(count))


class RandomChurnSchedule(SleepSchedule):
    """A seeded random walk over awake sets with bounded per-round churn.

    Each round, at most ``floor(churn_per_round × |awake|)`` awake
    processes go to sleep and an independent set of sleepers may wake
    up (each with probability ``wake_probability``), while never letting
    the awake set drop below ``min_awake`` processes.  The per-round
    sleep bound makes it easy to produce schedules that satisfy the
    paper's churn condition (Eq. 1) for a target ``γ`` over ``η`` rounds
    — which the assumption validators in :mod:`repro.analysis` check
    exactly, per run.

    The walk is generated lazily but deterministically from ``seed``.
    """

    def __init__(
        self,
        n: int,
        churn_per_round: float,
        wake_probability: float = 0.3,
        min_awake: int = 1,
        seed: int = 0,
        initial_awake: frozenset[int] | None = None,
    ) -> None:
        super().__init__(n)
        if not 0.0 <= churn_per_round <= 1.0:
            raise ValueError("churn_per_round must be in [0, 1]")
        if not 0.0 <= wake_probability <= 1.0:
            raise ValueError("wake_probability must be in [0, 1]")
        if not 1 <= min_awake <= n:
            raise ValueError("min_awake must be in [1, n]")
        self._churn = churn_per_round
        self._wake_probability = wake_probability
        self._min_awake = min_awake
        self._rng = random.Random(seed)
        first = initial_awake if initial_awake is not None else frozenset(range(n))
        if not first or not first <= frozenset(range(n)):
            raise ValueError("initial awake set must be a non-empty subset of processes")
        self._history: list[frozenset[int]] = [frozenset(first)]

    def awake(self, round_number: int) -> frozenset[int]:
        if round_number < 0:
            raise ValueError("rounds are non-negative")
        while len(self._history) <= round_number:
            self._history.append(self._step(self._history[-1]))
        return self._history[round_number]

    def _step(self, current: frozenset[int]) -> frozenset[int]:
        awake = set(current)
        sleep_budget = int(math.floor(self._churn * len(awake)))
        headroom = len(awake) - self._min_awake
        sleep_budget = max(0, min(sleep_budget, headroom))
        if sleep_budget:
            for pid in self._rng.sample(sorted(awake), sleep_budget):
                awake.discard(pid)
        for pid in range(self.n):
            if pid not in awake and self._rng.random() < self._wake_probability:
                awake.add(pid)
        return frozenset(awake)
