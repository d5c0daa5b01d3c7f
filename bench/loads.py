"""The four benchmark workloads.

All are open-loop: ``SubmissionRateWorkload`` makes transactions due at
the start of their round whatever the system's state, and latency
counts from that round.  Load comes from one process and no workload
keeps more than two processes busy (the sandbox has two cores).  The
seed feeds ``RunSpec.seed`` (keys, latencies, overlay), the traffic, the
churn schedule and the adversary; sizes are fixed.

Sizes are what fits the driver's time cap with at least three samples
per run (see README.md, "Sizes"), not what the protocol can carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.conditions import AsyncPeriod, NetworkConditions
from repro.engine.spec import RunSpec
from repro.sleepy.adversary import RandomAdversary
from repro.sleepy.schedule import SleepSchedule
from repro.workloads.participation import churn_walk
from repro.workloads.transactions import SubmissionRateWorkload

ETA = 4
#: Length π of every asynchronous window (π < η, so Def. 5 applies).
WINDOW_PI = 3
REALTIME_DELTA_S = 0.150
#: Rounds a real-time sample runs when nothing sizes it to a time box.
REALTIME_ROUNDS = 60
#: Wall seconds a real-time sample spends outside its rounds (spawn,
#: handshake, 0.5 s anchor, linger, merge, join), for sizing only.
REALTIME_SETUP_ESTIMATE_S = 3.0


class FrozenThroughWindows(SleepSchedule):
    """``base``, with participation frozen from ``ra`` to the end of each window.

    Nobody falls asleep: the paper's Equation 5 (``H_ra ⊆ H_{ra+1}``)
    is a premise of asynchrony resilience, and a bare churn walk breaks
    it at almost every window.  Nobody wakes up either: a process that
    wakes inside a window gets part of its backlog now and the rest
    after the window, when ``_record_proposal`` drops proposals below
    the prune floor *with their blocks*; it is left on a stale tree,
    tallies a single vote and decides a Byzantine fork (seed 15 of the
    unfrozen walk, every assumption validator passing).  That is a
    defect for a correctness issue to fix; a benchmark needs workloads
    on which no operation fails, so this one keeps clear of it.
    """

    def __init__(self, base: SleepSchedule, window_starts: tuple[int, ...], pi: int) -> None:
        super().__init__(base.n)
        self._base = base
        self._frozen_at = {
            r: ra for ra in window_starts for r in range(ra + 1, ra + pi + 2)
        }

    def awake(self, round_number: int) -> frozenset[int]:
        return self._base.awake(self._frozen_at.get(round_number, round_number))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``sim`` (round simulator), ``virtual`` (single-process deployment
    #: on the virtual-time loop) or ``realtime`` (two worker processes).
    kind: str
    n: int
    rounds: int
    tx_per_round: int
    payload_bytes: int
    delta_s: float = 0.0
    #: Where asynchronous windows of π rounds open, as shares of the run.
    windows_at: tuple[float, ...] = ()
    faulty: bool = False

    @property
    def window_starts(self) -> tuple[int, ...]:
        """Rounds ``ra`` after which an asynchronous window opens."""
        return tuple(int(self.rounds * share) for share in self.windows_at)

    @property
    def deterministic(self) -> bool:
        return self.kind != "realtime"

    @property
    def round_s(self) -> float:
        return 3 * self.delta_s

    def traffic(self, seed: int) -> SubmissionRateWorkload:
        return SubmissionRateWorkload(
            self.tx_per_round, seed=seed, payload_bytes=self.payload_bytes
        )

    def spec(self, seed: int) -> RunSpec:
        conditions = None
        if self.window_starts:
            conditions = NetworkConditions(
                periods=tuple(AsyncPeriod(ra, WINDOW_PI) for ra in self.window_starts)
            )
        schedule = adversary = None
        if self.faulty:
            schedule = FrozenThroughWindows(
                churn_walk(self.n, ETA, 0.2, seed=seed), self.window_starts, WINDOW_PI
            )
            corrupted = range(self.n - self.n // 10, self.n)
            adversary = RandomAdversary(corrupted, seed=seed)
        return RunSpec(
            n=self.n,
            rounds=self.rounds,
            protocol="resilient",
            eta=ETA,
            schedule=schedule,
            adversary=adversary,
            conditions=conditions,
            transactions=self.traffic(seed),
            seed=seed,
        )

    def sized_to(self, seconds: float) -> "Workload":
        """This workload with as many real-time rounds as fit ``seconds`` of wall clock.

        Only the real-time workload is sized by a time box; the
        deterministic ones keep their size and repeat instead.
        """
        rounds = int((seconds - REALTIME_SETUP_ESTIMATE_S) / self.round_s)
        return replace(self, rounds=max(24, min(self.rounds, rounds)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-steady",
            why="researcher's path: simulator, full participation, synchrony; chain/core/"
            "protocols/engine.ingest/engine.bus do the work, net and runtime none",
            kind="sim",
            n=50,
            rounds=100,
            tx_per_round=6,
            payload_bytes=64,
        ),
        Workload(
            name="sim-churn-async",
            why="same layers used differently: churn, a random Byzantine tenth, two async "
            "windows; a steady-path trick that costs the faulty path shows here; checks Defs 5/6",
            kind="sim",
            n=50,
            rounds=100,
            tx_per_round=6,
            payload_bytes=64,
            windows_at=(1 / 3, 2 / 3),
            faulty=True,
        ),
        Workload(
            name="deploy-virtual-surge",
            why="one-process deployment on a virtual clock: gossip dedup, delivery wheel, "
            "drive_node and n private trees work, the wire does not; one latency surge heals",
            kind="virtual",
            n=12,
            rounds=140,
            tx_per_round=6,
            payload_bytes=64,
            delta_s=0.04,
            windows_at=(1 / 2,),
        ),
        Workload(
            name="deploy-2p-realtime",
            why="two worker processes, real sockets and wall clock at a large delta: the only "
            "run of encode/decode batch, payload cache, socket writes and the handshake",
            kind="realtime",
            n=16,
            rounds=REALTIME_ROUNDS,
            tx_per_round=7,
            payload_bytes=256,
            delta_s=REALTIME_DELTA_S,
        ),
    )
}
