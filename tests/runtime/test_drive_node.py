"""``drive_node`` on a fake clock, and the shard's arrivals memo."""

import asyncio

from repro.runtime.metrics import MetricsHub
from repro.runtime.worker import drive_node, shard_arrivals
from repro.sleepy.process import Process
from repro.sleepy.trace import DecisionEvent
from repro.workloads import SubmissionRateWorkload

ROUND_S = 3.0


class FakeClock:
    """A round clock whose sleeps jump straight to their target."""

    round_s = ROUND_S

    def __init__(self) -> None:
        self.now = 0.0

    def elapsed(self) -> float:
        return self.now

    def start_of(self, round_number: int) -> float:
        return round_number * ROUND_S

    async def sleep_until_elapsed(self, target: float) -> None:
        self.now = max(self.now, target)


class SilentProcess(Process):
    """The typed seam's defaults: no mempool, no decisions of its own."""

    def send(self, round_number):
        return ()

    def receive(self, round_number, messages):
        pass


class DecidingNode:
    """A node whose send phase of ``at_round`` decides ``view``."""

    pid = 0
    process = SilentProcess(0)

    def __init__(self, at_round: int, view: int) -> None:
        self._at_round, self._view = at_round, view
        self.decisions: list[DecisionEvent] = []

    def awake(self, _round_number: int) -> bool:
        return True

    def run_send_phase(self, round_number: int) -> list:
        if round_number == self._at_round:
            self.decisions.append(
                DecisionEvent(pid=0, round=round_number, view=self._view, tip=None)
            )
        return []

    def run_receive_phase(self, _round_number: int) -> int:
        return 0


def _observed_latency_s(at_round: int, view: int) -> float:
    hub = MetricsHub()
    asyncio.run(
        drive_node(
            DecidingNode(at_round, view),
            clock=FakeClock(),
            rounds=at_round + 1,
            offset=0.0,
            receive_fraction=0.9,
            byz_by_round={r: frozenset() for r in range(at_round + 2)},
            arrivals=lambda _r: (),
            publish=lambda *_: None,
            metrics=hub,
        )
    )
    summary = hub.snapshot()["histograms"]["decision_latency_s"]
    assert summary["count"] == 1
    return summary["sum"]


def test_decision_latency_counts_from_the_views_first_round():
    # View v >= 1 starts at round 2v - 1: view 3 starts at round 5, so a
    # decision in round 7 took two rounds (a view index read as a round
    # index would make it four).
    assert _observed_latency_s(at_round=7, view=3) == 2 * ROUND_S
    # View 0 starts at round 0.
    assert _observed_latency_s(at_round=1, view=0) == 1 * ROUND_S


def test_shard_arrivals_generates_each_round_once_and_shares_the_objects():
    workload = SubmissionRateWorkload(rate_per_round=3, seed=5)
    calls: list[int] = []

    def counted(round_number: int):
        calls.append(round_number)
        return workload.get(round_number)

    arrivals = shard_arrivals(counted)
    # Six nodes, skewed by up to a round, ask for the same rounds.
    first = [arrivals(r) for r in (0, 0, 1, 0, 1, 1)]
    assert calls == [0, 1]
    assert first[0] is first[1] is first[3]
    assert all(a is b for a, b in zip(first[0], arrivals(0)))
    assert first[0] == workload.get(0) and first[2] == workload.get(1)
    # Only the last few rounds are kept: an old round is generated anew.
    for r in range(2, 12):
        arrivals(r)
    arrivals(0)
    assert calls == [0, 1, *range(2, 12), 0]
    # A round without arrivals is remembered too.
    asked: list[int] = []
    empty = shard_arrivals(lambda r: asked.append(r) or ())
    assert empty(3) == () and empty(3) == ()
    assert asked == [3]
