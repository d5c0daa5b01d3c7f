"""A shard's one phase loop: decision latency, phase lateness, phase
instants, the order of a round's phases, and one workload fetch per round."""

import asyncio
import time

import pytest

from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.runtime.clock import RECEIVE_FRACTION
from repro.runtime.node import DeployedNode
from repro.runtime.shard import ShardRuntime, WorkerConfig
from repro.runtime.worker import _fabric
from repro.sleepy.adversary import Adversary
from repro.sleepy.messages import ProposeMessage
from repro.sleepy.process import Process
from repro.sleepy.trace import DecisionEvent
from repro.workloads import SubmissionRateWorkload

from tests.net.conftest import run_virtual

ROUND_S = 3.0


class FakeClock:
    """A round clock whose sleeps jump straight to their target and
    return how far past it ``now`` already was (their lateness)."""

    round_s = ROUND_S

    def __init__(self) -> None:
        self.now = 0.0

    def elapsed(self) -> float:
        return self.now

    def start_of(self, round_number: int) -> float:
        return round_number * ROUND_S

    async def sleep_until_elapsed(self, target: float) -> float:
        self.now = max(self.now, target)
        return self.now - target


class SilentProcess(Process):
    """The typed seam's defaults: no mempool, no decisions of its own."""

    def send(self, round_number):
        return ()

    def receive(self, round_number, messages):
        pass


class DecidingNode:
    """A node whose send phase of ``at_round`` decides ``view``."""

    def __init__(self, pid: int, at_round: int = -1, view: int = 0) -> None:
        self.pid, self.process = pid, SilentProcess(pid)
        self._at_round, self._view = at_round, view
        self.decisions: list[DecisionEvent] = []

    def awake(self, _round_number: int) -> bool:
        return True

    def run_send_phase(self, round_number: int) -> list:
        if round_number == self._at_round:
            self.decisions.append(
                DecisionEvent(pid=self.pid, round=round_number, view=self._view, tip=None)
            )
        return []

    def run_receive_phase(self, _round_number: int) -> int:
        return 0


def _fake_shard(nodes: list, rounds: int) -> ShardRuntime:
    """A one-shard runtime on a :class:`FakeClock`, stepping ``nodes``."""
    spec = RunSpec(n=len(nodes), rounds=rounds, protocol="resilient", eta=2, seed=0)
    config = WorkerConfig(0, tuple(range(spec.n)), {}, {}, None, spec, delta_s=1.0)
    shard = ShardRuntime(config, _fabric(config))
    shard.clock = FakeClock()
    shard.nodes = {node.pid: node for node in nodes}
    return shard


def _observed_latency_s(at_round: int, view: int) -> float:
    shard = _fake_shard([DecidingNode(0, at_round, view)], rounds=at_round + 1)
    asyncio.run(shard.drive())
    summary = shard.hub.snapshot()["histograms"]["decision_latency_s"]
    assert summary["count"] == 1
    return summary["sum"]


def test_decision_latency_counts_from_the_views_first_round():
    # View v >= 1 starts at round 2v - 1: view 3 starts at round 5, so a
    # decision in round 7 took two rounds (a view index read as a round
    # index would make it four).
    assert _observed_latency_s(at_round=7, view=3) == 2 * ROUND_S
    # View 0 starts at round 0.
    assert _observed_latency_s(at_round=1, view=0) == 1 * ROUND_S


def test_a_slow_send_phase_makes_the_next_two_phases_late():
    """A send phase of round 2 that takes 1.2 Δ wakes round 2's receive
    phase 0.3 Δ late and round 3's start 0.2 Δ late; every other phase
    of the loop is on time."""

    class Slow(DecidingNode):
        def run_send_phase(self, round_number: int) -> list:
            if round_number == 2:
                shard.clock.now += 1.2 * ROUND_S
            return []

    rounds = 5
    shard = _fake_shard([Slow(0)], rounds=rounds)
    observed = []
    observe = shard.hub.observe

    def recording(name, value):
        if name == "phase_lateness_s":
            observed.append(value)
        observe(name, value)

    shard.hub.observe = recording
    asyncio.run(shard.drive())
    # Two observations a round: its start, then its receive phase.
    late = {(2, "receive"): 0.3 * ROUND_S, (3, "start"): 0.2 * ROUND_S}
    expected = [late.get((r, phase), 0.0) for r in range(rounds) for phase in ("start", "receive")]
    assert observed == pytest.approx(expected)
    lateness = shard.hub.snapshot()["histograms"]["phase_lateness_s"]
    assert lateness["count"] == 2 * rounds
    assert lateness["max"] == pytest.approx(0.3 * ROUND_S)


def test_a_virtual_clock_run_wakes_every_phase_on_time():
    """On the virtual clock every sleep ends at its timer: each of the
    2 × rounds observations is exactly 0."""
    rounds = 12
    spec = RunSpec(n=6, rounds=rounds, protocol="resilient", eta=2, seed=0)
    result = run_virtual(DeploymentBackend(delta_s=0.02).execute_async(spec))
    lateness = result.extras["histograms"]["phase_lateness_s"]
    assert lateness["count"] == 2 * rounds
    assert lateness["max"] == 0.0


@pytest.mark.parametrize("processes", [1, 2])
def test_a_send_phase_that_overruns_its_window_shows_in_the_lateness(monkeypatch, processes):
    """On the real clock, pid 0's send phase of round 5 sleeping 1.2 Δ
    wakes its shard's receive phase at least 0.3 Δ late, whichever
    shard count.  pid 0 is in shard 0, which the patch reaches."""
    delta_s = 0.01
    round_s = 3 * delta_s
    send = DeployedNode.run_send_phase

    def stalling(node, round_number):
        if node.pid == 0 and round_number == 5:
            time.sleep(1.2 * round_s)
        return send(node, round_number)

    monkeypatch.setattr(DeployedNode, "run_send_phase", stalling)
    rounds = 10
    spec = RunSpec(n=4, rounds=rounds, protocol="resilient", eta=2, seed=0)
    result = DeploymentBackend(delta_s=delta_s, processes=processes).execute(spec)
    lateness = result.extras["histograms"]["phase_lateness_s"]
    assert lateness["count"] == 2 * rounds * processes
    assert lateness["max"] >= 0.3 * round_s


def test_every_receive_phase_runs_at_the_clocks_receive_fraction():
    receives = []

    class Receiving(DecidingNode):
        def run_receive_phase(self, round_number: int) -> int:
            receives.append((round_number, self.pid, shard.clock.now))
            return 0

    shard = _fake_shard([Receiving(pid) for pid in range(3)], rounds=3)
    asyncio.run(shard.drive())
    assert receives == [
        (r, pid, r * ROUND_S + RECEIVE_FRACTION * ROUND_S) for r in range(3) for pid in range(3)
    ]
    assert shard.hub.snapshot()["counters"]["nodes_finished"] == 3


def test_a_round_sends_in_pid_order_then_the_adversary_then_receives(monkeypatch):
    """Within a round, as in the simulator: the honest send phases in pid
    order, then the adversary's ``send``, whose context tree already holds
    this round's honest proposals; no receive phase before every send."""
    events, proposed = [], {}
    send, receive = DeployedNode.run_send_phase, DeployedNode.run_receive_phase

    def sending(node, round_number):
        messages = send(node, round_number)
        events.append(("send", round_number, node.pid))
        proposed.setdefault(round_number, []).extend(
            m.block.block_id for m in messages if isinstance(m, ProposeMessage)
        )
        return messages

    def receiving(node, round_number):
        events.append(("receive", round_number, node.pid))
        return receive(node, round_number)

    class Watching(Adversary):
        """Corrupts pid 5 from round 2 on; sends nothing, records what it saw."""

        def byzantine(self, round_number):
            return frozenset({5}) if round_number >= 2 else frozenset()

        def send(self, round_number, ctx):
            seen = all(block_id in ctx.tree for block_id in proposed.get(round_number, ()))
            events.append(("adversary", round_number, seen))
            return ()

    monkeypatch.setattr(DeployedNode, "run_send_phase", sending)
    monkeypatch.setattr(DeployedNode, "run_receive_phase", receiving)
    rounds = 8
    spec = RunSpec(n=8, rounds=rounds, protocol="resilient", eta=2, seed=0, adversary=Watching())
    result = run_virtual(DeploymentBackend(delta_s=0.04).execute_async(spec))
    assert result.trace.decisions
    assert any(proposed.values())
    for r in range(rounds):
        honest = [pid for pid in range(8) if not (pid == 5 and r >= 2)]
        receivers = [pid for pid in range(8) if not (pid == 5 and r + 1 >= 2)]
        in_round = [event for event in events if event[1] == r]
        assert in_round == [
            *(("send", r, pid) for pid in honest),
            ("adversary", r, True),
            *(("receive", r, pid) for pid in receivers),
        ]
    # Phases of one round never interleave with another's.
    assert [event[1] for event in events] == sorted(event[1] for event in events)


def test_a_shard_run_calls_the_workload_once_per_round(monkeypatch):
    """Every node of the shard takes its round's transactions from one
    fetch: the workload is a pure function of (seed, round), asked once."""
    calls = []
    get = SubmissionRateWorkload.get

    def counted(workload, round_number, *default):
        calls.append(round_number)
        return get(workload, round_number, *default)

    monkeypatch.setattr(SubmissionRateWorkload, "get", counted)
    rounds = 6
    spec = RunSpec(
        n=6,
        rounds=rounds,
        protocol="resilient",
        eta=2,
        seed=0,
        transactions=SubmissionRateWorkload(rate_per_round=3, seed=5),
    )
    result = run_virtual(DeploymentBackend(delta_s=0.04).execute_async(spec))
    assert result.trace.decisions
    assert calls == list(range(rounds))
