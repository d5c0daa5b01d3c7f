"""The one round step, seen from both substrates: what it checks and what
it records are the same on the simulator and on a one-shard deployment."""

import pytest

from repro.crypto.signatures import KeyRegistry
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.errors import ModelViolationError
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.protocols.tob_base import SleepyTOBProcess
from repro.sleepy.adversary import Adversary
from repro.sleepy.messages import make_vote

from tests.net.conftest import run_virtual


def _spec(**kwargs) -> RunSpec:
    return RunSpec(n=6, rounds=10, protocol="resilient", eta=2, seed=0, **kwargs)


@pytest.mark.parametrize("backend", ["simulator", "deployment"])
def test_an_honest_send_signed_as_another_pid_is_a_model_violation(monkeypatch, backend):
    """pid 1's send phase of round 3 also returns a vote signed by pid 2:
    both substrates refuse it before it is published."""
    spec = _spec()
    registry = KeyRegistry(spec.n, run_seed=spec.seed)
    send = SleepyTOBProcess.send

    def forging(process, round_number):
        messages = list(send(process, round_number))
        if process.pid == 1 and round_number == 3:
            messages.append(make_vote(registry, registry.secret_key(2), round_number, None))
        return messages

    monkeypatch.setattr(SleepyTOBProcess, "send", forging)
    with pytest.raises(ModelViolationError, match="honest process 1 signed as 2"):
        if backend == "simulator":
            SimulationBackend().execute(spec)
        else:
            run_virtual(DeploymentBackend(delta_s=0.02).execute_async(spec))


class Resending(Adversary):
    """Corrupts pid 5, which votes once in round 2 and sends that same
    vote again in rounds 3 and 5, inside every dedup horizon."""

    def byzantine(self, round_number):
        return frozenset({5})

    def send(self, round_number, ctx):
        if round_number == 2:
            ctx.memory["vote"] = ctx.craft_vote(5, round_number, None)
        if round_number in (2, 3, 5):
            return [ctx.memory["vote"]]
        return []


def test_a_resent_message_is_recorded_in_every_round_that_sends_it_on_both_substrates():
    spec = _spec(adversary=Resending())
    simulated = SimulationBackend().execute(spec).trace
    deployed = run_virtual(DeploymentBackend(delta_s=0.02).execute_async(spec)).trace

    def counts(trace):
        return [(rec.votes_sent, rec.proposes_sent, rec.other_sent) for rec in trace.rounds]

    assert counts(simulated) == counts(deployed)
    # Five honest votes a round from round 1 on, and pid 5's vote in each
    # round that sends it.
    votes = [votes for votes, _, _ in counts(simulated)]
    assert votes == [0] + [5 + (r in (2, 3, 5)) for r in range(1, spec.rounds)]
