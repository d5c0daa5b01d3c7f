"""Byzantine proposers: sortition abuse and the proposal filter.

Also documents a finding of this reproduction: Algorithm 1's proposal
rule, read literally, admits *prefix* proposals that regress the chain
and break the Lemma 3 induction — see the xfail test at the bottom and
the convention note in ``repro/protocols/tob_base.py``.
"""

import pytest

from repro.analysis import chain_growth_rate, check_safety, decision_rounds
from repro.chain.block import GENESIS_TIP, genesis_block
from repro.attacks import apply_script, get_script, propose
from repro.harness import TOBRunConfig, build_simulation, run_simulation, run_tob


def proposers(config: TOBRunConfig, mode: str, byz: list[int]) -> TOBRunConfig:
    """``config`` with ``byz`` proposing ``mode`` logs every view of the run."""
    return apply_script(
        config, get_script(f"{mode}-proposer", config.n, byz=byz, rounds=config.rounds)
    )


def run_with_proposers(mode: str, n=12, byz=3, rounds=60, protocol="resilient", eta=3):
    config = TOBRunConfig(n=n, rounds=rounds, protocol=protocol, eta=eta)
    return run_tob(proposers(config, mode, list(range(n - byz, n))))


def test_conflicting_proposals_are_filtered_out():
    """Root-block proposals conflict with L_{v−1}: rejected regardless of
    VRF rank, so every view stays productive."""
    trace = run_with_proposers("conflicting")
    assert check_safety(trace).ok
    gaps = [b - a for a, b in zip(decision_rounds(trace), decision_rounds(trace)[1:])]
    assert gaps and all(gap == 2 for gap in gaps)


def test_stale_proposals_cost_only_their_sortition_share():
    """A stale [b0] proposal winning sortition wastes that view but can
    neither fork nor stall the chain."""
    trace = run_with_proposers("stale", rounds=120)
    assert check_safety(trace).ok
    productive = len(decision_rounds(trace))
    views = 59
    share = productive / views
    # 3 of 12 Byzantine ⇒ honest sortition share 0.75; allow sampling slack.
    assert 0.55 < share < 0.95
    assert chain_growth_rate(trace, start=10) > 0.25


def test_stale_proposer_behaviour_identical_for_mmr():
    mmr = run_with_proposers("stale", protocol="mmr", eta=0)
    resilient = run_with_proposers("stale", protocol="resilient", eta=3)
    assert check_safety(mmr).ok and check_safety(resilient).ok
    assert [
        (d.pid, d.round, d.tip) for d in mmr.decisions
    ] == [(d.pid, d.round, d.tip) for d in resilient.decisions]


def test_adversarial_proposer_validation():
    with pytest.raises(ValueError, match="mode"):
        propose("weird")


@pytest.mark.xfail(
    reason=(
        "Documents the literal reading of Algorithm 1 line 6-7: voting a "
        "max-VRF proposal that is a *prefix* of L_{v-1} regresses the chain "
        "and forks it under full synchrony — which is why this repository's "
        "implementation never votes below L_{v-1} (see tob_base.py). This "
        "test runs a literal-reading process and shows the fork."
    ),
    strict=True,
)
def test_literal_proposal_rule_is_unsafe_under_stale_sortition():
    config = proposers(
        TOBRunConfig(n=12, rounds=60, protocol="resilient", eta=3), "stale", [9, 10, 11]
    )
    sim = build_simulation(config)
    for process in sim.processes.values():
        _patch_to_literal_rule(process)
    trace = run_simulation(sim, config)
    assert check_safety(trace).ok  # xfail: the literal rule forks the chain


def _patch_to_literal_rule(process):
    """Replace the selection rule with the paper's literal wording."""

    def literal_select(view, longest_any):
        best = None
        for message in process._proposals.get(view, {}).values():
            if message is None or message.tip not in process.tree:
                continue
            if process.tree.conflict(message.tip, longest_any):
                continue
            if best is None or (message.vrf.value_num, message.sender) > (
                best.vrf.value_num,
                best.sender,
            ):
                best = message
        return longest_any if best is None else best.tip  # may regress!

    process._select_proposal = literal_select


def test_sortition_is_unbiasable():
    """The adversary cannot choose its VRF value: across seeds its win
    rate stays near its population share."""
    wins = trials = 0
    for seed in range(8):
        config = TOBRunConfig(n=10, rounds=40, protocol="mmr", seed=seed)
        trace = run_tob(proposers(config, "stale", [8, 9]))
        views = (trace.horizon - 1) // 2
        productive = len(decision_rounds(trace))
        trials += views
        wins += views - productive  # unproductive view = adversary won
    rate = wins / trials
    assert 0.08 < rate < 0.35  # population share is 0.2


def test_stale_proposals_never_reintroduce_genesis_decisions():
    trace = run_with_proposers("stale")
    # The bootstrap decision at round 3 is legitimately [b0] (the view-1
    # proposal); after that, stale sortition wins must never drag a
    # delivered log back to the genesis.
    late = [d for d in trace.decisions if d.round > 3]
    assert late
    assert all(d.tip not in (GENESIS_TIP, genesis_block().block_id) for d in late)
