"""``VoteSet`` — votes as ``tip -> sender bitmask`` — against the oracles.

The mask algebra of :class:`~repro.chain.tally.VoteSet` (merge, the
newest-first window fold, the tally's transitions) must answer exactly
what the per-sender dictionaries it replaced answered.  The oracle is
``NaiveLatestVoteStore`` (``tests/core/test_incremental_votes.py``,
unchanged), driven here at sender ids on both sides of a machine word,
and the cost side is *counted*: what a graded agreement touches follows
the distinct tips voted, not the number of voters, and a GA round is
tallied once for every receiver holding the same window.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.tally import EQUIVOCATED_VOTE, PrefixTally, VoteSet
from repro.core.expiration import LatestVoteStore
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.sleepy.messages import VerifiedBatch, make_vote

from tests.core.test_incremental_votes import NaiveLatestVoteStore, assert_equivalent

# n = 130: pids around the 64- and 128-bit word boundaries.
SENDERS = [0, 1, 62, 63, 64, 65, 126, 127, 128, 129]
TIPS = ["a", "b", "c", None]

entries = st.dictionaries(
    st.sampled_from(SENDERS), st.sampled_from([*TIPS, EQUIVOCATED_VOTE]), max_size=6
)
tables = st.dictionaries(st.integers(0, 9), entries, min_size=1, max_size=3)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("table"), tables),
        # The same round again, in a second table: equal, conflicting
        # and already-voided entries all occur.
        st.tuples(st.just("again"), entries),
        st.tuples(st.just("prune"), st.integers(0, 9)),
    ),
    max_size=14,
)


def record_naively(naive, table):
    for r, row in table.items():
        for sender, value in row.items():
            if value is EQUIVOCATED_VOTE:  # two different signed votes
                naive.record(sender, r, "x")
                naive.record(sender, r, "y")
            else:
                naive.record(sender, r, value)


@settings(max_examples=300, deadline=None)
@given(steps=steps, lo=st.integers(0, 9), width=st.integers(0, 5))
def test_mask_algebra_answers_what_the_per_sender_store_answered(steps, lo, width):
    store, naive = LatestVoteStore(), NaiveLatestVoteStore()
    last_round = 0
    for kind, arg in steps:
        if kind == "prune":
            # Often cuts into the window queried before and after it.
            assert store.prune(arg) == naive.prune(arg)
        else:
            table = arg if kind == "table" else {last_round: arg}
            last_round = max(table)
            store.record_table(table)
            record_naively(naive, table)
        assert_equivalent(store, naive, lo, lo + width)
        # A post-dated round is invisible until the window reaches it.
        for hi in range(10):
            assert_equivalent(store, naive, max(0, hi - 2), hi)


@given(votes=st.dictionaries(st.sampled_from(SENDERS), st.sampled_from(TIPS)))
def test_a_vote_set_reads_as_the_mapping_it_was_built_from(votes):
    resolved = VoteSet.of(votes)
    assert resolved == votes and dict(resolved) == votes
    assert len(resolved) == len(votes)
    assert list(resolved) == sorted(votes)  # ascending sender order
    assert resolved.voided == 0
    for sender in SENDERS:
        assert (sender in resolved) == (sender in votes)
        assert resolved.get(sender, "absent") == votes.get(sender, "absent")
    assert VoteSet.of(resolved) is resolved
    # One mask per distinct tip, each sender in exactly one.
    assert set(resolved.tips) == set(votes.values())
    assert sum(mask.bit_count() for mask in resolved.tips.values()) == len(votes)


def test_a_voided_entry_reads_as_the_marker_and_belongs_to_no_tip():
    resolved = VoteSet.of({63: "a", 64: EQUIVOCATED_VOTE, 128: "a"})
    assert resolved[64] is EQUIVOCATED_VOTE
    assert resolved.voided == 1 << 64
    assert resolved.tips == {"a": 1 << 63 | 1 << 128}
    assert len(resolved) == 3
    with pytest.raises(KeyError):
        resolved[65]


def test_a_sender_is_a_bit_position_negative_ids_raise():
    with pytest.raises(ValueError):
        VoteSet.of({-1: "a"})
    with pytest.raises(ValueError):
        LatestVoteStore().record(-1, 0, "a")
    with pytest.raises(ValueError):
        PrefixTally(None).set_votes({-3: None})
    assert -1 not in VoteSet.of({0: "a"})


# ----------------------------------------------------------------------
# What a graded agreement costs: counted, and the same at any n
# ----------------------------------------------------------------------
ETA = 4
ROUNDS = 24
STEADY_FROM = 4  # count the last 20 rounds


def counted_steady_run(n, monkeypatch):
    """Counts over 20 steady GA rounds of an n-process run on the shared
    chain: per GA round, reads computed and shared and path adjustments;
    per receiver's GA, (bucket, tip) steps folded."""
    counts = {"gas": 0, "adjust_path": 0, "fold_steps": 0}
    live = {"on": False}
    adjust, latest = PrefixTally._adjust_path, LatestVoteStore.latest
    vote_table = VerifiedBatch.vote_table

    class CountedTips(dict):
        """A delivered round's ``tips``: reading it is a fold step per tip."""

        def items(self):
            counts["fold_steps"] += len(self) * live["on"]
            return super().items()

    def counted_table(self):
        table = vote_table(self)
        for r, votes in table.items():
            if type(votes.tips) is dict:  # once per delivery: receivers share it
                table[r] = VoteSet(CountedTips(votes.tips), votes.senders)
        return table

    def counted_adjust(self, old, new, weight):
        counts["adjust_path"] += live["on"]
        return adjust(self, old, new, weight)

    def counted_latest(self, lo, hi):
        counts["gas"] += live["on"]
        return latest(self, lo, hi)

    def per_sender_read(self, *_):
        raise AssertionError("a per-sender read of a VoteSet on the hot path")

    with monkeypatch.context() as patch:
        patch.setattr(VerifiedBatch, "vote_table", counted_table)
        patch.setattr(PrefixTally, "_adjust_path", counted_adjust)
        patch.setattr(LatestVoteStore, "latest", counted_latest)
        simulation = SimulationBackend().build(
            RunSpec(n=n, rounds=ROUNDS, protocol="resilient", eta=ETA, seed=5)
        )
        simulation.run(STEADY_FROM)
        reads = simulation.processes[0]._ga.reads
        before = dict(reads.stats)
        live["on"] = True
        patch.setattr(VoteSet, "__getitem__", per_sender_read)
        patch.setattr(VoteSet, "__iter__", per_sender_read)
        simulation.run(ROUNDS - STEADY_FROM)
    assert simulation.trace.decisions
    assert all(process._ga.reads is reads for process in simulation.processes.values())
    ga_rounds = ROUNDS - STEADY_FROM  # every round reads the previous round's GA
    assert counts["gas"] == n * ga_rounds
    per_round = {key: (reads.stats[key] - before[key]) / ga_rounds for key in before}
    per_round["adjust_path"] = counts["adjust_path"] / ga_rounds
    return per_round, counts["fold_steps"] / counts["gas"], simulation


def test_a_graded_agreement_costs_the_tips_voted_not_the_voters(monkeypatch):
    small, small_fold, _ = counted_steady_run(50, monkeypatch)
    large, large_fold, simulation = counted_steady_run(400, monkeypatch)
    # At most one read is computed per GA round, whatever n is; everyone
    # else holds the same window and borrows it.  (Half a read: a view's
    # second vote repeats its first, so every other window is one the
    # previous round already read.)
    for n, per_round in ((50, small), (400, large)):
        assert per_round["computed"] <= 1 and per_round["computed"] + per_round["shared"] == n
        assert per_round["adjust_path"] <= 1
    assert small["computed"] == large["computed"]
    assert small["adjust_path"] == large["adjust_path"]
    # Each receiver still folds its own window; everyone voted in the
    # newest round, so the fold stops after its bucket.
    assert small_fold == large_fold <= 2
    # Every receiver of a shared delivery holds the delivery's own sets.
    stores = [process._votes._by_round for process in simulation.processes.values()]
    for r, held in stores[0].items():
        assert all(store[r] is held for store in stores)


def test_a_store_adopts_a_delivered_vote_set_by_reference(registry, genesis):
    votes = [make_vote(registry, registry.secret_key(pid), 3, genesis.block_id) for pid in (1, 2)]
    table = VerifiedBatch(votes).vote_table()
    first, second = LatestVoteStore(), LatestVoteStore()
    first.record_table(table)
    second.record_table(table)
    assert first._by_round[3] is second._by_round[3] is table[3]
    # A second, different table for the round merges into a new set;
    # the shared one is never mutated.
    late = VerifiedBatch([make_vote(registry, registry.secret_key(4), 3, None)]).vote_table()
    first.record_table(late)
    assert first.latest(3, 3) == {1: genesis.block_id, 2: genesis.block_id, 4: None}
    assert second.latest(3, 3) == dict(table[3]) == {1: genesis.block_id, 2: genesis.block_id}
