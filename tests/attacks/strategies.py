"""Hypothesis strategies over the attack DSL: random scripts from *every* op.

``attack_scripts(n)`` draws scripts that are valid at ``n`` processes
(``AttackScript.validate`` passes) and keep the adversary inside the
model's budget: corruption comes from the top two pids and sleep from
the bottom two, so a draw stresses what the ops *do*, not how many
processes they take.  This is the one generator of random attacks —
property tests draw from it rather than growing their own.
"""

from hypothesis import strategies as st

from repro.attacks import (
    AttackScript,
    corrupt,
    drop,
    equivocate,
    heal,
    partition,
    phase,
    propose,
    sleep,
    split_vote,
    surge,
    vote_for,
    wake,
    withhold,
)
from repro.chain.block import genesis_block


def _subsets(pool):
    return st.lists(st.sampled_from(pool), unique=True, min_size=1).map(sorted)


def _ops(n: int):
    """``(benign, delivery)``: ops legal in any phase / only after the first."""
    pids = st.integers(0, n - 1)
    link_end = st.one_of(st.none(), pids)
    two_groups = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda sides: [[pid for pid in range(n) if sides[pid] == side] for side in (0, 1)]
    )
    benign = st.one_of(
        st.just(heal()),
        st.just(equivocate()),
        st.sampled_from(["deepest", "stale", None, genesis_block().block_id]).map(vote_for),
        st.sampled_from(["stale", "conflicting"]).map(propose),
        _subsets((n - 1, n - 2)).map(lambda pool: corrupt(*pool)),
        _subsets((0, 1)).map(lambda pool: sleep(*pool)),
        _subsets((0, 1)).map(lambda pool: wake(*pool)),
    )
    delivery = st.one_of(
        st.just(withhold()),
        two_groups.map(lambda groups: partition(*groups)),
        st.builds(
            surge,
            st.sampled_from([2.0, 4.0]),
            st.one_of(st.none(), st.lists(st.tuples(pids, pids), min_size=1, max_size=4)),
        ),
        st.builds(drop, link_end, link_end, st.sampled_from([0.0, 0.3, 1.0])),
        two_groups.map(lambda groups: split_vote(*groups)),
    )
    return benign, delivery


@st.composite
def attack_scripts(draw, n: int) -> AttackScript:
    benign, delivery = _ops(n)
    phases = [phase(draw(st.integers(1, 4)), *draw(st.lists(benign, max_size=2)))]
    start = phases[0].rounds
    for _ in range(draw(st.integers(1, 5))):
        ops = draw(st.lists(st.one_of(benign, delivery), max_size=3))
        rounds = draw(st.integers(1, 3))
        if any(op.op == "split_vote" for op in ops):
            if start % 2:  # a split vote owns one *even* round: pad up to it
                phases.append(phase(1))
                start += 1
            rounds = 1
        phases.append(phase(rounds, *ops))
        start += rounds
    return AttackScript(name="drawn", phases=tuple(phases))
