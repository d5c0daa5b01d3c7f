"""``judge``: the hypotheses first, then what they promise, from the trace alone."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import load_trace, save_trace
from repro.analysis.verdict import Verdict, judge, stall_bound
from repro.attacks import apply_script, get_script
from repro.chain.block import genesis_block
from repro.chain.tree import BlockTree
from repro.engine.backend import run_spec
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.spec import RunSpec
from repro.sleepy.trace import DecisionEvent

from tests.analysis.test_assumptions import build_trace
from tests.conftest import extend
from tests.net.conftest import run_virtual

THIRD = Fraction(1, 3)
HORIZON = 40
STABLE = frozenset(range(12))
STEADY = [(set(STABLE), set())] * HORIZON


def hand_built(rows, eta, asynchronous=()):
    trace = build_trace(rows, frozenset(asynchronous))
    trace.meta.update(eta=eta, beta=THIRD)
    return trace


@st.composite
def one_broken_hypothesis(draw):
    """``(trace, equation, round)``: a trace breaking exactly that hypothesis there.

    Twelve honest processes stay awake with nobody corrupted, around one
    period ``[ra+1, ra+π]`` with ``π < η``, unless the case says otherwise.
    """
    eta = draw(st.integers(2, 5))
    equation = draw(st.sampled_from(["eq3", "pi", "eq4", "eq5", "one-period"]))
    ra, pi = draw(st.integers(0, 20)), draw(st.integers(1, eta - 1))
    rows = [(set(STABLE), set()) for _ in range(HORIZON)]
    asynchronous = set(range(ra + 1, ra + pi + 1))
    decisions = []
    if equation == "eq3":
        # Four sleep for a few rounds away from the period: 8 > (2/3)·12 fails.
        at, length = draw(
            st.tuples(st.integers(1, HORIZON - 3), st.integers(1, 3)).filter(
                lambda span: span[0] + span[1] <= ra or span[0] > ra + pi + 1
            )
        )
        for r in range(at, at + length):
            rows[r] = (set(range(8)), set())
    elif equation == "pi":
        pi = draw(st.integers(eta, eta + 3))
        asynchronous = set(range(ra + 1, ra + pi + 1))
        at = ra + eta  # the first round past the π = η − 1 the protocol tolerates
    elif equation == "eq4":
        # Eight are awake at ra; six more wake at `at` and stay: Equation 3
        # holds everywhere, but H_ra is no longer > (2/3)·|O_(r-η,r)|.
        at = draw(st.integers(ra + 1, ra + pi + 1))
        rows = [(set(range(8 if r < at else 14)), set()) for r in range(HORIZON)]
    elif equation == "eq5":
        at = ra + 1
        rows[at] = (set(STABLE - {0}), set())
    else:
        # A second period, after two conflicting decisions.
        at = draw(st.integers(ra + pi + 1, 30))
        asynchronous |= set(range(at + 1, at + 1 + draw(st.integers(1, eta - 1))))
        first, second = sorted(draw(st.lists(st.integers(0, at), min_size=2, max_size=2)))
        decisions = [(0, first, 1), (1, second, 2)]
    return with_decisions(hand_built(rows, eta, asynchronous), decisions), equation, at


def growing(trace, rounds):
    """``trace`` whose decided chain grows by one block at each of ``rounds``."""
    trace.tree = BlockTree([genesis_block()])
    blocks = extend(trace.tree, genesis_block().block_id, len(rounds))
    trace.decisions += [
        DecisionEvent(0, r, block.view, block.block_id) for r, block in zip(rounds, blocks)
    ]
    return trace


def with_decisions(trace, decisions):
    """``trace`` with ``(pid, round, salt)`` decisions, one fork off genesis per salt."""
    trace.tree = BlockTree([genesis_block()])
    for pid, round_number, salt in decisions:
        (tip,) = extend(trace.tree, genesis_block().block_id, 1, salt=salt)
        trace.decisions.append(DecisionEvent(pid, round_number, 1, tip.block_id))
    return trace


@given(one_broken_hypothesis())
@settings(max_examples=150, deadline=None)
def test_judge_names_the_one_broken_hypothesis_and_its_round(case):
    trace, equation, at = case
    verdict = judge(trace)
    assert (verdict.outcome, verdict.reason, verdict.round) == ("outside-theorem", equation, at)
    assert str(verdict) == f"outside-theorem({equation}, {at})"


def test_periods_are_maximal_runs_of_asynchronous_rounds():
    # Nothing is ever decided: in theorem, the seventh synchronous round
    # without growth (2, 6, 7, 8, 10, 11, 12) is a stall.
    split = judge(hand_built(STEADY, eta=4, asynchronous={3, 4, 5, 9}))
    assert split == Verdict("ok", stalled=12)
    merged = judge(hand_built(STEADY, eta=4, asynchronous={3, 4, 5, 6}))
    assert str(merged) == "outside-theorem(pi, 6)" and merged.stalled is None


@pytest.mark.parametrize(
    "decisions, expected",
    [
        # Definition 2 is not promised through the period [6, 8]...
        ([(0, 6, 1), (1, 7, 2)], "ok stalled(15)"),
        # ...but before it, and after it Definitions 5 and 6 are.
        ([(0, 3, 1), (1, 5, 2)], "unsafe(def2, 5) stalled(13)"),
        ([(0, 5, 1), (1, 10, 2)], "unsafe(def5, 10) stalled(15)"),
        ([(0, 10, 1), (1, 12, 2)], "unsafe(def6, 12) stalled(17)"),
    ],
)
def test_what_the_hypotheses_promise(decisions, expected):
    """Each chain grows once, to depth 1, then stands still: liveness fails
    beside safety, seven synchronous rounds after its one growth."""
    trace = hand_built(STEADY, eta=4, asynchronous={6, 7, 8})
    verdict = judge(with_decisions(trace, decisions))
    assert str(verdict) == expected and verdict.forked


@pytest.mark.parametrize(
    "rows, grows, asynchronous, stalled",
    [
        (STEADY, range(3, HORIZON, 2), (), None),  # every view decides
        (STEADY, range(3, 13, 2), (), 18),  # last growth at 11: G(0) = 7 rounds later
        (STEADY, range(3, 13, 2), {14, 15, 16}, 21),  # the period's rounds are not counted
        ([(set(STABLE - {11}), {11})] * HORIZON, range(3, 13, 2), (), 34),  # ρ = 1/12: G = 23
    ],
)
def test_a_chain_that_stops_growing_stalls_g_synchronous_rounds_later(
    rows, grows, asynchronous, stalled
):
    trace = growing(hand_built(rows, eta=4, asynchronous=asynchronous), grows)
    verdict = judge(trace)
    assert verdict == Verdict("ok", stalled=stalled) and not verdict.unsafe
    assert verdict.failed is (stalled is not None)
    assert str(verdict) == ("ok" if stalled is None else f"ok stalled({stalled})")


def test_a_stall_outside_the_theorem_is_not_judged():
    """Blackout past ``max_resilient_pi(4) = 3``: the chain never grows again,
    and the run is outside the theorem, not stalled."""
    trace = growing(hand_built(STEADY, eta=4, asynchronous=range(5, 10)), [3])
    assert judge(trace) == Verdict("outside-theorem", "pi", 8)


@pytest.mark.parametrize(
    "honest, byzantine, bound",
    [(12, 0, 7), (11, 1, 23), (39, 5, 25), (33, 16, 43)],  # ρ = 0, 1/12, 0.114, 0.327
)
def test_g_grows_with_the_byzantine_share_of_the_awake(honest, byzantine, bound):
    rows = [(set(range(honest)), set(range(honest, honest + byzantine)))] * HORIZON
    assert stall_bound(build_trace(rows)) == bound
    # An asynchronous round's share does not count: G is ρ's over synchronous rounds.
    assert stall_bound(build_trace([(set(STABLE), set()), *rows[:1]], {1})) == 7


def scripted(name: str, **params) -> RunSpec:
    """``resilient`` at n = 6, η = 6 under the named script, then four quiet rounds."""
    script = get_script(name, 6, **params)
    base = RunSpec(n=6, rounds=script.total_rounds + 4, protocol="resilient", eta=6)
    return apply_script(base, script)


@pytest.mark.parametrize("pi, expected", [(3, "ok"), (6, "outside-theorem(pi, 11)")])
def test_blackout_is_judged_alike_on_both_substrates(pi, expected):
    spec = scripted("blackout", pi=pi)
    simulated = judge(run_spec(spec).trace)
    deployed = judge(run_virtual(DeploymentBackend(delta_s=0.01).execute_async(spec)).trace)
    assert str(simulated) == str(deployed) == expected


@pytest.mark.parametrize("name", ["partition-surge", "blackout"])
def test_the_ci_acceptance_scripts_hold_every_hypothesis(name):
    """The hypotheses are a function of the spec alone, so ``repro attack``
    on these scripts (n = 6, η = 6) exits 1 iff a promise breaks."""
    verdict = judge(run_spec(scripted(name)).trace)
    assert verdict.outcome != "outside-theorem", verdict


@pytest.mark.parametrize(
    "protocol, eta, expected",
    [("mmr", 0, "outside-theorem(pi, 10)"), ("resilient", 2, "ok")],
)
def test_a_saved_trace_is_judged_as_the_run_was(tmp_path, protocol, eta, expected):
    script = get_script("split-vote", 20)
    base = RunSpec(n=20, rounds=script.total_rounds + 4, protocol=protocol, eta=eta)
    trace = run_spec(apply_script(base, script)).trace
    save_trace(trace, tmp_path / "trace.json")
    assert judge(load_trace(tmp_path / "trace.json")) == judge(trace)
    assert str(judge(trace)) == expected and judge(trace).forked is (protocol == "mmr")
