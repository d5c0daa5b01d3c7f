"""The attack DSL: validation, timeline semantics, digests, composition."""

import pickle
import subprocess
import sys

import pytest

from repro.attacks import (
    ATTACKS,
    AttackScript,
    ScriptedAdversary,
    ScriptSchedule,
    apply_script,
    corrupt,
    drop,
    equivocate,
    get_script,
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
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec

from tests.engine._golden_gen import trace_digest


# ----------------------------------------------------------------------
# Grammar validation
# ----------------------------------------------------------------------
def test_partition_needs_two_disjoint_groups():
    with pytest.raises(ValueError, match="two groups"):
        partition((0, 1, 2))
    with pytest.raises(ValueError, match="overlap"):
        partition((0, 1), (1, 2))


def test_surge_and_drop_validate_parameters():
    with pytest.raises(ValueError, match="factor"):
        surge(0.5)
    with pytest.raises(ValueError, match="probability"):
        drop(0, 1, 1.5)


def test_phase_and_script_validate_shape():
    with pytest.raises(ValueError, match="at least one round"):
        phase(0)
    with pytest.raises(ValueError, match="at least one phase"):
        AttackScript(name="empty", phases=())


def test_first_phase_must_be_delivery_benign():
    delivery = (partition((0,), (1,)), surge(), drop(None, None, 0.1), withhold())
    for op in (*delivery, split_vote((0,), (1,))):
        with pytest.raises(ValueError, match="first phase"):
            AttackScript(name="x", phases=(phase(2, op),))
    # Behaviour ops are fine in the first phase.
    AttackScript(name="ok", phases=(phase(2, corrupt(0), sleep(1)),))


def test_get_script_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown attack script"):
        get_script("nope", 8)


# ----------------------------------------------------------------------
# Timeline semantics
# ----------------------------------------------------------------------
def _timeline(*phases_):
    return AttackScript(name="t", phases=tuple(phases_)).timeline()


def test_delivery_ops_persist_until_heal():
    timeline = _timeline(phase(2), phase(2, partition((0,), (1,))), phase(2), phase(2, heal()))
    assert not timeline.state_at(1).delivery_active
    assert timeline.state_at(2).blocks(0, 1)
    # The partition persists through the op-less third phase...
    assert timeline.state_at(5).blocks(0, 1)
    # ...and heal clears it.
    assert not timeline.state_at(6).delivery_active


def test_corruption_is_cumulative_and_outlives_the_script():
    timeline = _timeline(phase(2, corrupt(7)), phase(2, corrupt(6), heal()), phase(2))
    assert timeline.corrupted_at(0) == {7}
    assert timeline.corrupted_at(3) == {6, 7}
    # Past the script's end: delivery is quiescent, corruption persists.
    assert timeline.corrupted_at(1000) == {6, 7}
    assert not timeline.state_at(1000).delivery_active


def test_sleep_accumulates_and_wake_undoes_it():
    timeline = _timeline(phase(2, sleep(0, 1)), phase(2, sleep(2)), phase(2, wake(0, 2)))
    assert timeline.sleeping_at(0) == {0, 1}
    assert timeline.sleeping_at(2) == {0, 1, 2}
    assert timeline.sleeping_at(4) == {1}
    assert timeline.sleeping_at(1000) == {1}


def test_equivocation_ends_with_heal():
    timeline = _timeline(phase(2, corrupt(3)), phase(2, equivocate()), phase(2, heal()))
    assert timeline.state_at(0).behaviour is None
    assert timeline.state_at(2).behaviour == equivocate()
    assert timeline.state_at(4).behaviour is None


def test_one_behaviour_at_a_time_and_the_latest_wins():
    timeline = _timeline(
        phase(2, corrupt(3), vote_for("deepest")), phase(2, propose("stale")), phase(2)
    )
    assert timeline.state_at(0).behaviour == vote_for("deepest")
    assert timeline.state_at(2).behaviour == propose("stale")
    assert timeline.state_at(4).behaviour == propose("stale")  # persists until heal
    assert timeline.state_at(1000).behaviour is None  # the implicit trailing heal
    with pytest.raises(ValueError, match="mode"):
        propose("weird")


def test_withhold_blocks_every_link_until_heal():
    timeline = _timeline(phase(2), phase(2, withhold()), phase(2, heal()))
    assert timeline.state_at(2).delivery_active
    assert timeline.state_at(2).blocks(0, 1) and timeline.state_at(2).blocks(3, 3)
    assert not timeline.state_at(4).delivery_active


def test_split_vote_owns_its_round():
    """It replaces the delivery rule in force and ends with its phase."""
    script = AttackScript(
        name="t",
        phases=(
            phase(3, corrupt(4)),
            phase(1, withhold(), equivocate()),
            phase(1, split_vote((0, 2), (1, 3))),
            phase(3),
        ),
    )
    timeline = script.timeline()
    attack = timeline.state_at(4)
    assert attack.delivery_active and not attack.withheld
    assert attack.behaviour == split_vote((0, 2), (1, 3))
    after = timeline.state_at(5)
    assert after.behaviour is None and not after.delivery_active
    assert [(p.ra, p.pi) for p in script.conditions().periods] == [(2, 2)]
    with pytest.raises(ValueError, match="two sides"):
        split_vote((0,), (1,), (2,))
    with pytest.raises(ValueError, match="overlap"):
        split_vote((0, 1), (1, 2))


def test_drop_rules_combine_independently():
    timeline = _timeline(phase(1), phase(1, drop(None, 1, 0.5), drop(0, None, 0.5)))
    state = timeline.state_at(1)
    assert state.drop_probability(0, 1) == pytest.approx(0.75)
    assert state.drop_probability(0, 2) == pytest.approx(0.5)
    assert state.drop_probability(2, 3) == 0.0


def test_partition_groups_leave_an_implicit_remainder_group():
    timeline = _timeline(phase(1), phase(1, partition((0, 1), (2,))))
    state = timeline.state_at(1)
    # pids 3+ are not listed: they form one implicit group together.
    assert not state.blocks(3, 4)
    assert state.blocks(0, 3)
    assert state.blocks(2, 3)


def test_conditions_cover_exactly_the_delivery_active_rounds():
    script = get_script("partition-surge", 10)
    periods = script.conditions().periods
    assert [(p.ra, p.pi) for p in periods] == [(3, 3), (11, 3)]
    # The scripted realisation replaces the physical surge.
    assert all(p.surge_factor == 1.0 for p in periods)


# ----------------------------------------------------------------------
# Digests and pickling (scripts are sweep-journal key material)
# ----------------------------------------------------------------------
def test_digest_is_content_derived():
    assert get_script("partition-heal", 8).digest() == get_script("partition-heal", 8).digest()
    assert get_script("partition-heal", 8).digest() != get_script("partition-heal", 10).digest()
    assert get_script("partition-heal", 8).digest() != get_script("surge-recover", 8).digest()


def test_every_library_script_pickles_with_a_stable_digest():
    for name in ATTACKS:
        script = get_script(name, 10)
        clone = pickle.loads(pickle.dumps(script))
        assert clone == script
        assert clone.digest() == script.digest()


def test_digest_stable_across_processes():
    """The journal property: a fresh interpreter derives the same digest."""
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.attacks import get_script\n"
        "print(get_script('partition-surge', 8).digest())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd="/root/repo",
    )
    assert out.stdout.strip() == get_script("partition-surge", 8).digest()


def test_scripted_spec_digest_is_stable():
    script = get_script("lossy-links", 8)
    spec_a = apply_script(RunSpec(n=8, rounds=20, eta=6, seed=0), script)
    spec_b = apply_script(RunSpec(n=8, rounds=20, eta=6, seed=0), get_script("lossy-links", 8))
    assert spec_a.digest() == spec_b.digest()


# ----------------------------------------------------------------------
# apply_script composition
# ----------------------------------------------------------------------
def test_apply_script_wires_adversary_conditions_and_meta():
    script = get_script("partition-heal", 8)
    spec = apply_script(RunSpec(n=8, rounds=20, eta=6, seed=3), script)
    assert isinstance(spec.adversary, ScriptedAdversary)
    assert spec.adversary.seed == 3
    assert spec.meta["attack"] == "partition-heal"
    assert [(p.ra, p.pi) for p in spec.conditions.periods] == [(3, 4)]
    # No sleep ops: the schedule is untouched.
    assert not isinstance(spec.schedule, ScriptSchedule)


def test_apply_script_wraps_the_schedule_only_for_sleep_scripts():
    spec = apply_script(RunSpec(n=9, rounds=20, eta=6), get_script("sleep-storm", 9))
    assert isinstance(spec.schedule, ScriptSchedule)
    awake = spec.schedule.awake(5)  # surge phase: sleepers 0..2 are out
    assert awake == frozenset(range(3, 9))


@pytest.mark.parametrize(
    "op",
    [
        corrupt(6),
        sleep(99),
        wake(6),
        partition((0, 1), (2, 77)),
        drop(0, 6, 0.5),
        surge(links=[(0, 1), (9, 2)]),
        split_vote((0, 2), (1, 7)),
    ],
    ids=lambda op: op.op,
)
def test_apply_script_rejects_pids_the_run_does_not_have(op):
    """A mistyped pid must not be a silently different experiment."""
    script = AttackScript(name="typo", phases=(phase(4), phase(1, op), phase(4, heal())))
    with pytest.raises(ValueError, match=rf"{op.op} names pid \d+, but the run has n=6"):
        apply_script(RunSpec(n=6, rounds=12, eta=6), script)
    apply_script(RunSpec(n=100, rounds=12, eta=6), script)  # the same script fits a larger run


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_running_a_spec_does_not_change_its_digest(name):
    """What a run teaches the interpreter lives on the run, not on the spec."""
    spec = apply_script(
        RunSpec(n=10, rounds=20, protocol="resilient", eta=6), get_script(name, 10)
    )
    before = spec.digest()
    first = run_spec(spec)
    assert spec.digest() == before
    # ... so one spec object can be executed twice, to the same trace.
    assert trace_digest(run_spec(spec).trace) == trace_digest(first.trace)


def test_apply_script_rejects_conflicting_specs():
    from repro.sleepy.adversary import NullAdversary

    script = get_script("partition-heal", 8)
    with pytest.raises(ValueError, match="without an adversary"):
        apply_script(RunSpec(n=8, rounds=20, adversary=NullAdversary()), script)


def test_delay_only_classification():
    """``requires()`` is empty exactly for what every fabric realises as written."""
    needs = {name: get_script(name, 10).requires() for name in ATTACKS}
    # Sleep rides the participation schedule, silence needs no keys, and
    # a blackout is frames held back like a partition's.
    assert {name for name, need in needs.items() if not need} == {
        "partition-heal",
        "surge-recover",
        "partition-surge",
        "sleep-storm",
        "blackout",
        "crash",
    }
    assert needs["lossy-links"] == {"frame-loss"}
    for name in ("equivocation-storm", "stale-votes", "stale-proposer", "conflicting-proposer"):
        assert needs[name] == {"signing"}
    assert needs["split-vote"] == {"signing", "per-receiver-delivery"}
