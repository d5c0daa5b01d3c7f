"""Random scripts from every op: the DSL's promises, checked on whatever is drawn.

A script is data (it pickles, and digests the same in another process),
it owns its asynchronous periods, the interpreter never steps outside
the model's adversary (the simulator raises if it signs as an honest
process or delivers what is not deliverable), and the resilient protocol
with η above the longest scripted asynchronous stretch keeps what the
theorems promise whenever the executed trace satisfies their
assumptions: Definition 5 and post-heal safety around the script's one
asynchronous period, plain safety when it has none.

Plain ``check_safety`` is *not* promised through a period and a drawn
script falsifies it with no corruption at all — ``phase(1), phase(3,
withhold()), phase(3, heal(), partition(range(9), (9,)))`` at any η:
asynchrony from round 1 leaves the expiration window nothing to retain,
so the lone process decides its own chain.  Definition 5 protects the
logs decided *before* the period, and with two periods the first may
already have split them, so scripts with several only exercise the
model checks.
"""

import pickle
import subprocess
import sys
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    check_asynchrony_conditions,
    check_asynchrony_resilience,
    check_eta_sleepiness,
    check_healing,
    check_reduced_failure_ratio,
    check_safety,
)
from repro.attacks import apply_script
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec

from tests.attacks.strategies import attack_scripts

N = 10
THIRD = Fraction(1, 3)
RELAXED = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(attack_scripts(N))
@settings(RELAXED, max_examples=60)
def test_a_script_is_data_and_owns_its_asynchronous_rounds(script):
    clone = pickle.loads(pickle.dumps(script))
    assert clone == script and clone.digest() == script.digest()
    script.validate(N)
    timeline = script.timeline()
    active = {r for r in range(script.total_rounds) if timeline.state_at(r).delivery_active}
    conditions = script.conditions()
    assert {r for r in range(script.total_rounds + 8) if conditions.is_asynchronous(r)} == active
    assert 0 not in active  # asynchronous periods start at round 1 at the earliest


@given(st.lists(attack_scripts(N), min_size=6, max_size=6))
@settings(RELAXED, max_examples=3)
def test_digests_are_equal_across_a_subprocess(scripts):
    code = (
        "import pickle, sys; sys.path.insert(0, 'src')\n"
        "print(*[s.digest() for s in pickle.load(sys.stdin.buffer)])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(scripts),
        capture_output=True,
        check=True,
        cwd="/root/repo",
    )
    assert out.stdout.decode().split() == [script.digest() for script in scripts]


@given(attack_scripts(N), st.integers(0, 3))
@settings(RELAXED, max_examples=60)
def test_the_interpreter_stays_inside_the_model_and_the_theorems_hold(script, seed):
    periods = script.conditions().periods
    eta = max((p.pi for p in periods), default=0) + 1
    spec = apply_script(
        RunSpec(n=N, rounds=script.total_rounds + 6, protocol="resilient", eta=eta, seed=seed),
        script,
    )
    # The simulator polices every adversary message (signed as a corrupted
    # process) and every delivery choice (a subset of the deliverable).
    trace = run_spec(spec).trace
    assert spec.digest() == apply_script(
        RunSpec(n=N, rounds=spec.rounds, protocol="resilient", eta=eta, seed=seed), script
    ).digest()
    assumptions = [
        check_reduced_failure_ratio(trace, THIRD, Fraction(0)),
        check_eta_sleepiness(trace, eta=eta, beta=THIRD),
        *(check_asynchrony_conditions(trace, p.ra, p.pi, eta, THIRD) for p in periods),
    ]
    if len(periods) > 1 or not all(report.ok for report in assumptions):
        return
    if not periods:
        assert check_safety(trace).ok
        return
    (period,) = periods
    assert check_asynchrony_resilience(trace, period.ra, period.pi).ok
    assert check_healing(trace, last_async_round=period.ra + period.pi, k=1).safety_ok
