"""One verdict per run: :func:`judge`, the one code that decides whether a run failed.

It reads the trace alone: periods are maximal runs of asynchronous rounds, η
and β are in ``meta``.  Hypotheses: Equation 3 every round and, per period,
``π ≤ max_resilient_pi(η)``, Equations 4-5 and one period (a later one must
start from compatible ``D_ra``).  Promises: Definition 2 up to the first
``ra`` (a lone process may decide its own chain during a period), per period
Definition 5 and Definition 6's safety half with ``k = 1``, and liveness: the
decided chain never stands still for :func:`stall_bound` synchronous rounds
(Definition 6's liveness half, since period rounds are not counted).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, itemgetter

from repro.analysis.assumptions import check_asynchrony_conditions, check_eta_sleepiness
from repro.analysis.checkers import _conflicts, check_asynchrony_resilience, check_healing
from repro.analysis.metrics import stalls
from repro.core.bounds import max_resilient_pi
from repro.sleepy.trace import Trace

#: The odds ``ρ^v`` that :func:`stall_bound`'s ``v`` views all fail may not exceed.
FALSE_ALARM = Fraction(1, 10**9)


@dataclass(frozen=True)
class Verdict:
    """``unsafe(def2|def5|def6, round)`` iff every hypothesis held and a safety
    promise failed (a bug); else ``outside-theorem(eq3|pi|eq4|eq5|one-period,
    round)`` for the earliest failed hypothesis (a finding about the model);
    else ``ok``.  Unless outside the theorem, ``stalled`` is the first round at
    which the decided chain has stood still for :func:`stall_bound` synchronous
    rounds (liveness, judged beside safety and never folded into ``unsafe``).
    ``forked`` is Definition 2 over the whole run: an observation."""

    outcome: str
    reason: str | None = None
    round: int | None = None
    forked: bool = False
    stalled: int | None = None

    @property
    def unsafe(self) -> bool:
        """A safety promise failed while every hypothesis held: a bug."""
        return self.outcome == "unsafe"

    @property
    def failed(self) -> bool:
        """``unsafe`` or ``stalled``: a promise failed, and the run's command exits 1."""
        return self.unsafe or self.stalled is not None

    def __str__(self) -> str:
        text = f"{self.outcome}({self.reason}, {self.round})" if self.reason else self.outcome
        return text if self.stalled is None else f"{text} stalled({self.stalled})"


def stall_bound(trace: Trace) -> int:
    """``G``: the synchronous rounds the decided chain may stand still (README derives it).

    A view's decision waits on its highest-VRF proposer, Byzantine with
    probability at most ``ρ``, the largest ``|B_r|/|O_r|`` of a synchronous
    round (Equation 3 keeps it below β).  ``v`` views all fail with
    probability ``ρ^v``; with ``v`` the fewest making that ≤ 10⁻⁹ (1 at
    ``ρ = 0``), ``G = 2v + 5``: ``v`` two-round views, the 3-round
    proposal→decision pipeline and one view of healing slack.
    """
    synchronous = [rec for rec in trace.rounds if not rec.asynchronous and rec.awake]
    rho = max((Fraction(len(rec.byzantine), len(rec.awake)) for rec in synchronous), default=0)
    views, failing = 1, rho
    while failing > FALSE_ALARM:
        views, failing = views + 1, failing * rho
    return 2 * views + 5


def judge(trace: Trace) -> Verdict:
    """The run's verdict against the theorems (see the module docstring)."""
    eta, beta = trace.meta["eta"], Fraction(trace.meta["beta"])
    periods = [  # (ra, π)
        (run[0].round - 1, len(run))
        for asynchronous, rounds in groupby(trace.rounds, key=attrgetter("asynchronous"))
        if asynchronous and (run := list(rounds))
    ]
    forked = bool(_conflicts(trace, trace.decisions, limit=1))

    # (name, round) per failed hypothesis, listed in the order ties break.
    failed = [("eq3", f.round) for f in check_eta_sleepiness(trace, eta, beta).failures[:1]]
    for index, (ra, pi) in enumerate(periods):
        if pi > max_resilient_pi(eta):
            failed.append(("pi", ra + max_resilient_pi(eta) + 1))
        report = check_asynchrony_conditions(trace, ra, pi, eta, beta)
        failed += [(f.assumption, f.round) for f in report.failures]
        if index and _conflicts(trace, [d for d in trace.decisions if d.round <= ra], limit=1):
            failed.append(("one-period", ra))
    if failed:
        return Verdict("outside-theorem", *min(failed, key=itemgetter(1)), forked)

    bound = stall_bound(trace)
    counted = ([r for r in s[1:] if not trace.record(r).asynchronous] for s in stalls(trace))
    stalled = next((still[bound - 1] for still in counted if len(still) >= bound), None)

    first_ra = periods[0][0] if periods else trace.horizon
    prefix = _conflicts(trace, [d for d in trace.decisions if d.round <= first_ra], limit=1)
    broken = [("def2", conflict.second.round) for conflict in prefix]
    for ra, pi in periods:
        resilience = check_asynchrony_resilience(trace, ra, pi).conflicts
        broken += [("def5", min(c.second.round for c in resilience))] if resilience else []
        healing = check_healing(trace, last_async_round=ra + pi, k=1).conflicts
        broken += [("def6", conflict.second.round) for conflict in healing[:1]]
    if broken:
        return Verdict("unsafe", *min(broken, key=itemgetter(1)), forked, stalled)
    return Verdict("ok", forked=forked, stalled=stalled)
