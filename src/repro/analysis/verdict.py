"""One verdict per run: :func:`judge`, the one code that decides whether a run failed.

It reads the trace alone: periods are maximal runs of asynchronous rounds, η
and β are in ``meta``.  Hypotheses: Equation 3 every round and, per period,
``π ≤ max_resilient_pi(η)``, Equations 4-5 and one period (a later one must
start from compatible ``D_ra``).  Promises, liveness aside: Definition 2 up to
the first ``ra`` (a lone process may decide its own chain during a period),
and per period Definition 5 and Definition 6's safety half with ``k = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import attrgetter, itemgetter

from repro.analysis.assumptions import check_asynchrony_conditions, check_eta_sleepiness
from repro.analysis.checkers import _conflicts, check_asynchrony_resilience, check_healing
from repro.core.bounds import max_resilient_pi
from repro.sleepy.trace import Trace


@dataclass(frozen=True)
class Verdict:
    """``unsafe(def2|def5|def6, round)`` iff every hypothesis held and a promise
    failed (a bug); else ``outside-theorem(eq3|pi|eq4|eq5|one-period, round)``
    for the earliest failed hypothesis (a finding about the model); else ``ok``.
    ``forked`` is Definition 2 over the whole run: an observation."""

    outcome: str
    reason: str | None = None
    round: int | None = None
    forked: bool = False

    @property
    def unsafe(self) -> bool:
        """A promise failed while every hypothesis held: a bug."""
        return self.outcome == "unsafe"

    def __str__(self) -> str:
        return f"{self.outcome}({self.reason}, {self.round})" if self.reason else self.outcome


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

    first_ra = periods[0][0] if periods else trace.horizon
    prefix = _conflicts(trace, [d for d in trace.decisions if d.round <= first_ra], limit=1)
    broken = [("def2", conflict.second.round) for conflict in prefix]
    for ra, pi in periods:
        resilience = check_asynchrony_resilience(trace, ra, pi).conflicts
        broken += [("def5", min(c.second.round for c in resilience))] if resilience else []
        healing = check_healing(trace, last_async_round=ra + pi, k=1).conflicts
        broken += [("def6", conflict.second.round) for conflict in healing[:1]]
    if broken:
        return Verdict("unsafe", *min(broken, key=itemgetter(1)), forked)
    return Verdict("ok", forked=forked)
