#!/usr/bin/env python3
"""Watch a run, round by round: the ASCII trace timeline.

One strip chart tells the whole story of a turbulent run: participation
dips, the asynchronous window, the decision cadence stalling through it,
and the recovery.  The same renderers work on any saved trace
(`repro.analysis.load_trace`), making post-mortems one import away.

Run:  python examples/round_timeline.py
"""

from repro.analysis import check_safety, render_depth_curve, render_timeline
from repro.attacks import apply_script, get_script
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.schedule import SpikeSchedule


def main() -> None:
    n = 16
    config = apply_script(
        TOBRunConfig(
            n=n,
            rounds=28,
            protocol="resilient",
            eta=4,
            schedule=SpikeSchedule(n, drop_fraction=0.4, start=6, duration=6),
        ),
        get_script("blackout", n, pi=3, ra=15),
    )
    trace = run_tob(config)

    print("A 40% participation dip (rounds 6-11), then a 3-round blackout (16-18):")
    print()
    print(render_timeline(trace, width=32))
    print()
    print(render_depth_curve(trace))
    print()
    assert check_safety(trace).ok
    print("Safe throughout; the chain pauses for the blackout and resumes.")


if __name__ == "__main__":
    main()
