"""ASCII timeline rendering."""

import pytest

from repro.analysis.viz import render_depth_curve, render_timeline
from repro.engine.conditions import NetworkConditions
from repro.harness import TOBRunConfig, run_tob
from repro.sleepy.schedule import SpikeSchedule
from repro.sleepy.trace import Trace


def sample_trace():
    return run_tob(
        TOBRunConfig(
            n=10,
            rounds=16,
            protocol="resilient",
            eta=3,
            schedule=SpikeSchedule(10, drop_fraction=0.5, start=6, duration=4),
            conditions=NetworkConditions.window(ra=11, pi=2),
        )
    )


def test_timeline_marks_phases_and_decisions():
    text = render_timeline(sample_trace())
    lines = text.splitlines()
    assert len(lines) == 17  # header + 16 rounds
    assert "ASYNC" in text and "sync" in text
    assert "*" in text
    # The spike halves the participation bar.
    full = next(line for line in lines if line.strip().startswith("0 "))
    dipped = next(line for line in lines if line.strip().startswith("7 "))
    assert dipped.count("█") < full.count("█")


def test_timeline_sampling():
    text = render_timeline(sample_trace(), every=4)
    assert len(text.splitlines()) == 1 + 4
    with pytest.raises(ValueError):
        render_timeline(sample_trace(), every=0)


def test_depth_curve_monotone_blocks():
    curve = render_depth_curve(sample_trace())
    assert "decided depth" in curve
    body = curve.splitlines()[1]
    assert len(body) == 16
    levels = "▁▂▃▄▅▆▇█"
    ranks = [levels.index(c) for c in body]
    assert ranks == sorted(ranks)


def test_depth_curve_empty_trace():
    assert "empty" in render_depth_curve(Trace(n=1))
