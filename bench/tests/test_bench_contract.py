"""BENCHMARK.json, the code and a real (small) sample agree on every name."""

import json
import subprocess
import sys
from pathlib import Path

import loads
import spans
import vtime

REPO_DIR = Path(__file__).resolve().parent.parent.parent
CONTRACT = json.loads((REPO_DIR / "BENCHMARK.json").read_text())


def _one_sample(*args: str) -> dict:
    command = [sys.executable, str(REPO_DIR / "bench" / "run.py"), "--one-sample", *args]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_workloads_match_the_contract():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(loads.WORKLOADS)
    assert CONTRACT["paths"] == ["bench"]


def test_per_layer_names_are_the_spans_and_counters():
    expected = [f"{s}.{k}" for s in spans.SPAN_NAMES for k in ("calls", "self_ms")]
    expected += list(spans.COUNTER_NAMES)
    assert [m["name"] for m in CONTRACT["per_layer"]] == expected


def test_a_small_faulty_sample_reports_every_contract_metric():
    untraced = _one_sample("sim-churn-async", "--seed", "3", "--rounds", "40")
    assert untraced["ok"], untraced["checks"]
    # Every contract metric, plus decision_gap_max_rounds (see compare.py).
    assert set(untraced["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]} | {
        "decision_gap_max_rounds"
    }
    traced = _one_sample(
        "sim-churn-async", "--seed", "3", "--rounds", "40", "--traced", "--untraced-cpu-ms", "1.0"
    )
    assert set(traced["layers"]) == {m["name"] for m in CONTRACT["per_layer"]}
    # Tracing observes; it must not change what is decided.
    assert traced["digest"] == untraced["digest"]
    # The simulator has no network or runtime layer.
    assert all(
        traced["layers"][f"{s}.calls"] == 0
        for s in spans.SPAN_NAMES
        if s.startswith(("net.", "runtime."))
    )
    assert traced["layers"]["sleepy.round.calls"] == 40


def test_virtual_time_self_test():
    vtime._self_test()
