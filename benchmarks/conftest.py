"""Shared benchmark fixtures.

Every bench regenerates one paper table/figure/claim (README.md,
"Benchmarks") and reports it three ways:

* printed to stdout (visible with ``pytest benchmarks/ --benchmark-only -s``
  or in the teed bench output),
* written to ``benchmarks/results/<bench>.txt`` (untracked), and
* aggregated into a machine-readable ``BENCH_<name>.json`` at the repo
  root (one file per bench module; per-test median/p95 seconds plus the
  module's ``BENCH_CONFIG``), so the perf trajectory is comparable
  across PRs and CI uploads the numbers as artifacts.

JSON emission is automatic: an autouse fixture wall-times every bench
test and records one sample.  Benches that repeat their measured kernel
(the large-n lane) call the ``bench_json`` fixture instead with their
real per-repeat samples and exact config.

Every entry also carries ``peak_mem_bytes``: the autouse fixture traces
the test under :mod:`tracemalloc` and merges the allocation peak into
the entry (including entries the test wrote itself via ``bench_json``).
Timings therefore include tracemalloc's tracing overhead — uniformly,
on both sides of any ``check_trend.py`` comparison, since the committed
baselines are produced by the same fixture.  Memory trends are
compared by ``check_trend.py`` as a non-fatal ``mem WARN`` lane.
"""

from __future__ import annotations

import json
import math
import statistics
import time
import tracemalloc
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Tests that wrote their own (richer) JSON entry this session; the
#: autouse wall-clock fallback skips them.
_EXPLICIT_ENTRIES: set[str] = set()


@pytest.fixture
def record(request):
    """Returns ``record(text)``: print + persist a bench's result table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / f"{request.node.name}.txt"

    def _record(text: str) -> None:
        print()
        print(text)
        target.write_text(text + "\n")

    return _record


def _p95(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, math.ceil(0.95 * len(ordered)) - 1)]


def _bench_name(request) -> str:
    return request.node.module.__name__.rsplit(".", 1)[-1].removeprefix("bench_")


def write_bench_entry(
    bench_name: str,
    test_name: str,
    samples_s: list[float],
    config: dict,
    extra: dict | None = None,
) -> Path:
    """Merge one test's measurement into ``BENCH_<bench_name>.json``."""
    path = REPO_ROOT / f"BENCH_{bench_name}.json"
    payload = {"bench": bench_name, "results": {}}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("results"), dict):
                payload = existing
        except (json.JSONDecodeError, OSError):
            pass
    payload["bench"] = bench_name
    payload["results"][test_name] = {
        "median_s": statistics.median(samples_s),
        "p95_s": _p95(samples_s),
        "samples_s": samples_s,
        "config": config,
        **(extra or {}),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _annotate_bench_entry(bench_name: str, test_name: str, **extra) -> None:
    """Merge extra keys into an already-written ``BENCH_*.json`` entry."""
    path = REPO_ROOT / f"BENCH_{bench_name}.json"
    try:
        payload = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError):
        return
    entry = payload.get("results", {}).get(test_name)
    if not isinstance(entry, dict):
        return
    entry.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def bench_json(request):
    """``bench_json(samples_s, config=None, **extra)``: explicit JSON entry.

    ``samples_s`` are the per-repeat seconds of the measured kernel;
    ``config`` defaults to the module's ``BENCH_CONFIG``; ``extra``
    lands verbatim in the entry (throughputs, counters, table paths).
    """

    def _write(samples_s: list[float], config: dict | None = None, **extra) -> Path:
        _EXPLICIT_ENTRIES.add(request.node.nodeid)
        if config is None:
            config = dict(getattr(request.node.module, "BENCH_CONFIG", {}))
        return write_bench_entry(
            _bench_name(request), request.node.name, list(samples_s), config, extra
        )

    return _write


@pytest.fixture(autouse=True)
def _bench_json_fallback(request):
    """Wall-time and memory-trace every bench test into ``BENCH_*.json``.

    tracemalloc runs around the whole test; the allocation peak lands
    in the entry as ``peak_mem_bytes``.  Tests that sample memory
    themselves (e.g. the large-n lane) may reset the peak mid-test but
    should leave the tracer running.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
    if not was_tracing and tracemalloc.is_tracing():
        tracemalloc.stop()
    if request.node.nodeid in _EXPLICIT_ENTRIES:
        # The test wrote its own entry mid-run; fold the peak in now.
        _annotate_bench_entry(
            _bench_name(request), request.node.name, peak_mem_bytes=peak
        )
        return
    config = dict(getattr(request.node.module, "BENCH_CONFIG", {}))
    write_bench_entry(
        _bench_name(request),
        request.node.name,
        [elapsed],
        config,
        extra={"peak_mem_bytes": peak},
    )
