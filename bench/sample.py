"""One sample: run a workload once in this process and measure it.

Called by ``run.py --one-sample`` in a fresh interpreter, so CPU and
peak memory read from ``getrusage`` belong to this sample alone.
"""

from __future__ import annotations

import json
import os
import resource
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import measures
import spans
import vtime
from loads import WINDOW_PI, Workload

from repro.analysis.checkers import check_asynchrony_resilience, check_healing, check_safety
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.sim_backend import SimulationBackend

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
TRACE_DIR_ENV = "BENCH_TRACE_DIR"
#: sockaddr_un.sun_path holds 108 bytes; the backend appends
#: "/repro-deploy-XXXXXXXX/control.sock" to the temporary directory.
_UDS_PATH_BUDGET = 108 - 40


def _cpu_s() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Largest ``ru_maxrss`` of this process or any reaped child (KiB on Linux)."""
    both = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(who).ru_maxrss for who in both) / 1024


@dataclass
class Measured:
    """What a runner hands back: the outcome and the raw clocks around it."""

    trace: object
    messages_sent: int
    extras: dict
    #: Wall of the backend call and the part of it not spent on rounds.
    wall_s: float
    setup_s: float
    cpu_s: float
    #: Multiplier to reference-speed time (see hostspeed.py).
    speed_factor: float
    stall_max_s: float = 0.0
    stalls_over_delta: int = 0
    #: Mean wake-up lateness of a sleeping thread during a real-time sample.
    timer_lateness_s: float = 0.0


def _run_sim(workload: Workload, spec) -> Measured:
    gauge = hostspeed.SpeedGauge()
    backend = SimulationBackend()
    wall, cpu = time.perf_counter(), _cpu_s()
    simulation = backend.build(spec)
    built = time.perf_counter()
    run_rounds = simulation.run

    def run_and_tick(num_rounds: int):
        trace = run_rounds(num_rounds)
        gauge.tick()
        return trace

    # ``drive`` runs one round per ``simulation.run(1)`` call: ticking
    # the gauge there interleaves the reference kernel with the rounds.
    simulation.run = run_and_tick
    backend.drive(simulation, spec)
    return Measured(
        trace=simulation.trace,
        messages_sent=simulation.bus.total_published,
        extras={},
        wall_s=time.perf_counter() - wall - gauge.wall_s,
        setup_s=built - wall,
        cpu_s=_cpu_s() - cpu - gauge.cpu_s,
        speed_factor=gauge.factor(),
    )


def _run_virtual(workload: Workload, spec) -> Measured:
    gauge = hostspeed.SpeedGauge()
    backend = DeploymentBackend(processes=1, delta_s=workload.delta_s)
    first_advance: list[float] = []
    rounds_seen = 0

    def on_advance(now: float) -> None:
        nonlocal rounds_seen
        if not first_advance:
            first_advance.append(time.perf_counter())
        if now >= (rounds_seen + 1) * workload.round_s:
            rounds_seen = int(now / workload.round_s)
            gauge.tick()

    wall, cpu = time.perf_counter(), _cpu_s()
    result = vtime.run(backend.execute_async(spec), on_advance)
    return Measured(
        trace=result.trace,
        messages_sent=result.messages_sent,
        extras=result.extras,
        wall_s=time.perf_counter() - wall - gauge.wall_s,
        setup_s=first_advance[0] - wall,
        cpu_s=_cpu_s() - cpu - gauge.cpu_s,
        speed_factor=gauge.factor(),
    )


def _run_realtime(workload: Workload, spec) -> Measured:
    backend = DeploymentBackend(processes=2, delta_s=workload.delta_s)
    with hostspeed.StallSentinel(workload.delta_s) as sentinel:
        wall, cpu = time.perf_counter(), _cpu_s()
        result = backend.execute(spec)
        wall_s = time.perf_counter() - wall
        cpu_s = _cpu_s() - cpu
    return Measured(
        trace=result.trace,
        messages_sent=result.messages_sent,
        extras=result.extras,
        wall_s=wall_s,
        setup_s=wall_s - workload.rounds * workload.round_s,
        cpu_s=cpu_s - sentinel.thread_cpu_s,
        speed_factor=sentinel.gauge.factor(),
        stall_max_s=sentinel.stall_max_s,
        stalls_over_delta=sentinel.stalls_over_delta,
        timer_lateness_s=sentinel.lateness_mean_s,
    )


_RUNNERS = {"sim": _run_sim, "virtual": _run_virtual, "realtime": _run_realtime}


def run_checks(workload: Workload, trace, arrivals: dict[str, int]) -> dict[str, bool]:
    """The paper's properties and the log's integrity, by name."""
    checks = {"safety": check_safety(trace).ok}
    for ra in workload.window_starts:
        checks[f"asynchrony_resilience@{ra}"] = check_asynchrony_resilience(
            trace, ra, WINDOW_PI
        ).ok
        checks[f"healing@{ra}"] = check_healing(trace, last_async_round=ra + WINDOW_PI, k=1).ok
    checks["log_integrity"] = not measures.log_faults(trace, arrivals)
    if workload.kind == "realtime":
        checks["every_view_decides"] = not measures.views_without_decision(trace, workload.rounds)
    return checks


def _confine_tempdir() -> None:
    """Keep the worker sockets inside the checkout when their paths fit."""
    tmp = OUT_DIR / "tmp"
    if len(str(tmp)) <= _UDS_PATH_BUDGET:
        tmp.mkdir(parents=True, exist_ok=True)
        tempfile.tempdir = os.environ["TMPDIR"] = str(tmp)


def _trace_workers(workload: Workload) -> Path:
    """Make spawned workers install the shims and dump into a fresh directory."""
    trace_dir = OUT_DIR / f"{workload.name}.workers"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for stale in trace_dir.glob("*.json"):
        stale.unlink()
    os.environ[TRACE_DIR_ENV] = str(trace_dir)
    # sitecustomize.py is found through PYTHONPATH at interpreter start.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join([str(BENCH_DIR), *([inherited] if inherited else [])])
    return trace_dir


def run_sample(
    workload: Workload, seed: int, started: float, traced: bool = False, untraced_cpu_ms: float = 0.0
) -> dict:
    """Run ``workload`` once and return the sample as a JSON-safe dict.

    ``started`` is this interpreter's first clock read: imports, spec
    and shims all count as set-up.  A traced sample also needs the
    ``cpu_ms_per_round`` of the untraced samples it is compared with.
    """
    spec = workload.spec(seed)
    tracer, worker_dir = None, None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
        if workload.kind == "realtime":
            worker_dir = _trace_workers(workload)
    if workload.kind == "realtime":
        _confine_tempdir()
    entry_s = time.perf_counter() - started
    measured = _RUNNERS[workload.kind](workload, spec)
    # Snapshot before the bookkeeping below runs through the shims.
    dumps = [tracer.dump()] if tracer is not None else []
    trace = measured.trace

    traffic = workload.traffic(seed)
    get = getattr(type(traffic).get, "__wrapped__", type(traffic).get)
    txs_by_round = {r: get(traffic, r) for r in range(workload.rounds)}
    arrivals = {tx.tx_id: r for r, txs in txs_by_round.items() for tx in txs}
    checks = run_checks(workload, trace, arrivals)
    checks_ok = all(checks.values())
    lifecycles = measures.tx_lifecycles(trace, arrivals)
    attempted, failed, latencies = measures.account(lifecycles, workload.rounds, checks_ok)
    deepest = measures.deepest_decided_tip(trace)
    decided = len(trace.tree.payload_ids(deepest) & arrivals.keys()) if deepest else 0

    factor = measured.speed_factor
    # Real-time walls are set by the clock, not by the host's speed.
    wall_factor = factor if workload.deterministic else 1.0
    wall_s = measured.wall_s * wall_factor
    # Seconds per round: measured on the CPU-bound workloads; on the
    # real-time one the schedule, and a decision waits for a timer, so
    # its latency carries the host's measured timer lateness on top.
    round_s = (measured.wall_s - measured.setup_s) * wall_factor / workload.rounds
    cpu_ms_per_round = measured.cpu_s * factor / workload.rounds * 1e3
    # A sample that decided nothing has no latency: charge the whole run.
    p50 = measures.percentile_rounds(latencies, 50) if latencies else float(workload.rounds)
    p95 = measures.percentile_rounds(latencies, 95) if latencies else float(workload.rounds)
    sample = {
        "workload": workload.name,
        "seed": seed,
        "rounds": workload.rounds,
        "ok": checks_ok,
        "checks": checks,
        "digest": measures.decision_digest(trace),
        "attempted": attempted,
        "failed": failed,
        "decided": decided,
        "tainted": workload.kind == "realtime"
        and hostspeed.is_tainted(checks_ok, measured.stall_max_s, workload.delta_s),
        "metrics": {
            "setup_s": (entry_s + measured.setup_s) * wall_factor,
            "decided_tx_per_s": decided / wall_s,
            "cpu_ms_per_round": cpu_ms_per_round,
            "tx_latency_p50_rounds": p50,
            "tx_latency_p95_rounds": p95,
            "tx_latency_p95_s": p95 * round_s + measured.timer_lateness_s,
            "decision_gap_max_rounds": measures.decision_gap_max(trace),
            "peak_rss_mb": _peak_rss_mib(),
        },
        "raw": {
            "speed_factor": factor,
            "wall_s": measured.wall_s,
            "setup_s": entry_s + measured.setup_s,
            "cpu_s": measured.cpu_s,
            "stall_max_ms": measured.stall_max_s * 1e3,
            "stalls_over_delta": measured.stalls_over_delta,
        },
    }
    if tracer is not None:
        if worker_dir is not None:
            dumps.extend(json.loads(path.read_text()) for path in sorted(worker_dir.glob("*.json")))
        merged = spans.merge(dumps)
        sample["layers"] = spans.layer_metrics(
            merged,
            measured,
            workload,
            decided,
            lifecycles,
            decision_gap_max=sample["metrics"]["decision_gap_max_rounds"],
            overhead_ratio=cpu_ms_per_round / untraced_cpu_ms if untraced_cpu_ms else 0.0,
        )
        sample["budget_ms"] = spans.budget_by_layer(merged["agg"])
        by_nonce = {tx.nonce: r for r, txs in txs_by_round.items() for tx in txs}
        spans.write_trace(OUT_DIR / f"{workload.name}.trace.jsonl", merged, trace.tree, by_nonce)
    return sample
