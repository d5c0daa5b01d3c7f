"""Command-line interface: ``python -m repro <command>``.

Every command drives the public API and prints an aligned table, so the
library is explorable without writing a script:

* ``figure1``  — the Figure 1 curve (β̃ vs γ);
* ``run``      — one protocol run with a summary, on the round
  simulator or (``--backend deployment``) as a real-time asyncio gossip
  deployment;
* ``attack``   — a named attack script from :mod:`repro.attacks`,
  baseline vs η-expiration (default: ``split-vote``, the paper's
  agreement attack), on either backend where the fabric can realise it
  (``--backend deployment --processes 2`` runs it sharded, every
  shard's proxy reading each instant's phase off its own round clock);
* ``outage``   — a correlated participation outage replay;
* ``tune-eta`` — the operator's η menu for a given per-round churn;
* ``soak``     — the deployment run as a *service*: a wall-clock
  budget instead of a round count, submission-rate client traffic with
  bounded mempools, optional churn, multi-process sharding via
  ``--processes``, and a live HTTP metrics endpoint that the command
  scrapes itself before exiting;
* ``sweep``    — a named experiment grid, streamed across a process
  pool (the paper's E3/F1/A1/A2 grids plus the D0 deployment smoke
  from :mod:`repro.analysis.batch`), checkpointable to a journal with
  ``--journal PATH`` and resumable with ``--resume``.
"""

from __future__ import annotations

import argparse
import json
from fractions import Fraction
from typing import Sequence

from repro.analysis import (
    chain_growth_rate,
    decided_depth_timeline,
    format_table,
    max_reorg_depth,
    message_totals,
    render_timeline,
    save_trace,
)
from repro.analysis.batch import GRIDS
from repro.analysis.verdict import judge
from repro.attacks import ATTACKS, apply_script, get_script
from repro.core.bounds import beta_tilde, figure1_curve, max_resilient_pi
from repro.engine.backend import run_spec
from repro.engine.registry import PROTOCOLS
from repro.engine.spec import RunSpec, json_form
from repro.engine.sweep import SweepJournal, SweepJournalMismatch, sweep_rows
from repro.workloads import (
    SubmissionRateWorkload,
    churn_walk,
    constant_rate_stream,
    ethereum_outage_scenario,
)


def _add_substrate_flags(
    p: argparse.ArgumentParser, *, delta_ms: float, backend: bool = True, processes: bool = True
) -> None:
    """The flags :func:`_backend_from` reads.

    A subcommand that does not offer one of them pins the value instead
    (``soak`` is always a deployment, ``run`` always one process), so the
    parsed namespace has all three either way.
    """
    if backend:
        p.add_argument(
            "--backend",
            choices=["simulator", "deployment"],
            default="simulator",
            help="execution substrate: deterministic rounds or real-time asyncio gossip",
        )
    else:
        p.set_defaults(backend="deployment")
    if processes:
        p.add_argument(
            "--processes",
            type=int,
            default=1,
            help="shards to split a deployment's nodes across: shard 0 runs in "
            "this process and k - 1 workers are spawned (1 = none, no socket)",
        )
    else:
        p.set_defaults(processes=1)
    p.add_argument(
        "--delta-ms", type=float, default=delta_ms, help="synchrony bound δ (deployment backend)"
    )


def _backend_from(args):
    """The backend the substrate flags select (``None``: the default simulator)."""
    if args.backend != "deployment":
        if args.processes != 1:
            raise SystemExit("--processes shards a deployment: it needs --backend deployment")
        return None
    # Local: keeps asyncio and the runtime out of simulator-only commands.
    from repro.engine.deploy_backend import DeploymentBackend

    return DeploymentBackend(delta_s=args.delta_ms / 1000.0, processes=args.processes)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Asynchrony-resilient sleepy total-order broadcast (PODC 2024) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure1", help="print the Figure 1 curve")
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--beta", type=Fraction, default=Fraction(1, 3))

    p = sub.add_parser("run", help="run one protocol execution (any backend)")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--protocol", choices=sorted(PROTOCOLS.names()), default="resilient")
    p.add_argument("--eta", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_substrate_flags(p, delta_ms=20.0, processes=False)
    p.add_argument(
        "--txs-per-round",
        type=int,
        default=0,
        help="client transaction arrivals per round (runs on either backend)",
    )
    p.add_argument("--timeline", action="store_true", help="print the round-by-round strip chart")
    p.add_argument("--save", metavar="PATH", default=None, help="save the trace as JSON")

    p = sub.add_parser("attack", help="run a named attack script against both protocols")
    p.add_argument("--n", type=int, default=20)
    p.add_argument(
        "--pi",
        type=int,
        default=None,
        help="asynchronous rounds, for the scripts built around one period (split-vote, blackout)",
    )
    p.add_argument("--eta", type=int, default=2)
    p.add_argument(
        "--script",
        choices=sorted(ATTACKS),
        default="split-vote",
        help="the named script from repro.attacks to run (default: the paper's split-vote attack)",
    )
    _add_substrate_flags(p, delta_ms=20.0)
    p.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="total rounds (default: script length + 4 recovery rounds)",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("outage", help="replay a correlated participation outage")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--duration", type=int, default=20)
    p.add_argument("--eta", type=int, default=4)

    p = sub.add_parser("tune-eta", help="print the η calibration menu")
    p.add_argument("--churn-per-round", type=float, default=0.02)
    p.add_argument("--n", type=int, default=48)

    p = sub.add_parser("soak", help="run the deployment as a service for a wall-clock budget")
    p.add_argument("--duration", type=float, default=30.0, help="wall-clock budget in seconds")
    p.add_argument("--n", type=int, default=8)
    _add_substrate_flags(p, delta_ms=50.0, backend=False)
    p.add_argument("--protocol", choices=sorted(PROTOCOLS.names()), default="resilient")
    p.add_argument("--eta", type=int, default=3)
    p.add_argument(
        "--rate", type=int, default=16, help="client transaction submissions per round"
    )
    p.add_argument(
        "--churn",
        type=float,
        default=0.1,
        help="target churn γ per η-round window (0 disables the sleep schedule)",
    )
    p.add_argument(
        "--metrics-port", type=int, default=0, help="metrics endpoint port (0 = ephemeral)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--dump", metavar="PATH", default=None, help="save summary + scraped metrics as JSON"
    )

    p = sub.add_parser("sweep", help="run a named experiment grid as a streamed parallel sweep")
    p.add_argument("grid", choices=sorted(GRIDS), help="which experiment grid to run")
    p.add_argument("--n", type=int, default=None, help="grid size override (where applicable)")
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: cores − 1; 0 forces the serial in-process path)",
    )
    p.add_argument(
        "--window",
        type=int,
        default=None,
        help="cells in flight at once — bounds sweep memory (default: 4 × workers)",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="checkpoint each cell's reduced row to this JSONL journal (fsync'd per window)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already journaled under an identical content digest (needs --journal)",
    )
    p.add_argument("--save", metavar="PATH", default=None, help="save the reduced rows as JSON")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` (default: ``sys.argv``) and run the subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command.replace("-", "_")
    return globals()[f"_cmd_{command}"](args)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def _cmd_figure1(args) -> int:
    rows = [
        [float(gamma), float(value)]
        for gamma, value in figure1_curve(beta=args.beta, points=args.points)
    ]
    print(
        format_table(
            ["drop-off rate γ", "allowable failure ratio β̃"],
            rows,
            title=f"Figure 1: β̃ = (β − γ)/(γ(β − 2) + 1), β = {args.beta}",
        )
    )
    return 0


def _cmd_run(args) -> int:
    transactions = {}
    if args.txs_per_round:
        transactions = constant_rate_stream(args.txs_per_round, args.rounds, seed=args.seed)
    spec = RunSpec(
        n=args.n,
        rounds=args.rounds,
        protocol=args.protocol,
        eta=args.eta,
        seed=args.seed,
        transactions=transactions,
    )
    backend = _backend_from(args)
    result = run_spec(spec, backend)
    trace = result.trace
    verdict = judge(trace)
    totals = message_totals(trace)
    depth = decided_depth_timeline(trace)[-1].depth if trace.rounds else 0
    eta = trace.meta.get("eta", 0)
    print(
        format_table(
            ["metric", "value"],
            [
                ["backend", result.backend + (f" (δ={args.delta_ms:g} ms)" if backend else "")],
                ["protocol", f"{args.protocol} (η={eta})"],
                ["processes / rounds", f"{args.n} / {args.rounds}"],
                ["wall-clock (s)", result.wall_seconds],
                ["messages sent", result.messages_sent],
                ["decisions", len(trace.decisions)],
                ["decided depth", depth],
                ["growth (blocks/round)", chain_growth_rate(trace)],
                ["verdict", str(verdict)],
                ["safety", not verdict.forked],
                ["votes / proposals sent", f"{totals['votes']} / {totals['proposes']}"],
            ],
            title="Run summary",
        )
    )
    if args.timeline:
        print()
        print(render_timeline(trace))
    if args.save:
        save_trace(trace, args.save)
        print(f"\ntrace saved to {args.save}")
    return 1 if verdict.failed else 0


def _cmd_attack(args) -> int:
    try:
        script = get_script(args.script, args.n, **({} if args.pi is None else {"pi": args.pi}))
    except TypeError:
        raise SystemExit(f"repro attack: script {args.script!r} has no --pi to set") from None
    rounds = args.rounds if args.rounds is not None else script.total_rounds + 4
    backend = _backend_from(args)
    rows = []
    failed = False
    for protocol, eta in (("mmr", 0), ("resilient", args.eta)):
        spec = apply_script(
            RunSpec(n=args.n, rounds=rounds, protocol=protocol, eta=eta, seed=args.seed),
            script,
        )
        try:
            result = run_spec(spec, backend)
        except ValueError as refusal:  # the fabric cannot realise the script
            raise SystemExit(f"repro attack: {refusal}") from None
        trace = result.trace
        verdict = judge(trace)
        failed |= verdict.failed
        audit = (result.extras.get("attack") or {}).get("totals") if backend else None
        audit_text = (
            " ".join(f"{key}={audit[key]}" for key in sorted(audit)) if audit else "—"
        )
        rows.append(
            [
                f"{protocol} (η={eta})",
                str(verdict),
                not verdict.forked,
                len(trace.decisions),
                max_reorg_depth(trace),
                audit_text,
            ]
        )
    print(
        format_table(
            ["protocol", "verdict", "safe", "decisions", "max reorg depth", "proxy audit"],
            rows,
            title=(
                f"Scripted attack '{script.name}' "
                f"({script.total_rounds}+{rounds - script.total_rounds} rounds, "
                f"n={args.n}, {args.backend})"
            ),
        )
    )
    return 1 if failed else 0


def _cmd_outage(args) -> int:
    config = ethereum_outage_scenario(n=args.n, duration=args.duration, eta=args.eta)
    trace = run_spec(config).trace
    verdict = judge(trace)
    during = chain_growth_rate(trace, start=12, end=10 + args.duration - 1)
    print(
        format_table(
            ["metric", "value"],
            [
                ["processes", args.n],
                ["offline", "60%"],
                ["outage rounds", args.duration],
                ["growth during outage", during],
                ["verdict", str(verdict)],
                ["safety", not verdict.forked],
            ],
            title="Correlated outage replay (May-2023 shape)",
        )
    )
    return 1 if verdict.failed else 0


def _cmd_tune_eta(args) -> int:
    per_round = Fraction(args.churn_per_round).limit_denominator(1000)
    rows = []
    for eta in (1, 2, 4, 8, 12, 16):
        gamma = min(per_round * eta, Fraction(32, 100))
        value = beta_tilde(Fraction(1, 3), gamma)
        rows.append(
            [eta, max_resilient_pi(eta), float(gamma), float(value), int(value * args.n)]
        )
    print(
        format_table(
            ["η", "tolerated π", "γ per window", "β̃", f"max Byzantine (n={args.n})"],
            rows,
            title=f"η menu at {float(per_round):.1%} per-round churn (β = 1/3)",
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    job = GRIDS[args.grid]
    overrides = {}
    if args.n is not None:
        if not job.sizeable:
            raise SystemExit(f"grid {job.name!r} does not take --n")
        overrides["n"] = args.n
    if args.resume and args.journal is None:
        raise SystemExit("--resume needs --journal PATH (nothing to resume from)")
    journal = SweepJournal(args.journal, grid=job.name) if args.journal else None
    grid = job.build(**overrides)
    try:
        rows = sweep_rows(
            grid,
            job.reducer,
            backend=job.backend() if job.backend is not None else None,
            max_workers=args.workers,
            window=args.window,
            journal=journal,
            resume=args.resume,
        )
    except SweepJournalMismatch as exc:
        raise SystemExit(str(exc)) from None
    print(job.table(rows, **overrides))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(json_form({"grid": job.name, "rows": rows}), fh, indent=2)
        print(f"\nrows saved to {args.save}")
    return 0


def _cmd_soak(args) -> int:
    import asyncio
    import urllib.request

    # Local: keeps asyncio and the runtime out of simulator-only commands.
    from repro.runtime.metrics import MetricsServer, SourcedMetrics

    round_s = 3 * (args.delta_ms / 1000.0)
    rounds = max(2, int(args.duration / round_s))
    schedule = (
        churn_walk(args.n, args.eta, args.churn, seed=args.seed) if args.churn > 0 else None
    )
    spec = RunSpec(
        n=args.n,
        rounds=rounds,
        protocol=args.protocol,
        eta=args.eta,
        seed=args.seed,
        schedule=schedule,
        transactions=SubmissionRateWorkload(args.rate, seed=args.seed),
    )
    backend = _backend_from(args)
    collector = SourcedMetrics()

    async def run_service():
        server = MetricsServer(collector.merged, port=args.metrics_port)
        await server.start()
        print(
            f"soak: n={args.n} processes={args.processes} rounds={rounds} "
            f"(~{rounds * round_s:.0f}s at delta={args.delta_ms}ms); metrics at {server.url}"
        )
        try:
            result = await backend.execute_async(spec, collector=collector)

            def scrape():
                with urllib.request.urlopen(server.url, timeout=10) as response:
                    return json.loads(response.read().decode("utf-8"))

            # Scraping over real HTTP (not reading the collector directly)
            # proves the endpoint a production scraper would hit works.
            scraped = await asyncio.get_running_loop().run_in_executor(None, scrape)
        finally:
            await server.stop()
        return result, scraped

    try:
        result, scraped = asyncio.run(run_service())
    except RuntimeError as exc:
        # A dead worker, a torn control channel, or a deployment
        # timeout is a failed soak, not a traceback: report and exit 1.
        print(f"soak: FAILED — {exc}")
        return 1
    trace = result.trace
    verdict = judge(trace)
    extras = result.extras
    # Protocol messages are never shed by design; the only way one could
    # vanish in the socket substrate is a routing bug, which the
    # transports audit as ``misrouted``.
    shed_protocol = extras["transport"]["misrouted"]
    summary = {
        "n": args.n,
        "processes": args.processes,
        "rounds": rounds,
        "protocol": args.protocol,
        "eta": args.eta,
        "wall_seconds": result.wall_seconds,
        "phase_lateness_max_ms": extras["histograms"]["phase_lateness_s"]["max"] * 1e3,
        "decisions": len(trace.decisions),
        "verdict": str(verdict),
        "safe": not verdict.forked,
        "messages_sent": result.messages_sent,
        "shed_transactions": extras["mempool"]["shed"],
        "admitted_transactions": extras["mempool"]["admitted"],
        "shed_protocol_messages": shed_protocol,
        "gossip": extras["gossip"],
    }
    print(
        format_table(
            ["metric", "value"],
            [[key, value] for key, value in summary.items() if key != "gossip"],
            title="Soak summary",
        )
    )
    if args.dump:
        with open(args.dump, "w") as fh:
            json.dump(json_form({"summary": summary, "metrics": scraped}), fh, indent=2)
        print(f"\nsoak dump saved to {args.dump}")
    return 1 if (verdict.failed or shed_protocol) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
