"""Batch analysis entry points: the paper's experiment grids as sweeps.

Every large experiment grid in the repository — the Theorem-2 (η, π)
boundary matrix, the Figure-1 empirical probes, both ablations, the
deployment smoke and the two attack matrices — is one :class:`GridJob`
row of :data:`GRIDS`: its axes, its base defaults, a picklable cell
factory expanding to seeded :class:`~repro.engine.spec.RunSpec`\\ s, a
per-cell **reducer** that turns an executed run into a small
measurement row inside the worker process, and the ``(header, column)``
pairs its table is rendered from.  Benches, the ``repro sweep`` CLI
subcommand, and tests all call ``GRIDS[name].build`` / ``.reducer`` /
``.table``, so "the Theorem 2 sweep" means exactly the same cells
everywhere — and the paper grids are proven run-for-run identical to
their pre-sweep serial loops by
``tests/engine/test_sweep_equivalence.py``.

Factories and reducers are module-level functions (process pools import
them by reference), and each reducer reads everything it needs from the
executed trace plus the cell's parameter dict.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.analysis.assumptions import (
    check_churn,
    check_eta_sleepiness,
    check_reduced_failure_ratio,
)
from repro.analysis.checkers import check_asynchrony_resilience, check_safety
from repro.analysis.metrics import chain_growth_rate, decision_rounds
from repro.analysis.tables import format_table
from repro.attacks import ATTACKS, apply_script, get_script
from repro.core.bounds import beta_tilde
from repro.engine.backend import EngineResult, ExecutionBackend
from repro.engine.spec import RunSpec
from repro.engine.sweep import Reducer, SweepSpec
from repro.sleepy.schedule import RandomChurnSchedule, TableSchedule
from repro.workloads.scenarios import churn_scenario, split_vote_attack_scenario

THIRD = Fraction(1, 3)

__all__ = [
    "GRIDS",
    "GridJob",
    "ablation_beta_sizings",
    "aggregate_sleepiness",
    "figure1_sizing",
    "sleepiness_draws",
]


# ----------------------------------------------------------------------
# E3 — Theorem 2 boundary sweep (bench_pi_eta_sweep)
# ----------------------------------------------------------------------
def _pi_axis(params: dict) -> range:
    """π sweeps across the theorem boundary: ``1 .. η + extra_pi``."""
    return range(1, params["eta"] + 1 + params["extra_pi"])


def pi_eta_spec(*, eta: int, pi: int, n: int, base_target: int, seed: int, **_) -> RunSpec:
    """One Theorem-2 cell: the split-vote attack at (η, π), target kept even."""
    # Keep the attacked round's pre-window identical across π by moving
    # the target with π (and keeping it a decision round).
    target = base_target + pi
    return split_vote_attack_scenario(
        "resilient",
        eta=eta,
        pi=pi,
        n=n,
        target_round=target if target % 2 == 0 else target + 1,
        seed=seed,
    )


def reduce_pi_eta(result: EngineResult, params: dict) -> dict:
    """Reduce one (η, π) run to its safety/resilience verdict row."""
    trace = result.trace
    pi = params["pi"]
    return {
        "eta": params["eta"],
        "pi": pi,
        "guaranteed": pi < params["eta"],
        "safe": check_safety(trace).ok,
        "resilient": check_asynchrony_resilience(trace, ra=trace.meta["ra"], pi=pi).ok,
    }


# ----------------------------------------------------------------------
# F1 — Figure 1 empirical probe (bench_figure1)
# ----------------------------------------------------------------------
def figure1_sizing(gamma_f: float, n: int, beta: Fraction) -> tuple[Fraction, Fraction, int]:
    """``(gamma, allowed, byzantine)`` for one churn point.

    The single source of the probe's adversary sizing — the cell factory
    configures the run with it and the reducer reports it, so the bench
    table can never drift from what actually executed.
    """
    gamma = Fraction(gamma_f).limit_denominator(100)
    allowed = beta_tilde(beta, gamma)
    return gamma, allowed, max(0, int(allowed * n) - 1)  # strictly below β̃·|O_r|


def figure1_spec(
    *, gamma_f: float, n: int, eta: int, rounds: int, beta: Fraction, seed: int, **_
) -> RunSpec:
    """One Figure-1 probe cell: churn at γ with the largest legal adversary."""
    gamma, _, byz = figure1_sizing(gamma_f, n, beta)
    return churn_scenario(
        "resilient", eta=eta, gamma=float(gamma), n=n, rounds=rounds, byzantine=byz, seed=seed
    )


def reduce_figure1(result: EngineResult, params: dict) -> dict:
    """Reduce one churn run to its (β̃, Byzantine, growth, safety) row."""
    trace = result.trace
    _, allowed, byz = figure1_sizing(params["gamma_f"], params["n"], params["beta"])
    return {
        "gamma": params["gamma_f"],
        "allowed": allowed,
        "byz": byz,
        "growth": chain_growth_rate(trace, start=8),
        "safe": check_safety(trace).ok,
    }


def _figure1_view(rows: Sequence[dict], fields: dict) -> tuple[list[dict], dict]:
    """β̃ is an exact fraction in the rows and a decimal in the table."""
    return [{**row, "allowed": float(row["allowed"])} for row in rows], {}


# ----------------------------------------------------------------------
# A1 — stale-vote amplification ablation (bench_ablation_beta)
# ----------------------------------------------------------------------
def ablation_beta_sizings(n: int = 30, sleepers: int = 9) -> tuple[int, int, Fraction]:
    """``(under_tilde, over_tilde, gamma)``: the two adversary sizings.

    ``under_tilde`` respects Equation 2 for the sleep spike's drop-off
    rate γ; ``over_tilde`` is legal under the unadjusted β = 1/3 only.
    """
    gamma = Fraction(sleepers, n)
    tilde = beta_tilde(THIRD, gamma)
    return max(1, int(tilde * n) - 1), int(THIRD * n) - 1, gamma


def _byz_axis(params: dict) -> tuple[int, int]:
    """Adversary sized by β̃ (Eq. 2) vs by the unadjusted β, side by side."""
    return ablation_beta_sizings(params["n"], params["sleepers"])[:2]


def ablation_beta_spec(
    *, byz_count: int, n: int, rounds: int, eta: int, sleep_at: int, sleepers: int, **_
) -> RunSpec:
    """One A1 cell: the stale-vote amplification run for one adversary size."""
    byz = list(range(n - byz_count, n))
    sleeper_set = set(range(n - byz_count - sleepers, n - byz_count))

    # After sleep_at, the sleepers are gone; their last votes linger for
    # η more rounds.  Byzantine processes keep voting for the deepest
    # block from before the sleep point (a stale branch).
    awake_after = set(range(n)) - sleeper_set - set(byz)
    schedule = TableSchedule(
        n, {r: awake_after for r in range(sleep_at, rounds + 1)}, default=set(range(n)) - set(byz)
    )
    return apply_script(
        RunSpec(n=n, rounds=rounds, protocol="resilient", eta=eta, schedule=schedule),
        get_script("stale-votes", n, byz=byz, from_round=sleep_at, rounds=rounds),
    )


def reduce_ablation_beta(result: EngineResult, params: dict) -> dict:
    """Reduce one A1 run to its post-sleep cadence/stall/safety row."""
    trace = result.trace
    rounds = decision_rounds(trace)
    post = [r for r in rounds if r > params["sleep_at"]]
    gaps = [b - a for a, b in zip(post, post[1:])]
    return {
        "byz": params["byz_count"],
        "post_decisions": len(post),
        "longest_stall": max(gaps, default=params["rounds"] - params["sleep_at"] if not post else 0),
        "safe": check_safety(trace).ok,
    }


def _ablation_beta_view(rows: Sequence[dict], fields: dict) -> tuple[list[dict], dict]:
    """Label each adversary size by the bound that admits it."""
    under, _, gamma = ablation_beta_sizings(fields["n"], fields["sleepers"])
    eq2 = f"β̃={float(beta_tilde(THIRD, gamma)):.3f} (Eq. 2)"
    labelled = [
        {**row, "sized_by": eq2 if row["byz"] <= under else "β=1/3 (unadjusted)"} for row in rows
    ]
    return labelled, {"gamma": float(gamma)}


# ----------------------------------------------------------------------
# A2 — admission-check comparison (bench_ablation_sleepiness)
# ----------------------------------------------------------------------
def sleepiness_draws(samples: int = 12, master_seed: int = 99) -> tuple[tuple[int, float, int], ...]:
    """The seeded ``(seed, churn, byz_count)`` sample points of A2."""
    rng = random.Random(master_seed)
    draws = []
    for _ in range(samples):
        seed = rng.randrange(1 << 16)
        churn = rng.choice([0.02, 0.05, 0.10, 0.15])
        byz_count = rng.choice([0, 2, 4])
        draws.append((seed, churn, byz_count))
    return tuple(draws)


def sleepiness_spec(*, draw: tuple[int, float, int], n: int, rounds: int, eta: int, **_) -> RunSpec:
    """One A2 cell: a seeded random-churn run with an optional crash adversary."""
    seed, churn, byz_count = draw
    spec = RunSpec(
        n=n,
        rounds=rounds,
        protocol="resilient",
        eta=eta,
        schedule=RandomChurnSchedule(n, churn_per_round=churn, seed=seed, min_awake=n // 3),
    )
    if not byz_count:
        return spec
    return apply_script(spec, get_script("crash", n, byz=range(n - byz_count, n), from_round=0))


def reduce_sleepiness(result: EngineResult, params: dict) -> dict:
    """Reduce one A2 run to its per-round Eq. 1+2 / Eq. 3 admission sets."""
    trace = result.trace
    eta, gamma = params["eta"], params["gamma"]
    failures_1 = {f.round for f in check_churn(trace, eta, gamma).failures}
    failures_2 = {f.round for f in check_reduced_failure_ratio(trace, THIRD, gamma).failures}
    failures_3 = {f.round for f in check_eta_sleepiness(trace, eta, THIRD).failures}
    all_rounds = {r.round for r in trace.rounds}
    return {
        "eq12": all_rounds - failures_1 - failures_2,
        "eq3": all_rounds - failures_3,
        "total": trace.horizon,
    }


def aggregate_sleepiness(rows: Sequence[dict]) -> dict:
    """Sum the per-run admission sets into the A2 comparison counters."""
    agg = {"total": 0, "eq12": 0, "eq3": 0, "eq12_not_eq3": 0, "eq3_not_eq12": 0}
    for row in rows:
        agg["total"] += row["total"]
        agg["eq12"] += len(row["eq12"])
        agg["eq3"] += len(row["eq3"])
        agg["eq12_not_eq3"] += len(row["eq12"] - row["eq3"])
        agg["eq3_not_eq12"] += len(row["eq3"] - row["eq12"])
    return agg


def _sleepiness_view(rows: Sequence[dict], fields: dict) -> tuple[list[dict], dict]:
    """The A2 table is the aggregate, one line per admission check."""
    agg = aggregate_sleepiness(rows)
    checks = (
        (f"Eq. 1 + Eq. 2 (churn bound γ={fields['gamma']} + β̃)", "eq12"),
        ("Eq. 3 (η-sleepiness)", "eq3"),
        ("admitted by Eqs. 1+2 but not Eq. 3", "eq12_not_eq3"),
        ("admitted by Eq. 3 but not Eqs. 1+2", "eq3_not_eq12"),
    )
    summary = [
        {"check": label, "admitted": agg[key], "share": agg[key] / agg["total"]}
        for label, key in checks
    ]
    return summary, {"total": agg["total"]}


# ----------------------------------------------------------------------
# D0 — deployment-substrate sweep smoke
# ----------------------------------------------------------------------
def deploy_smoke_spec(*, eta: int, n: int, rounds: int, seed: int, **_) -> RunSpec:
    """One D0 cell: a clean real-time run of the resilient protocol."""
    return RunSpec(n=n, rounds=rounds, protocol="resilient", eta=eta, seed=seed)


def deployment_backend() -> ExecutionBackend:
    """The single-process deployment backend of the D0 and AD grids.

    Sweeps run it on the serial lane.  The multi-process proxy path
    (coordinator-broadcast phase frames) is exercised by the CI
    attack-matrix job's ``repro attack --processes 2`` step and by the
    runtime test-suite, where one cell is enough; paying two worker
    spawns per grid cell here would not buy more coverage.
    """
    from repro.engine.deploy_backend import DeploymentBackend

    return DeploymentBackend(delta_s=0.01)


def reduce_deploy_smoke(result: EngineResult, params: dict) -> dict:
    """Reduce one deployment run to its (η, decided, safe) row.

    Only fields that are deterministic on the real-time substrate under
    local synchrony belong here — wall-clock seconds and message counts
    vary run to run and would break resume bit-equivalence.
    """
    trace = result.trace
    return {
        "eta": params["eta"],
        "decided": bool(trace.decisions),
        "safe": check_safety(trace).ok,
    }


# ----------------------------------------------------------------------
# AT / AD — scripted-attack matrices (attack scripts × protocols × seeds)
# ----------------------------------------------------------------------
def attack_spec(
    *, script_name: str, protocol: str, n: int, eta: int, tail: int, seed: int, **_
) -> RunSpec:
    """One AT cell: a scripted attack against one protocol.

    ``tail`` quiescent rounds after the script give the protocol room to
    recover, so liveness after healing is part of the measurement.
    """
    script = get_script(script_name, n)
    base = RunSpec(
        n=n, rounds=script.total_rounds + tail, protocol=protocol, eta=eta, seed=seed
    )
    return apply_script(base, script)


def _fabric_scripts(params: dict) -> tuple[str, ...]:
    """The library scripts every fabric realises as written (``requires()`` empty)."""
    return tuple(name for name in ATTACKS if not get_script(name, params["n"]).requires())


def reduce_attack(result: EngineResult, params: dict) -> dict:
    """Reduce one attack cell to safety/liveness/latency columns."""
    trace = result.trace
    script = get_script(params["script_name"], params["n"])
    timeline = script.timeline()
    disrupted = [
        r for r in range(script.total_rounds) if timeline.state_at(r).delivery_active
    ]
    recover_from = (disrupted[-1] + 1) if disrupted else 0
    rounds = sorted(decision_rounds(trace))
    gaps = [b - a for a, b in zip(rounds, rounds[1:])]
    post = [r for r in rounds if r >= recover_from]
    horizon = script.total_rounds + params["tail"]
    return {
        "script": params["script_name"],
        "protocol": params["protocol"],
        "seed": params["seed"],
        "safe": check_safety(trace).ok,
        "decided": bool(rounds),
        "recovered": bool(post),
        "first_decision": rounds[0] if rounds else None,
        "longest_stall": max(gaps, default=0) if rounds else horizon,
        "recovery_latency": (post[0] - recover_from) if post else None,
    }


def reduce_attack_deploy(result: EngineResult, params: dict) -> dict:
    """Reduce one deployment attack cell to its deterministic columns.

    As with D0, only fields stable across real-time runs belong here
    (resume bit-equivalence): audit counters and latency columns are
    reported by ``repro attack``, not journaled.
    """
    trace = result.trace
    return {
        "script": params["script_name"],
        "protocol": params["protocol"],
        "seed": params["seed"],
        "safe": check_safety(trace).ok,
        "decided": bool(trace.decisions),
    }


# ----------------------------------------------------------------------
# The grid table (benches, tests, CLI)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridJob:
    """One named experiment grid: its cells, its reducer, its table.

    :meth:`build` and :meth:`table` take the same overrides; each key
    names an axis (replacing its values) or a ``base`` constant
    (replacing its default), and anything else is a :class:`TypeError`.
    """

    name: str
    description: str
    #: Axis name -> values, or a callable over the partial params (see
    #: :class:`~repro.engine.sweep.SweepSpec`), in nested-loop order.
    axes: Mapping[str, object]
    #: Constants merged under every cell's axis values, with defaults.
    base: Mapping[str, object]
    factory: Callable[..., RunSpec]
    reducer: Reducer
    #: ``str.format`` template over the resolved settings.
    title: str
    #: ``(header, row key)`` per table column; headers are templates too.
    columns: Sequence[tuple[str, str]]
    #: For a table that is not the reduced rows verbatim (a derived
    #: column, an aggregate): ``(rows, settings) -> (table rows, extra
    #: template fields)``.
    view: Callable[[Sequence[dict], dict], tuple[Sequence[dict], dict]] | None = None
    #: Whether the CLI's ``--n`` may override ``base["n"]``.
    sizeable: bool = True
    #: Backend factory for grids that do not run on the default round
    #: simulator (``None`` → simulator).  A factory, not an instance,
    #: so building the registry never constructs a substrate.
    backend: Callable[[], ExecutionBackend] | None = None

    def _settings(self, overrides: dict) -> dict:
        unknown = overrides.keys() - self.axes.keys() - self.base.keys()
        if unknown:
            raise TypeError(f"grid {self.name!r} has no setting {sorted(unknown)}")
        return {**self.base, **overrides}

    def build(self, **overrides) -> SweepSpec:
        """The grid's :class:`SweepSpec` under ``overrides``."""
        settings = self._settings(overrides)
        return SweepSpec(
            axes={name: overrides.get(name, values) for name, values in self.axes.items()},
            base={key: settings[key] for key in self.base},
            factory=self.factory,
        )

    def table(self, rows: Sequence[dict], **overrides) -> str:
        """The grid's table over reduced ``rows`` (same overrides as :meth:`build`)."""
        fields = self._settings(overrides)
        if self.view is not None:
            rows, extra = self.view(rows, fields)
            fields = {**fields, **extra}
        return format_table(
            [header.format(**fields) for header, _ in self.columns],
            [[row[key] for _, key in self.columns] for row in rows],
            title=self.title.format(**fields),
        )


GRIDS: dict[str, GridJob] = {
    job.name: job
    for job in (
        GridJob(
            name="pi-eta",
            description="E3: Theorem 2 (η, π) boundary matrix under the split-vote attack",
            axes={"eta": (2, 4, 6), "pi": _pi_axis},
            base={"n": 20, "extra_pi": 2, "base_target": 10, "seed": 0},
            factory=pi_eta_spec,
            reducer=reduce_pi_eta,
            title="E3: Theorem 2 boundary sweep under the split-vote attack (n={n})",
            columns=(
                ("η", "eta"),
                ("π", "pi"),
                ("π < η (guaranteed)", "guaranteed"),
                ("safe", "safe"),
                ("Def.5 resilient", "resilient"),
            ),
        ),
        GridJob(
            name="figure1",
            description="F1: Figure 1 empirical probe (churn points below the β̃ curve)",
            axes={"gamma_f": (0.0, 0.10, 0.20, 0.28)},
            base={"n": 45, "eta": 4, "rounds": 50, "beta": THIRD, "seed": 3},
            factory=figure1_spec,
            reducer=reduce_figure1,
            title="Figure 1 (empirical): runs below the curve make progress",
            columns=(
                ("γ", "gamma"),
                ("β̃ (analytic)", "allowed"),
                ("Byzantine (of {n})", "byz"),
                ("growth blocks/round", "growth"),
                ("safe", "safe"),
            ),
            view=_figure1_view,
        ),
        GridJob(
            name="ablation-beta",
            description="A1: stale-vote amplification — β̃ sizing vs unadjusted β",
            axes={"byz_count": _byz_axis},
            base={"n": 30, "rounds": 40, "eta": 6, "sleep_at": 14, "sleepers": 9},
            factory=ablation_beta_spec,
            reducer=reduce_ablation_beta,
            title=(
                "A1: stale-vote amplification, n={n}, η={eta}, "
                "{sleepers} sleepers (γ={gamma:.2f})"
            ),
            columns=(
                ("adversary size", "byz"),
                ("sized by", "sized_by"),
                ("decisions after sleep", "post_decisions"),
                ("longest stall", "longest_stall"),
                ("safe", "safe"),
            ),
            view=_ablation_beta_view,
        ),
        GridJob(
            name="sleepiness",
            description="A2: Eqs. 1+2 vs Eq. 3 admission over random participation",
            axes={"draw": sleepiness_draws()},
            base={"n": 24, "rounds": 30, "eta": 4, "gamma": Fraction(1, 5)},
            factory=sleepiness_spec,
            reducer=reduce_sleepiness,
            title="A2: admission-check comparison over {total} sampled rounds (n={n}, η={eta})",
            columns=(
                ("admission check", "check"),
                ("rounds admitted", "admitted"),
                ("share", "share"),
            ),
            view=_sleepiness_view,
            sizeable=False,
        ),
        GridJob(
            name="deploy-smoke",
            description="D0: tiny real-time deployment grid (serial lane, journaled like any sweep)",
            axes={"eta": (2, 3)},
            base={"n": 4, "rounds": 6, "seed": 0},
            factory=deploy_smoke_spec,
            reducer=reduce_deploy_smoke,
            title="D0: deployment-substrate sweep smoke (n={n}, real asyncio rounds)",
            columns=(("η", "eta"), ("decided", "decided"), ("safe", "safe")),
            backend=deployment_backend,
        ),
        GridJob(
            name="attacks",
            description="AT: scripted-attack matrix (scripts × protocols) on the simulator",
            axes={
                "script_name": tuple(ATTACKS),
                "protocol": ("mmr", "resilient"),
                "seed": (0, 1),
            },
            # η = 6 exceeds every scripted asynchronous stretch (π ≤ 5), so
            # Theorem 2 *guarantees* safety for the resilient protocol in
            # every cell — the CI gate asserts exactly that, while MMR's
            # violations under partition + surge are the paper's expected
            # headline and are reported, not gated.
            base={"n": 12, "eta": 6, "tail": 4},
            factory=attack_spec,
            reducer=reduce_attack,
            title="AT: scripted-attack matrix (n={n}, simulator)",
            columns=(
                ("script", "script"),
                ("protocol", "protocol"),
                ("seed", "seed"),
                ("safe", "safe"),
                ("decided", "decided"),
                ("recovered", "recovered"),
                ("first decision", "first_decision"),
                ("longest stall", "longest_stall"),
                ("recovery latency", "recovery_latency"),
            ),
        ),
        GridJob(
            name="attacks-deploy",
            description="AD: the scripts every fabric realises, on the real asyncio deployment",
            # The proxy transport realises exactly the partitions, surges
            # and blackouts the simulator's scripted adversary realises,
            # and silence and sleep need no fabric at all (drops really
            # lose frames there and Byzantine sends need in-process keys;
            # see ``AttackScript.requires``), so this grid is the
            # substrate-equivalence smoke.
            axes={
                "script_name": _fabric_scripts,
                "protocol": ("mmr", "resilient"),
                "seed": (0,),
            },
            base={"n": 6, "eta": 6, "tail": 4},
            factory=attack_spec,
            reducer=reduce_attack_deploy,
            title="AD: scripted attacks on the deployment substrate (n={n}, real asyncio)",
            columns=(
                ("script", "script"),
                ("protocol", "protocol"),
                ("seed", "seed"),
                ("safe", "safe"),
                ("decided", "decided"),
            ),
            backend=deployment_backend,
        ),
    )
}
