"""The substrate-independent description of one protocol run.

A :class:`RunSpec` says *what* to execute — protocol, participation
schedule, adversary, network conditions, transaction workload — without
saying *where*.  Backends (:mod:`repro.engine.backend`) say where:
the deterministic round simulator or the wall-clock asyncio deployment.

:class:`RunSpec` is also the public :class:`~repro.harness.TOBRunConfig`
(the harness re-exports it under that name), so every existing
scenario, bench, and example config runs on either substrate unchanged.

This module also defines the **stable content digest** of a run:
:func:`canonical_form` normalises an arbitrary model object (specs,
schedules, adversaries, fractions, seeded RNGs, …) into a
JSON-serialisable structure that depends only on *content* — never on
memory addresses, hash seeds, or iteration order — and
:func:`stable_digest` hashes that form.  The sweep checkpoint journal
(:mod:`repro.engine.sweep`) keys each grid cell by this digest, so a
changed parameter, seed, or backend configuration invalidates stale
journal rows instead of silently reusing them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from repro.chain.transactions import Transaction
from repro.engine.conditions import NetworkConditions
from repro.protocols.graded_agreement import DEFAULT_BETA
from repro.sleepy.adversary import Adversary, NullAdversary
from repro.sleepy.schedule import FullParticipation, SleepSchedule


@dataclass
class RunSpec:
    """Declarative description of one protocol run.

    Attributes:
        n: number of processes.
        rounds: rounds to execute.
        protocol: a name registered in the protocol registry
            (``"mmr"`` — original, current-round votes — or
            ``"resilient"`` — latest unexpired votes over η rounds — by
            default; extensions may register more).
        eta: expiration period for protocols that use one (ignored by
            ``"mmr"``).
        beta: the GA failure-ratio parameter β (quorums are ``> (1−β)m``
            and ``> β·m``).  The *assumption* to run under β̃ for a given
            churn rate is the experimenter's responsibility — that is
            the paper's Equation 2, checked by
            :mod:`repro.analysis.assumptions`.
        schedule: awake/asleep schedule (default: full participation).
        adversary: the adversary (default: none).  The simulator grants
            all three adversary powers; the deployment substrate grants
            corruption and Byzantine messaging, while delivery control
            is realised physically as latency surges (see
            :mod:`repro.engine.conditions`).
        conditions: the run's asynchronous periods — the one description
            of asynchrony, realised as adversarial delivery in the
            simulator and as latency surges in deployments (default:
            synchrony throughout).
        transactions: round → transactions that arrive at every awake
            process's mempool at the beginning of that round (models
            clients broadcasting transactions).
        record_telemetry: collect per-GA quorum-race telemetry on every
            process (:class:`~repro.protocols.tob_base.TallySample`).
        seed: run seed for key derivation.
        meta: free-form metadata copied into the trace.
    """

    n: int
    rounds: int
    protocol: str = "resilient"
    eta: int = 2
    beta: Fraction = DEFAULT_BETA
    schedule: SleepSchedule | None = None
    adversary: Adversary | None = None
    transactions: Mapping[int, Sequence[Transaction]] = field(default_factory=dict)
    record_telemetry: bool = False
    seed: int = 0
    meta: dict = field(default_factory=dict)
    conditions: NetworkConditions | None = None

    # ------------------------------------------------------------------
    # Resolution (defaults applied once, identically on every backend)
    # ------------------------------------------------------------------
    def resolved_schedule(self) -> SleepSchedule:
        return self.schedule if self.schedule is not None else FullParticipation(self.n)

    def resolved_adversary(self) -> Adversary:
        return self.adversary if self.adversary is not None else NullAdversary()

    def resolved_conditions(self) -> NetworkConditions:
        return self.conditions if self.conditions is not None else NetworkConditions.synchronous()

    def arrivals(self, round_number: int) -> Sequence[Transaction]:
        """Transactions arriving at the beginning of ``round_number``."""
        return self.transactions.get(round_number, ())

    def digest(self) -> str:
        """A stable, content-derived digest of this spec.

        Two specs digest equal iff they describe the same run —
        protocol, parameters, schedule, adversary, workload, and seed —
        regardless of object identity or the process that computed it,
        and regardless of whether the spec has been executed: what a
        scripted adversary learns during a run lives on the run
        (:attr:`~repro.sleepy.adversary.AdversaryContext.memory`).  The
        one exception is :class:`~repro.sleepy.adversary.RandomAdversary`,
        whose RNG walk is its state — digest such a spec before running it.
        """
        return stable_digest(self)


# ----------------------------------------------------------------------
# Stable content digests
# ----------------------------------------------------------------------
def _qualified_name(obj: object) -> str:
    module = getattr(obj, "__module__", type(obj).__module__)
    qualname = getattr(obj, "__qualname__", type(obj).__qualname__)
    return f"{module}:{qualname}"


def _sort_key(form: object) -> str:
    return json.dumps(form, sort_keys=True, separators=(",", ":"))


def canonical_form(value: object) -> object:
    """A JSON-serialisable normal form of ``value``, content-derived.

    The form is stable across processes and Python hash seeds: sets and
    mappings are sorted by their elements' canonical encoding, floats
    are spelled via ``repr`` (exact shortest round-trip), callables are
    named by module-qualified name, seeded RNGs by their state, and
    arbitrary model objects (schedules, adversaries, backends) by class
    name plus instance ``vars``.  Raises :class:`TypeError` for objects
    whose content cannot be derived (no fields, default ``repr``) —
    better a loud failure than a digest that silently depends on a
    memory address.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, Fraction):
        return ["fraction", value.numerator, value.denominator]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    if isinstance(value, range):
        return ["range", value.start, value.stop, value.step]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted((canonical_form(v) for v in value), key=_sort_key)]
    if isinstance(value, Mapping):
        items = [[canonical_form(k), canonical_form(v)] for k, v in value.items()]
        return ["map", sorted(items, key=lambda kv: _sort_key(kv[0]))]
    if isinstance(value, (list, tuple)):
        return ["seq", [canonical_form(v) for v in value]]
    if isinstance(value, functools.partial):
        return [
            "partial",
            canonical_form(value.func),
            canonical_form(value.args),
            canonical_form(value.keywords),
        ]
    if isinstance(value, random.Random):
        return ["rng", canonical_form(value.getstate())]
    if isinstance(value, type) or inspect.isroutine(value):
        return ["callable", _qualified_name(value)]
    if dataclasses.is_dataclass(value):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return ["obj", _qualified_name(type(value)), canonical_form(fields)]
    state = getattr(value, "__dict__", None)
    if state is not None:
        return ["obj", _qualified_name(type(value)), canonical_form(state)]
    raise TypeError(
        f"cannot derive a stable digest for {type(value).__name__!r}: "
        "no dataclass fields, no instance __dict__, and no canonical rule"
    )


def stable_digest(value: object) -> str:
    """SHA-256 hex digest of :func:`canonical_form`\\ ``(value)``."""
    blob = json.dumps(canonical_form(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
