"""The substrate-independent description of one protocol run.

A :class:`RunSpec` says *what* to execute — protocol, participation
schedule, adversary, network conditions, transaction workload — without
saying *where*.  Backends (:mod:`repro.engine.backend`) say where:
the deterministic round simulator or the wall-clock asyncio deployment.

:func:`~repro.engine.backend.run_spec` runs a :class:`RunSpec` on any
backend, so every scenario, bench, and example config runs on either
substrate unchanged.

This module also defines the two JSON forms a value can take:

* The **digest form**, :func:`canonical_form`, is one-way.  It
  normalises an arbitrary model object (specs, schedules, adversaries,
  fractions, seeded RNGs, …) into a JSON-serialisable structure that
  depends only on *content* — never on memory addresses, hash seeds, or
  iteration order — and :func:`stable_digest` hashes it.  The sweep
  checkpoint journal (:mod:`repro.engine.sweep`) keys each grid cell by
  this digest, so a changed parameter, seed, or backend configuration
  invalidates stale journal rows instead of silently reusing them.
* The **storage form**, :func:`json_form` / :func:`from_json_form`, is
  reversible and covers plain data only.  Everything the repository
  writes down goes through it: a trace file's ``meta``
  (:mod:`repro.analysis.export`), the sweep journal's rows, and the
  CLI's ``--save`` / ``--dump`` files.  It reads back type-exactly.
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

    Every field is part of the run's identity (:meth:`digest`), so none
    switches recording alone: every process keeps its GA reads
    (:attr:`~repro.protocols.tob_base.SleepyTOBProcess.ga_reads`).

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


# ----------------------------------------------------------------------
# The storage form
# ----------------------------------------------------------------------
def _is_tag(key: object) -> bool:
    return isinstance(key, str) and key.startswith("__") and key.endswith("__")


def json_form(value: object) -> object:
    """``value`` as JSON that :func:`from_json_form` reads back type for type.

    ``None``, bools, ints, floats, strings, lists and str-keyed dicts are
    written as themselves.  Fractions, bytes, sets, frozensets, tuples
    and every other dict — a str-keyed one whose one key looks like a
    tag included — become one-key tagged objects such as ``{"__tuple__":
    [...]}``, set members sorted by their encoding.  Types match exactly
    (a subclass would not read back as itself), and anything else raises
    :class:`TypeError` here, at write time.
    """
    kind = type(value)
    if value is None or kind in (bool, int, float, str):
        return value
    if kind is list:
        return [json_form(v) for v in value]
    if kind is dict:
        if all(type(k) is str for k in value) and not (len(value) == 1 and _is_tag(*value)):
            return {k: json_form(v) for k, v in value.items()}
        return {"__dict__": [[json_form(k), json_form(v)] for k, v in value.items()]}
    if kind is tuple:
        return {"__tuple__": [json_form(v) for v in value]}
    if kind is Fraction:
        return {"__fraction__": [value.numerator, value.denominator]}
    if kind is bytes:
        return {"__bytes__": value.hex()}
    if kind in (set, frozenset):
        return {f"__{kind.__name__}__": sorted((json_form(v) for v in value), key=_sort_key)}
    raise TypeError(
        f"{kind.__name__!r} has no JSON form: write plain data (None, bool, int, "
        "float, str, list, dict, tuple, set, frozenset, Fraction, bytes)"
    )


def _members(payload: object) -> list:
    if type(payload) is not list:
        raise ValueError(f"expected a list, got {type(payload).__name__!r}")
    return [from_json_form(v) for v in payload]


def _fraction(payload: object) -> Fraction:
    if type(payload) is not list or [type(x) for x in payload] != [int, int] or not payload[1]:
        raise ValueError(f"expected [numerator, nonzero denominator], got {payload!r}")
    return Fraction(*payload)


def _pairs(payload: object) -> dict:
    pairs = _members(payload)
    if any(type(pair) is not list or len(pair) != 2 for pair in pairs):
        raise ValueError("expected a list of [key, value] pairs")
    return dict(pairs)


_DECODERS = {
    "__fraction__": _fraction,
    "__bytes__": bytes.fromhex,
    "__set__": lambda payload: set(_members(payload)),
    "__frozenset__": lambda payload: frozenset(_members(payload)),
    "__tuple__": lambda payload: tuple(_members(payload)),
    "__dict__": _pairs,
}


def from_json_form(form: object) -> object:
    """Invert :func:`json_form` on a ``json.loads`` result.

    Raises :class:`ValueError` — never anything else — for an unknown
    tag (an old writer's ``__float__`` or ``__repr__`` included) and
    for a malformed tagged payload: wrong arity, a zero denominator,
    bad hex, unhashable set members or dict keys.
    """
    if type(form) is list:
        return [from_json_form(v) for v in form]
    if type(form) is not dict:
        return form
    if len(form) != 1 or not _is_tag(*form):
        return {k: from_json_form(v) for k, v in form.items()}
    ((tag, payload),) = form.items()
    decode = _DECODERS.get(tag)
    if decode is None:
        raise ValueError(f"unknown JSON-form tag {tag!r}")
    try:
        return decode(payload)
    except (TypeError, ValueError) as exc:  # TypeError: non-str hex, unhashable members
        raise ValueError(f"malformed {tag} payload: {exc}") from None
