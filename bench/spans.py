"""Outside-in layer tracing: shims around the program's functions.

Nothing under ``src/`` knows it is traced.  :func:`install` replaces
functions and methods of the ``repro`` modules with shims that keep a
span stack and aggregate, in memory, calls and *self time* (duration
minus the time covered by child spans) per ``(span, parent span,
round)``.  Whole spans are kept only at round and node-phase
granularity.  ``mempool_add`` / ``make_block`` / decisions are tagged
with the transaction nonce (unique per workload), so one transaction's
submitted → admitted → first proposed → decided share an identifier.

A traced process holds one :class:`Tracer`; worker processes install
theirs from ``sitecustomize.py`` and dump it at exit, and
:func:`merge` folds the dumps into the parent's.

Spans never cross an ``await``: every shimmed function is synchronous,
so the stack discipline holds under asyncio.
"""

from __future__ import annotations

import importlib
import json
import selectors
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

#: ``drive_node`` starts a round's receive phase this far into it.
RECEIVE_FRACTION = 0.9


class Tracer:
    """Span stack plus the in-memory aggregates of one process."""

    def __init__(self, clock_ns=time.perf_counter_ns) -> None:
        self.clock_ns = clock_ns
        self.stack: list[list] = []
        #: (span, parent span, round) -> [calls, self_ns]
        self.agg: dict[tuple[str, str, int], list[int]] = {}
        #: (span, round, tag, start_ns, end_ns) of round / node-phase spans.
        self.whole: list[tuple] = []
        self.round = -1
        self.counters: dict[str, int] = defaultdict(int)
        #: nonce -> round, first time any mempool admitted / any block carried it.
        self.admitted: dict[int, int] = {}
        self.proposed: dict[int, int] = {}
        #: decided tip -> first round any local process decided it.
        self.decided_tips: dict[str, int] = {}
        self.lateness_ms: list[float] = []
        #: Time inside ``selector.select`` and from the first to the last select.
        self.idle_ns = 0
        self.loop_first_ns: int | None = None
        self.loop_last_ns = 0
        self.round_clock = None
        #: Objects whose public counters are read when the sample ends.
        self.pipelines: list = []
        self.wheels: list = []

    # -- the shim ------------------------------------------------------
    def span(self, name: str, fn, before=None, after=None, keep=None):
        """``fn`` wrapped in a span called ``name``.

        ``before(*args)`` runs first (sets the round, records lateness);
        ``after(args, result)`` runs last (tags transactions);
        ``keep(*args)`` returns the tag under which the whole span is
        kept, for round and node-phase spans only.
        """
        tracer, stack, agg, now = self, self.stack, self.agg, self.clock_ns

        def shim(*args, **kwargs):
            if before is not None:
                before(*args)
            frame = [name, 0]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    parent_name = parent[0]
                else:
                    parent_name = ""
                key = (name, parent_name, tracer.round)
                record = agg.get(key)
                if record is None:
                    agg[key] = [1, elapsed - frame[1]]
                else:
                    record[0] += 1
                    record[1] += elapsed - frame[1]
                if keep is not None:
                    tracer.whole.append((name, tracer.round, keep(*args), start, start + elapsed))
            if after is not None:
                after(args, result)
            return result

        shim.__wrapped__ = fn
        return shim

    # -- results -------------------------------------------------------
    def dump(self) -> dict:
        """JSON-safe state, for worker → parent hand-over."""
        return {
            "agg": [[*key, *value] for key, value in self.agg.items()],
            "whole": [list(row) for row in self.whole],
            "counters": dict(self.counters),
            "admitted": list(self.admitted.items()),
            "proposed": list(self.proposed.items()),
            "decided_tips": list(self.decided_tips.items()),
            "lateness_ms": self.lateness_ms,
            "idle_ns": self.idle_ns,
            "loop_ns": self.loop_ns,
            "pipeline_stats": [dict(p.stats) for p in self.pipelines],
            "wheel_timers": sum(w.timers_created for w in self.wheels),
        }

    @property
    def loop_ns(self) -> int:
        return 0 if self.loop_first_ns is None else self.loop_last_ns - self.loop_first_ns


def merge(dumps: list[dict]) -> dict:
    """Fold per-process dumps: times and counts add, first rounds take the minimum."""
    agg: dict[tuple, list[int]] = {}
    merged = {
        "whole": [],
        "counters": defaultdict(int),
        "admitted": {},
        "proposed": {},
        "decided_tips": {},
        "lateness_ms": [],
        "idle_ns": 0,
        "loop_ns": 0,
        "pipeline_stats": defaultdict(int),
        "wheel_timers": 0,
    }
    for dump in dumps:
        for name, parent, round_number, calls, self_ns in dump["agg"]:
            record = agg.setdefault((name, parent, round_number), [0, 0])
            record[0] += calls
            record[1] += self_ns
        merged["whole"].extend(dump["whole"])
        for key, value in dump["counters"].items():
            merged["counters"][key] += value
        for field in ("admitted", "proposed", "decided_tips"):
            target = merged[field]
            for key, round_number in dump[field]:
                if round_number < target.get(key, sys.maxsize):
                    target[key] = round_number
        merged["lateness_ms"].extend(dump["lateness_ms"])
        for field in ("idle_ns", "loop_ns", "wheel_timers"):
            merged[field] += dump[field]
        for stats in dump["pipeline_stats"]:
            for key, value in stats.items():
                merged["pipeline_stats"][key] += value
    merged["agg"] = agg
    return merged


def span_totals(agg: dict[tuple, list[int]]) -> dict[str, tuple[int, float]]:
    """span -> (calls, self milliseconds) over a merged aggregate."""
    out: dict[str, list] = {}
    for (name, _parent, _round), (calls, self_ns) in agg.items():
        entry = out.setdefault(name, [0, 0])
        entry[0] += calls
        entry[1] += self_ns
    return {name: (calls, self_ns / 1e6) for name, (calls, self_ns) in out.items()}


# ----------------------------------------------------------------------
# The shim table: span name, module, class (or None), attribute
# ----------------------------------------------------------------------
SHIMS: tuple[tuple[str, str, str | None, str], ...] = (
    ("crypto.sign", "repro.crypto.signatures", "KeyRegistry", "sign"),
    ("crypto.verify", "repro.crypto.signatures", "KeyRegistry", "verify"),
    ("crypto.verify_batch", "repro.crypto.signatures", "KeyRegistry", "verify_batch"),
    ("crypto.hash_fields", "repro.crypto.hashing", None, "hash_fields"),
    ("chain.tree_add", "repro.chain.tree", "BlockTree", "add"),
    ("chain.tree_add", "repro.chain.shared", "ChainView", "add"),
    ("chain.buffer_offer", "repro.chain.store", "BlockBuffer", "offer"),
    ("chain.tally_set_votes", "repro.chain.tally", "PrefixTally", "set_votes"),
    ("chain.tally_grade", "repro.chain.tally", "PrefixTally", "grade"),
    ("chain.mempool_add", "repro.chain.transactions", "Mempool", "add"),
    ("chain.mempool_take", "repro.chain.transactions", "Mempool", "take"),
    ("chain.mempool_mark_included", "repro.chain.transactions", "Mempool", "mark_included"),
    ("core.votes_record", "repro.core.expiration", "LatestVoteStore", "record_table"),
    ("core.votes_latest", "repro.core.expiration", "LatestVoteStore", "latest"),
    ("core.votes_prune", "repro.core.expiration", "LatestVoteStore", "prune"),
    ("protocols.send", "repro.protocols.tob_base", "SleepyTOBProcess", "send"),
    ("protocols.receive_batch", "repro.protocols.tob_base", "SleepyTOBProcess", "receive_batch"),
    ("protocols.select_proposal", "repro.protocols.tob_base", "SleepyTOBProcess", "_select_proposal"),
    ("protocols.make_block", "repro.protocols.tob_base", "SleepyTOBProcess", "_make_block"),
    ("engine.ingest_batch", "repro.engine.ingest", "IngestPipeline", "batch"),
    ("engine.bus_publish", "repro.engine.bus", "MessageBus", "publish"),
    ("engine.bus_deliver", "repro.engine.bus", "MessageBus", "deliverable"),
    ("engine.bus_deliver", "repro.engine.bus", "MessageBus", "deliver_all"),
    ("engine.bus_deliver", "repro.engine.bus", "MessageBus", "deliver_chosen"),
    ("engine.assemble_trace", "repro.engine.deploy_backend", "DeploymentBackend", "_assemble_trace"),
    ("sleepy.round", "repro.sleepy.simulator", "Simulation", "run"),
    ("sleepy.adversary", "repro.sleepy.adversary", "RandomAdversary", "send"),
    ("sleepy.adversary", "repro.sleepy.adversary", "RandomAdversary", "deliver"),
    ("net.gossip_ingest", "repro.net.gossip", "GossipNode", "_ingest"),
    ("net.gossip_publish", "repro.net.gossip", "GossipNode", "publish"),
    ("net.transport_send", "repro.net.transport", "SimTransport", "send"),
    ("net.transport_send", "repro.net.socket_transport", "SocketTransport", "send"),
    ("net.wheel_fire", "repro.net.transport", "DeliveryWheel", "_fire"),
    ("net.encode_batch", "repro.net.socket_transport", None, "encode_batch"),
    ("net.decode_batch", "repro.net.socket_transport", None, "decode_batch"),
    ("net.payload_encode", "repro.net.socket_transport", "EncodedPayloadCache", "encode"),
    ("net.socket_flush", "repro.net.socket_transport", "SocketTransport", "_flush_batch"),
    ("runtime.send_phase", "repro.runtime.node", "DeployedNode", "run_send_phase"),
    ("runtime.receive_phase", "repro.runtime.node", "DeployedNode", "run_receive_phase"),
    ("workloads.arrivals", "repro.workloads.transactions", "SubmissionRateWorkload", "get"),
)

#: Every span name, in table order (the per-layer metric list is built from it).
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in SHIMS))


def _hooks(tracer: Tracer) -> dict[str, dict]:
    """Per-span ``before`` / ``after`` / ``keep`` callbacks."""

    def sim_round(simulation, _num_rounds):
        tracer.round = simulation.trace.horizon

    def arrivals_due(_traffic, round_number, *_default):
        # Arrivals are fetched before the round's first span opens.
        tracer.round = round_number

    def phase(fraction):
        def before(_node, round_number):
            tracer.round = round_number
            clock = tracer.round_clock
            if clock is not None:
                due = (round_number + fraction) * clock.round_s
                tracer.lateness_ms.append((clock.elapsed() - due) * 1e3)

        return before

    def admitted(args, added):
        if added:
            tracer.admitted.setdefault(args[1].nonce, tracer.round)

    def proposed(_args, block):
        for tx in block.payload:
            tracer.proposed.setdefault(tx.nonce, tracer.round)

    def sent(args, _messages):
        # A send phase is where Algorithm 1 decides: note the tip each
        # process has delivered by the end of it, first round wins.
        tip = args[0].delivered_tip
        if tip is not None:
            tracer.decided_tips.setdefault(tip, args[1])

    return {
        "workloads.arrivals": {"before": arrivals_due},
        "sleepy.round": {"before": sim_round, "keep": lambda *_: -1},
        "runtime.send_phase": {"before": phase(0.0), "keep": lambda node, _r: node.pid},
        "runtime.receive_phase": {
            "before": phase(RECEIVE_FRACTION),
            "keep": lambda node, _r: node.pid,
        },
        "chain.mempool_add": {"after": admitted},
        "protocols.make_block": {"after": proposed},
        "protocols.send": {"after": sent},
    }


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``.

    ``from x import f`` copies the binding, so patching ``x.f`` alone
    would miss every importer.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`SHIMS`, the counters and the selector."""
    hooks = _hooks(tracer)
    for name, module_name, class_name, attr in SHIMS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = getattr(owner, attr)
        shim = tracer.span(name, original, **hooks.get(name, {}))
        if class_name:
            setattr(owner, attr, shim)
        else:
            _rebind(original, shim)
    _install_counters(tracer)


def _install_counters(tracer: Tracer) -> None:
    from repro.chain.transactions import Transaction  # noqa: PLC0415
    from repro.engine.ingest import IngestPipeline  # noqa: PLC0415
    from repro.net.transport import DeliveryWheel  # noqa: PLC0415
    from repro.runtime.clock import RoundClock  # noqa: PLC0415

    counters = tracer.counters
    tx_id = Transaction.tx_id.fget

    def counted_tx_id(self):
        counters["chain.tx_id.calls"] += 1
        return tx_id(self)

    Transaction.tx_id = property(counted_tx_id)

    def remember(cls, into: list) -> None:
        init = cls.__init__

        def remembering_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            into.append(self)

        cls.__init__ = remembering_init

    remember(IngestPipeline, tracer.pipelines)
    remember(DeliveryWheel, tracer.wheels)

    for attr in ("start", "start_at"):
        anchor = getattr(RoundClock, attr)

        def anchoring(self, *args, _anchor=anchor):
            tracer.round_clock = self
            return _anchor(self, *args)

        setattr(RoundClock, attr, anchoring)

    # Waiting time of every event loop of this process: the default
    # selector's ``select`` is where a loop sleeps.
    select = selectors.DefaultSelector.select
    now = tracer.clock_ns

    def timed_select(self, timeout=None):
        start = now()
        try:
            return select(self, timeout)
        finally:
            end = now()
            tracer.idle_ns += end - start
            if tracer.loop_first_ns is None:
                tracer.loop_first_ns = start
            tracer.loop_last_ns = end

    selectors.DefaultSelector.select = timed_select


# ----------------------------------------------------------------------
# Per-layer metrics and the trace file
# ----------------------------------------------------------------------
def _p(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Counters and ratios reported beside the spans, in print order.
COUNTER_NAMES: tuple[str, ...] = (
    "chain.tx_id.calls",
    "chain.blocks_per_tree",
    "engine.ingest.crypto_verifications",
    "engine.ingest.identity_hit_ratio",
    "engine.ingest.rejected",
    "engine.messages_per_decided_tx",
    "net.gossip.delivered",
    "net.gossip.duplicate_ratio",
    "net.gossip.stale_dropped",
    "net.wheel.timers_per_round",
    "net.wire.frames_per_decided_tx",
    "net.wire.bytes_per_decided_tx",
    "net.wire.frames_per_batch",
    "net.wire.payload_reuse_ratio",
    "net.wire.misrouted",
    "runtime.phase_lateness_p50_ms",
    "runtime.phase_lateness_p99_ms",
    "runtime.loop_idle_share",
    "tx.wait_for_proposal_rounds_p50",
    "tx.proposal_to_decision_rounds_p50",
    "tx.decision_gap_max_rounds",
    "trace.overhead_ratio",
    "trace.accounted_share",
    "host.stall_max_ms",
    "host.stalls_over_delta",
)


def budget_by_layer(agg: dict[tuple, list[int]]) -> dict[str, dict[str, float]]:
    """Raw self milliseconds per layer, twice.

    ``self``: each span's self time under its own layer.  ``caused``:
    ``crypto.hash_fields`` charged to the layer of the span that called
    it instead — hashing is half of some runs, and who asks for it is
    the question a budget has to answer.
    """
    layers = dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES)
    own = dict.fromkeys(layers, 0.0)
    caused = dict.fromkeys(layers, 0.0)
    for (name, parent, _round), (_calls, self_ns) in agg.items():
        own[name.split(".")[0]] += self_ns / 1e6
        charged = parent if name == "crypto.hash_fields" and parent else name
        caused[charged.split(".")[0]] += self_ns / 1e6
    return {"self": own, "caused": caused}


def layer_metrics(
    merged: dict,
    measured,
    workload,
    decided: int,
    lifecycles,
    decision_gap_max: int,
    overhead_ratio: float,
) -> dict:
    """Every per-layer metric of one traced sample, by name.

    ``measured`` is the sample's :class:`sample.Measured`;
    ``overhead_ratio`` is its CPU per round over the untraced samples'
    median.  ``trace.accounted_share`` is the self time of all spans
    over the time there was to account for: the busy time of every
    event loop (first to last ``select``, minus the time inside it),
    or the CPU time of the backend call where no loop ran.
    """
    totals = span_totals(merged["agg"])
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_ms = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        # At reference speed, like cpu_ms_per_round; the trace file keeps raw ns.
        out[f"{name}.self_ms"] = self_ms * measured.speed_factor

    extras = measured.extras
    ingest = merged["pipeline_stats"]
    gossip = extras.get("gossip", {})
    wire = extras["transport"] if isinstance(extras.get("transport"), dict) else {}
    if "nodes" in extras:
        trees = [len(node.process.tree) for node in extras["nodes"].values()]
        blocks_per_tree = statistics.mean(trees)
    else:
        blocks_per_tree = len(measured.trace.tree)
    waits = [
        life.proposed - life.arrival for life in lifecycles.values() if life.proposed is not None
    ]
    settles = [
        life.decided - life.proposed
        for life in lifecycles.values()
        if life.proposed is not None and life.decided is not None
    ]
    accounted_s = sum(self_ms for _calls, self_ms in totals.values()) / 1e3
    busy_s = (merged["loop_ns"] - merged["idle_ns"]) / 1e9 or measured.cpu_s
    out.update(
        {
            "chain.tx_id.calls": merged["counters"].get("chain.tx_id.calls", 0),
            "chain.blocks_per_tree": blocks_per_tree,
            "engine.ingest.crypto_verifications": ingest.get("crypto_verifications", 0),
            "engine.ingest.identity_hit_ratio": _ratio(
                ingest.get("identity_hits", 0), ingest.get("messages_ingested", 0)
            ),
            "engine.ingest.rejected": ingest.get("rejected", 0),
            "engine.messages_per_decided_tx": _ratio(measured.messages_sent, decided),
            "net.gossip.delivered": gossip.get("delivered", 0),
            "net.gossip.duplicate_ratio": _ratio(
                gossip.get("duplicates", 0),
                gossip.get("duplicates", 0) + gossip.get("delivered", 0),
            ),
            "net.gossip.stale_dropped": gossip.get("stale_dropped", 0),
            "net.wheel.timers_per_round": _ratio(merged["wheel_timers"], workload.rounds),
            "net.wire.frames_per_decided_tx": _ratio(wire.get("frames_sent", 0), decided),
            "net.wire.bytes_per_decided_tx": _ratio(wire.get("bytes_sent", 0), decided),
            "net.wire.frames_per_batch": _ratio(
                wire.get("frames_sent", 0), wire.get("batches_sent", 0)
            ),
            "net.wire.payload_reuse_ratio": _ratio(
                wire.get("payload_reuses", 0),
                wire.get("payload_reuses", 0) + wire.get("payload_encodes", 0),
            ),
            "net.wire.misrouted": wire.get("misrouted", 0),
            "runtime.phase_lateness_p50_ms": _p(merged["lateness_ms"], 0.50),
            "runtime.phase_lateness_p99_ms": _p(merged["lateness_ms"], 0.99),
            "runtime.loop_idle_share": _ratio(merged["idle_ns"], merged["loop_ns"]),
            "tx.wait_for_proposal_rounds_p50": statistics.median(waits) if waits else 0.0,
            "tx.proposal_to_decision_rounds_p50": statistics.median(settles) if settles else 0.0,
            "tx.decision_gap_max_rounds": decision_gap_max,
            "trace.overhead_ratio": overhead_ratio,
            "trace.accounted_share": _ratio(accounted_s, busy_s),
            "host.stall_max_ms": measured.stall_max_s * 1e3,
            "host.stalls_over_delta": measured.stalls_over_delta,
        }
    )
    return out


def write_trace(path: Path, merged: dict, tree, arrivals_by_nonce: dict) -> None:
    """One JSON object per line: aggregates, whole spans, then transaction lifecycles."""
    decided_by_nonce: dict[int, int] = {}
    walked: set[str] = set()
    for tip, round_number in sorted(merged["decided_tips"].items(), key=lambda kv: kv[1]):
        node = tip
        while node is not None and node not in walked and node in tree:
            walked.add(node)
            block = tree.get(node)
            for tx in block.payload:
                decided_by_nonce.setdefault(tx.nonce, round_number)
            node = block.parent
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for (name, parent, round_number), (calls, self_ns) in sorted(merged["agg"].items()):
            row = {
                "kind": "agg",
                "span": name,
                "parent": parent,
                "round": round_number,
                "calls": calls,
                "self_ns": self_ns,
            }
            out.write(json.dumps(row) + "\n")
        for name, round_number, tag, start, end in merged["whole"]:
            row = {
                "kind": "span",
                "span": name,
                "round": round_number,
                "pid": tag,
                "start_ns": start,
                "end_ns": end,
            }
            out.write(json.dumps(row) + "\n")
        for nonce, due in sorted(arrivals_by_nonce.items()):
            row = {
                "kind": "tx",
                "tx": nonce,
                "due": due,
                "admitted": merged["admitted"].get(nonce),
                "proposed": merged["proposed"].get(nonce),
                "decided": decided_by_nonce.get(nonce),
            }
            out.write(json.dumps(row) + "\n")
