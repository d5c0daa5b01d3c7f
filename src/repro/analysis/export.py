"""Trace serialisation: save runs as JSON, reload them for analysis.

Long parameter sweeps are cheaper to analyse offline: run once, save the
trace, and run every checker/metric later (all of
:mod:`repro.analysis` operates on the reloaded object identically).
The format is self-contained — blocks, transactions, participation
records, decisions, and metadata all round-trip exactly.  Metadata is
written in the repository's one storage form,
:func:`~repro.engine.spec.json_form`, so a ``meta`` value reads back
type for type, and a value with no such form is refused at save time.

Format version 2 drops each round's derived ``honest`` set
(``O_r \\ B_r``); the loader reads versions 1 and 2 alike.  It refuses a
file the checkers would crash on, naming the bad record: blocks that do
not form a tree, rounds not numbered ``0, 1, 2, …``, a pid outside
``range(n)``, or a decision whose tip is not in the tree.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.chain.block import Block
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree, MissingParentError
from repro.engine.spec import from_json_form, json_form
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace

FORMAT_VERSION = 2


def trace_to_dict(trace: Trace) -> dict:
    """A JSON-safe dictionary capturing the whole trace."""
    return {
        "version": FORMAT_VERSION,
        "n": trace.n,
        "meta": json_form(trace.meta),
        "rounds": [
            {
                "round": rec.round,
                "awake": sorted(rec.awake),
                "byzantine": sorted(rec.byzantine),
                "asynchronous": rec.asynchronous,
                "votes_sent": rec.votes_sent,
                "proposes_sent": rec.proposes_sent,
                "other_sent": rec.other_sent,
            }
            for rec in trace.rounds
        ],
        "decisions": [
            {"pid": d.pid, "round": d.round, "view": d.view, "tip": d.tip}
            for d in trace.decisions
        ],
        # Insertion order, which lists every parent before its children.
        "blocks": [
            {
                "parent": block.parent,
                "proposer": block.proposer,
                "view": block.view,
                "salt": block.salt,
                "payload": [
                    {
                        "sender": tx.sender,
                        "nonce": tx.nonce,
                        "payload": tx.payload.hex(),
                        "checksum": tx.checksum,
                    }
                    for tx in block.payload
                ],
            }
            for block in trace.tree.blocks()
        ],
    }


def trace_from_dict(data: dict) -> Trace:
    """Rebuild a :class:`Trace` from :func:`trace_to_dict` output."""
    if data.get("version") not in (1, 2):
        raise ValueError(f"unsupported trace format version: {data.get('version')!r}")
    try:
        tree = BlockTree(
            Block(
                parent=raw["parent"],
                proposer=raw["proposer"],
                view=raw["view"],
                salt=raw["salt"],
                payload=tuple(
                    Transaction(
                        sender=tx["sender"],
                        nonce=tx["nonce"],
                        payload=bytes.fromhex(tx["payload"]),
                        checksum=tx["checksum"],
                    )
                    for tx in raw["payload"]
                ),
            )
            for raw in data["blocks"]
        )
    except MissingParentError as exc:
        raise ValueError(f"trace blocks do not form a tree, parents first: {exc}") from None

    n = data["n"]
    everyone = frozenset(range(n))

    def pids(values, where: str) -> frozenset[int]:
        found = frozenset(values)
        if not found <= everyone:
            strays = sorted(found - everyone, key=repr)
            raise ValueError(f"{where} names pids {strays} outside range({n})")
        return found

    trace = Trace(n=n, tree=tree, meta=from_json_form(data["meta"]))
    for index, rec in enumerate(data["rounds"]):
        where = f"round record {index}"
        if rec["round"] != index:
            raise ValueError(f"{where} is round {rec['round']!r}: rounds must run 0, 1, 2, ...")
        trace.rounds.append(
            RoundRecord(
                round=index,
                awake=pids(rec["awake"], where),
                byzantine=pids(rec["byzantine"], where),
                asynchronous=rec["asynchronous"],
                votes_sent=rec["votes_sent"],
                proposes_sent=rec["proposes_sent"],
                other_sent=rec["other_sent"],
            )
        )
    for index, d in enumerate(data["decisions"]):
        where = f"decision {index} (pid {d['pid']!r}, round {d['round']!r})"
        pids([d["pid"]], where)
        if d["tip"] not in tree:
            raise ValueError(f"{where} names tip {d['tip']!r}, which is not in the block tree")
        trace.decisions.append(
            DecisionEvent(pid=d["pid"], round=d["round"], view=d["view"], tip=d["tip"])
        )
    return trace


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write the trace to ``path`` as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: str | Path) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))
