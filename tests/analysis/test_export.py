"""Trace serialisation round-trips."""

from fractions import Fraction

import pytest

from repro.analysis.checkers import check_safety
from repro.analysis.export import load_trace, save_trace, trace_from_dict, trace_to_dict
from repro.analysis.metrics import decided_depth_timeline
from repro.chain.block import Block, genesis_block
from repro.chain.transactions import Transaction
from repro.chain.tree import BlockTree
from repro.engine.backend import run_spec
from repro.engine.spec import RunSpec
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace
from repro.workloads import split_vote_attack_scenario


def make_trace():
    txs = [Transaction.create(1, i, b"x") for i in range(3)]
    return run_spec(
        RunSpec(n=6, rounds=14, protocol="resilient", eta=2, transactions={3: txs})
    ).trace


def test_round_trip_preserves_everything():
    original = make_trace()
    rebuilt = trace_from_dict(trace_to_dict(original))

    assert rebuilt.n == original.n
    assert rebuilt.meta == original.meta
    assert rebuilt.decisions == original.decisions
    assert rebuilt.rounds == original.rounds
    # Block identity is content-derived, so the trees must agree exactly.
    for tip in original.tree.tips():
        assert tip in rebuilt.tree
        assert rebuilt.tree.path(tip) == original.tree.path(tip)
        assert rebuilt.tree.payload_ids(tip) == original.tree.payload_ids(tip)


def test_checkers_work_on_reloaded_traces(tmp_path):
    original = make_trace()
    path = tmp_path / "trace.json"
    save_trace(original, path)
    rebuilt = load_trace(path)
    assert check_safety(rebuilt).ok == check_safety(original).ok
    assert decided_depth_timeline(rebuilt) == decided_depth_timeline(original)


def test_unsafe_trace_round_trips_conflicts(tmp_path):
    original = run_spec(split_vote_attack_scenario("mmr", eta=0, pi=1, n=20)).trace
    path = tmp_path / "attack.json"
    save_trace(original, path)
    rebuilt = load_trace(path)
    assert not check_safety(rebuilt).ok
    assert len(check_safety(rebuilt).conflicts) == len(check_safety(original).conflicts)
    # Blocks are written in insertion order, which lists parents first.
    assert [block.block_id for block in rebuilt.tree.blocks()] == [
        block.block_id for block in original.tree.blocks()
    ]


def test_meta_fractions_round_trip():
    original = make_trace()
    original.meta["beta"] = Fraction(1, 3)
    original.meta["window"] = (9, 2)
    original.meta["tags"] = ["a", "b"]
    original.meta["cfg"] = {"x": 1, "nested": [(1, Fraction(2, 3)), {"y": None}]}
    original.meta["seen"] = {frozenset({(1, 2)}), frozenset()}
    rebuilt = trace_from_dict(trace_to_dict(original))
    assert rebuilt.meta["beta"] == Fraction(1, 3)
    assert rebuilt.meta["window"] == (9, 2)
    assert rebuilt.meta["tags"] == ["a", "b"]
    assert rebuilt.meta["cfg"] == {"x": 1, "nested": [(1, Fraction(2, 3)), {"y": None}]}
    assert type(rebuilt.meta["seen"]) is set
    assert rebuilt.meta == original.meta


@pytest.mark.parametrize("awkward", [{"__tuple__": [1]}, {"__fraction__": 1}, {1: "x"}])
def test_meta_dicts_with_tag_or_non_str_keys_round_trip(awkward):
    original = make_trace()
    original.meta["cfg"] = {"ok": awkward}
    rebuilt = trace_from_dict(trace_to_dict(original))
    assert rebuilt.meta["cfg"] == {"ok": awkward}


def test_meta_without_a_json_form_is_refused_at_save():
    original = make_trace()
    original.meta["backend"] = object()
    with pytest.raises(TypeError, match="no JSON form"):
        trace_to_dict(original)


def test_written_rounds_omit_the_derived_honest_set():
    data = trace_to_dict(make_trace())
    assert data["version"] == 2
    assert all("honest" not in rec for rec in data["rounds"])


def test_version_check():
    original = make_trace()
    data = trace_to_dict(original)
    data["version"] = 99
    with pytest.raises(ValueError, match="version"):
        trace_from_dict(data)


def test_corrupt_block_set_rejected():
    original = make_trace()
    data = trace_to_dict(original)
    # Orphan every block by pointing the roots at a missing parent.
    for block in data["blocks"]:
        block["parent"] = "ff" * 32
    with pytest.raises(ValueError, match="tree"):
        trace_from_dict(data)


# ----------------------------------------------------------------------
# Files the checkers would crash on are refused at load
# ----------------------------------------------------------------------
def test_a_corrupt_meta_payload_is_a_value_error(tmp_path):
    data = trace_to_dict(make_trace())
    data["meta"]["beta"] = {"__fraction__": [1, 0]}
    with pytest.raises(ValueError, match="__fraction__"):
        trace_from_dict(data)


def test_a_decision_tip_outside_the_tree_is_refused():
    data = trace_to_dict(make_trace())
    data["decisions"][3]["tip"] = "ab" * 32
    with pytest.raises(ValueError, match=r"decision 3 .*not in the block tree"):
        trace_from_dict(data)


def test_rounds_must_run_contiguously_from_zero():
    data = trace_to_dict(make_trace())
    del data["rounds"][4]
    with pytest.raises(ValueError, match="round record 4 is round 5"):
        trace_from_dict(data)


@pytest.mark.parametrize(
    "corrupt, where",
    [
        (lambda data: data["rounds"][2]["awake"].append(6), "round record 2"),
        (lambda data: data["rounds"][2]["byzantine"].append(-1), "round record 2"),
        (lambda data: data["decisions"][0].update(pid=6), "decision 0"),
    ],
    ids=["awake", "byzantine", "decision"],
)
def test_a_pid_outside_range_n_is_refused(corrupt, where):
    data = trace_to_dict(make_trace())
    corrupt(data)
    with pytest.raises(ValueError, match=rf"{where}.*outside range\(6\)"):
        trace_from_dict(data)


# ----------------------------------------------------------------------
# Compatibility: a version-1 file still loads
# ----------------------------------------------------------------------
_ROOT = "c83a4aa32839e62ed0fa95286c0377279bd083bcca465ced06a1a785080e990e"
_RIGHT = "1041719c97f1158bf98d4fb81e85a8863ba28736627dbc3cade4e5b8707d940c"
_RIGHT_TIP = "ac859c21c52ebf28c5d9f902f9c617e5f05b6f9e07b4eec5e561595603008039"
_CHECKSUM = "53168e01e69909bee3e83aaeeac55448a1962220390b603ee7472941dd1979ad"


def _round_v1(r, awake, honest, byzantine, asynchronous):
    return {
        "round": r,
        "awake": awake,
        "honest": honest,
        "byzantine": byzantine,
        "asynchronous": asynchronous,
        "votes_sent": r,
        "proposes_sent": 1,
        "other_sent": 0,
    }


#: What the version-1 writer produced for :func:`_forked_trace`: each
#: round's derived ``honest`` set, blocks walked tip by tip in depth
#: order (not insertion order), and tuple/fraction meta tagged.
V1_TRACE = {
    "version": 1,
    "n": 3,
    "meta": {
        "beta": {"__fraction__": [1, 3]},
        "window": {"__tuple__": [2, 5]},
        "protocol": "resilient",
    },
    "rounds": [
        _round_v1(0, [0, 1, 2], [0, 1, 2], [], False),
        _round_v1(1, [0, 2], [0], [2], True),
        _round_v1(2, [0, 1, 2], [0, 1], [2], False),
    ],
    "decisions": [
        {"pid": 0, "round": 1, "view": 1, "tip": _ROOT},
        {"pid": 1, "round": 2, "view": 2, "tip": _RIGHT_TIP},
    ],
    "blocks": [
        {"parent": None, "proposer": -1, "view": 0, "salt": 0, "payload": []},
        {"parent": _ROOT, "proposer": 1, "view": 1, "salt": 0, "payload": []},
        {
            "parent": _ROOT,
            "proposer": 2,
            "view": 1,
            "salt": 1,
            "payload": [{"sender": 1, "nonce": 0, "payload": "00ff", "checksum": _CHECKSUM}],
        },
        {"parent": _RIGHT, "proposer": 0, "view": 2, "salt": 0, "payload": []},
    ],
}


def _forked_trace() -> Trace:
    root = genesis_block()
    tx = Transaction.create(1, 0, b"\x00\xff")
    right = Block(parent=root.block_id, proposer=2, view=1, payload=(tx,), salt=1)
    right_tip = Block(parent=right.block_id, proposer=0, view=2)
    left = Block(parent=root.block_id, proposer=1, view=1)
    meta = {"beta": Fraction(1, 3), "window": (2, 5), "protocol": "resilient"}
    trace = Trace(n=3, tree=BlockTree([root, right, right_tip, left]), meta=meta)
    for r, (awake, byz) in enumerate([({0, 1, 2}, set()), ({0, 2}, {2}), ({0, 1, 2}, {2})]):
        trace.rounds.append(
            RoundRecord(
                round=r,
                awake=frozenset(awake),
                byzantine=frozenset(byz),
                asynchronous=r == 1,
                votes_sent=r,
                proposes_sent=1,
                other_sent=0,
            )
        )
    trace.decisions.append(DecisionEvent(pid=0, round=1, view=1, tip=root.block_id))
    trace.decisions.append(DecisionEvent(pid=1, round=2, view=2, tip=right_tip.block_id))
    return trace


def test_a_version_1_trace_loads_equal():
    expected = _forked_trace()
    assert (_ROOT, _RIGHT, _RIGHT_TIP) == tuple(b.block_id for b in expected.tree.blocks())[:3]
    loaded = trace_from_dict(V1_TRACE)
    assert loaded.n == expected.n
    assert loaded.meta == expected.meta and type(loaded.meta["window"]) is tuple
    assert loaded.rounds == expected.rounds
    assert [rec.honest for rec in loaded.rounds] == [{0, 1, 2}, {0}, {0, 1}]
    assert loaded.decisions == expected.decisions
    assert {b.block_id: b for b in loaded.tree.blocks()} == {
        b.block_id: b for b in expected.tree.blocks()
    }
    # Written again, it is the version-2 form of the same trace.
    assert trace_to_dict(trace_from_dict(trace_to_dict(loaded))) == trace_to_dict(loaded)
