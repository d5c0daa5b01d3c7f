"""A message's identity is its content key, and only well-typed messages exist.

Three things are pinned here:

* an **oracle**: the deleted ``verification_digest`` — canonical encoding
  plus SHA-256 — lives on below as a reference, and ``content_key``
  equality must agree with it on every pair of messages;
* **well-typedness**: no ``float`` / ``bool`` / subclass can reach a keyed
  field through the constructor or through a hand-built pickle state, so
  the verifier rejects and never raises;
* the **censorship direction**: a junk twin that arrives first can
  neither mark the honest original seen nor leave a verdict under its key.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, genesis_block
from repro.chain.transactions import Transaction
from repro.crypto.hashing import hash_fields
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRFOutput
from repro.engine.bus import MessageBus
from repro.engine.ingest import IngestPipeline
from repro.net.gossip import GossipNetwork, SeenIndex
from repro.sleepy.messages import (
    REJECTED,
    AckMessage,
    Message,
    ProposeMessage,
    VoteMessage,
    make_ack,
    make_propose,
    make_vote,
    verify_message,
)
from tests.net.conftest import NoLinks, StillClock, no_surge

REGISTRY = KeyRegistry(4, run_seed=11)
GENESIS = genesis_block()
BLOCKS = (
    Block(parent=GENESIS.block_id, proposer=1, view=1),
    Block(parent=GENESIS.block_id, proposer=1, view=1, salt=1),
    Block(parent=GENESIS.block_id, proposer=1, view=1, payload=(Transaction.create(2, 0, b"x"),)),
)
TIPS = (None, GENESIS.block_id, BLOCKS[0].block_id)


def reference_digest(message: Message) -> str:
    """The deleted ``verification_digest``, kept as the oracle."""
    return hash_fields(
        "verified", type(message).__name__, message.sender, *message._signed_fields(), message.signature
    )


# ----------------------------------------------------------------------
# The oracle: key equality <=> digest equality
# ----------------------------------------------------------------------
@st.composite
def messages(draw) -> Message:
    """An honest vote / ack / proposal, or one of its forgeries."""
    sender, round_number = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    key = REGISTRY.secret_key(sender)
    kind = draw(st.sampled_from(("vote", "ack", "propose")))
    if kind == "propose":
        honest = make_propose(
            REGISTRY, key, round_number, draw(st.integers(0, 1)), draw(st.sampled_from(BLOCKS))
        )
        forgery = draw(st.sampled_from(("none", "signature", "sender", "proof", "value", "block")))
        changed = {
            "none": {},
            "signature": {"signature": "00" * 32},
            "sender": {"sender": (sender + 1) % 4},
            "proof": {"vrf": VRFOutput(honest.vrf.value_num, "00" * 32)},
            "value": {"vrf": VRFOutput(honest.vrf.value_num ^ 1, honest.vrf.proof)},
            "block": {"block": draw(st.sampled_from(BLOCKS))},
        }[forgery]
        return replace(honest, **changed)
    make = make_vote if kind == "vote" else make_ack
    honest = make(REGISTRY, key, round_number, draw(st.sampled_from(TIPS)))
    forgery = draw(st.sampled_from(("none", "signature", "sender", "tip")))
    changed = {
        "none": {},
        # Same fields, another signature; a signature transplanted onto
        # another sender; an equivocating (or ``None``) tip.
        "signature": {"signature": "00" * 32},
        "sender": {"sender": (sender + 1) % 4},
        "tip": {"tip": draw(st.sampled_from(TIPS))},
    }[forgery]
    return replace(honest, **changed)


@settings(max_examples=300, deadline=None)
@given(messages(), messages())
def test_content_keys_are_equal_exactly_when_the_reference_digests_are(a, b):
    assert (a.content_key == b.content_key) == (reference_digest(a) == reference_digest(b))
    if a.content_key == b.content_key:
        assert hash(a.content_key) == hash(b.content_key)
        assert verify_message(REGISTRY, a) == verify_message(REGISTRY, b)


def test_keys_tell_apart_what_only_the_digest_used_to(registry, genesis):
    key = registry.secret_key(1)
    vote, ack = make_vote(registry, key, 3, None), make_ack(registry, key, 3, None)
    # A vote and an ack over the same fields, even under one signature.
    forged_ack = AckMessage(sender=1, round=3, signature=vote.signature, tip=None)
    assert len({vote.content_key, ack.content_key, forged_ack.content_key}) == 3
    # Proposals differing only in the proof, or only in block content.
    left, right = (Block(parent=genesis.block_id, proposer=1, view=1, salt=s) for s in (0, 1))
    propose = make_propose(registry, key, 2, 1, left)
    other_proof = ProposeMessage(
        sender=1, round=2, signature=propose.signature, view=1, block=left,
        vrf=VRFOutput(propose.vrf.value_num, "00" * 32),
    )  # fmt: skip
    other_block = ProposeMessage(
        sender=1, round=2, signature=propose.signature, view=1, block=right, vrf=propose.vrf
    )
    assert len({propose.content_key, other_proof.content_key, other_block.content_key}) == 3
    # The fallback a new kind inherits says the same as the spelt-out keys.
    for message in (vote, ack, propose):
        fallback = Message.content_key.fget(message)
        assert fallback[2:] == message.content_key and fallback[1] == message.sender


def test_a_key_ignores_undeclared_attributes(registry, genesis):
    vote = make_vote(registry, registry.secret_key(2), 5, genesis.block_id)
    before = vote.content_key
    object.__setattr__(vote, "_smuggled", "f0" * 32)
    assert vote.content_key == before


# ----------------------------------------------------------------------
# Well-typed by construction
# ----------------------------------------------------------------------
class _Str(str):
    pass


class _Int(int):
    pass


class _BlockTwin(Block):
    pass


class _VRFTwin(VRFOutput):
    pass


#: A value of every refused type, per kind of keyed field.
ILL_TYPED = {
    "int": (5.0, True, _Int(5), "5", None),
    "str": (5.0, True, _Str("ab"), b"ab", 5),
    "tip": (5.0, False, _Str("ab"), b"ab", 0),
}


def _ill_typed_states() -> list[tuple[type, dict]]:
    """``(class, state)`` for every keyed field holding every refused type."""
    vote = make_vote(REGISTRY, REGISTRY.secret_key(1), 5, GENESIS.block_id)
    propose = make_propose(REGISTRY, REGISTRY.secret_key(1), 5, 2, BLOCKS[0])
    kinds = {"sender": "int", "round": "int", "view": "int", "signature": "str", "tip": "tip"}
    out = []
    for good in (vote, AckMessage(**vote.__getstate__()), propose):
        state = good.__getstate__()
        for name in state:
            if name in kinds:
                out += [(type(good), {**state, name: bad}) for bad in ILL_TYPED[kinds[name]]]
    block_like, vrf_like = _BlockTwin(parent=None, proposer=1, view=1), _VRFTwin(1, "p")
    state = propose.__getstate__()
    out += [(ProposeMessage, {**state, "block": bad}) for bad in (block_like, "block", 7)]
    out += [(ProposeMessage, {**state, "vrf": bad}) for bad in (vrf_like, (1, "p"), 7)]
    return out


class HandBuilt:
    """Pickles as ``object.__new__(cls)`` + ``BUILD state``: the bytes a peer
    writes to put ``state`` into an instance without calling ``__init__``."""

    def __init__(self, cls: type, state: dict) -> None:
        self.cls, self.state = cls, state

    def __reduce__(self):
        return (object.__new__, (self.cls,), self.state)


def ill_typed_bodies() -> list[bytes]:
    """Pickle bodies that would decode to an ill-typed message or VRF output."""
    bodies = [
        pickle.dumps(HandBuilt(cls, state), protocol=pickle.HIGHEST_PROTOCOL)
        for cls, state in _ill_typed_states()
    ]
    for state in ({"value_num": 5.0, "proof": "p"}, {"value_num": 5, "proof": _Str("p")}):
        bodies.append(pickle.dumps(HandBuilt(VRFOutput, state)))
    return bodies


def _built_around(cls: type, state: dict) -> object:
    """An instance of ``cls`` holding ``state``, its checks stepped around."""
    obj = object.__new__(cls)
    vars(obj).update(state)
    return obj


def wire_form_ill_typed_bodies() -> list[bytes]:
    """The same states in the form a message's own pickle takes — the
    class, ``NEWOBJ``, then ``BUILD state`` — for every state whose values
    need no global beyond the message types: a body that names nothing
    but wire types and still decodes to nothing (``__setstate__`` raises)."""
    local = (_Str, _Int, _BlockTwin, _VRFTwin)
    states = [*_ill_typed_states(), (VRFOutput, {"value_num": 5.0, "proof": "p"})]
    return [
        pickle.dumps(_built_around(cls, state), protocol=pickle.HIGHEST_PROTOCOL)
        for cls, state in states
        if not any(isinstance(value, local) for value in state.values())
    ]


@pytest.mark.parametrize(("cls", "state"), _ill_typed_states())
def test_an_ill_typed_message_cannot_be_constructed(cls, state):
    with pytest.raises(TypeError, match="must be exactly"):
        cls(**state)


@pytest.mark.parametrize("body", ill_typed_bodies() + wire_form_ill_typed_bodies())
def test_an_ill_typed_message_cannot_come_out_of_a_pickle(body):
    with pytest.raises(TypeError, match="must be exactly"):
        pickle.loads(body)


def test_an_ill_typed_vrf_output_cannot_be_constructed():
    for bad in ILL_TYPED["int"]:
        with pytest.raises(TypeError):
            VRFOutput(value_num=bad, proof="p")
    for bad in ILL_TYPED["str"]:
        with pytest.raises(TypeError):
            VRFOutput(value_num=5, proof=bad)


def test_a_well_typed_state_round_trips_and_drops_an_undeclared_key(registry, genesis):
    propose = make_propose(registry, registry.secret_key(1), 5, 2, BLOCKS[2])
    for good in (make_vote(registry, registry.secret_key(1), 5, None), propose):
        clone = pickle.loads(pickle.dumps(good))
        assert clone == good and clone.content_key == good.content_key
        # A peer that writes an undeclared key into the state does not get it loaded.
        state = {**good.__getstate__(), "_smuggled": "f0" * 32}
        smuggled = pickle.loads(pickle.dumps(HandBuilt(type(good), state)))
        assert "_smuggled" not in vars(smuggled)
        assert smuggled == good and smuggled.content_key == good.content_key


def test_the_verifier_rejects_where_it_used_to_raise(registry, genesis):
    """The bug: ``VoteMessage(round=5.0)`` equalled the honest vote as a
    dataclass and made ``verify`` / ``batch`` raise, losing the batch."""
    good = make_vote(registry, registry.secret_key(1), 5, genesis.block_id)
    pipeline = IngestPipeline(registry)
    for name, bad in (("round", 5.0), ("sender", True)):
        with pytest.raises(TypeError):
            replace(good, **{name: bad})
    # The nearest thing that can exist is a well-typed forgery, and that
    # is rejected without costing the batch its honest message.
    twin = VoteMessage(sender=1, round=5, signature="é" * 64, tip=good.tip)
    assert not verify_message(registry, twin) and not pipeline.verify(twin)
    batch = pipeline.batch([good, twin])
    assert batch.votes == (good,) and batch.rejected == 1


# ----------------------------------------------------------------------
# The censorship direction: junk first, honest original second
# ----------------------------------------------------------------------
def _junk_twins(good: VoteMessage) -> list[VoteMessage]:
    """Well-typed near-misses of ``good`` (an ill-typed one cannot exist)."""
    return [
        replace(good, signature="00" * 32),
        replace(good, sender=good.sender + 1),
        replace(good, round=good.round + 1),
        replace(good, tip=None),
    ]


def test_a_junk_twin_published_first_cannot_censor_on_the_bus(registry, genesis):
    good = make_vote(registry, registry.secret_key(1), 5, genesis.block_id)
    bus = MessageBus(4, horizon_rounds=8)
    for junk in _junk_twins(good):
        assert bus.publish(junk)
    assert bus.publish(good) and good.content_key in bus
    assert good in bus.deliverable(0)
    # Choosing a twin for delivery does not deliver (or void) the original.
    bus.deliver_chosen(0, _junk_twins(good)[:1])
    assert good in bus.deliverable(0)


def test_a_junk_twin_gossiped_first_cannot_mark_the_original_seen(registry, genesis):
    good = make_vote(registry, registry.secret_key(1), 5, genesis.block_id)
    delivered: list[Message] = []

    network = GossipNetwork(
        NoLinks((0,)),
        {0: ()},
        lambda message, key: delivered.append(message),
        SeenIndex(10),
        StillClock(),
        no_surge,
    )
    for junk in _junk_twins(good):
        network.nodes[0].publish(junk)
    assert good.content_key not in network.seen.arrivals
    network.nodes[0].publish(good)
    assert delivered[-1] is good and network.seen.arrivals[good.content_key].held == 1
    assert network.nodes[0].stats == {"delivered": 5, "duplicates": 0, "stale_dropped": 0}


def test_a_junk_twin_verified_first_leaves_no_verdict_under_the_originals_key(registry, genesis):
    good = make_vote(registry, registry.secret_key(1), 5, genesis.block_id)
    pipeline = IngestPipeline(registry)
    twins = _junk_twins(good)
    assert len(pipeline.batch(twins)) == 0
    table = pipeline.interner
    assert all(table.lookup(junk.content_key) is REJECTED for junk in twins)
    assert table.lookup(good.content_key) is None
    assert pipeline.batch([*twins, good]).votes == (good,)
    assert table.lookup(good.content_key) is good

