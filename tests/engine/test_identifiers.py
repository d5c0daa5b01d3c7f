"""Identifiers and where they are computed (README, *Architecture*).

Ids are computed at construction or by the consumer's ``DigestMemo``,
never carried by a pickle, never read from a sender-writable slot — and
each is hashed once, which the last test pins for a whole deployment.
"""

import pickle
import sys

import pytest

import repro.crypto.hashing as hashing
import repro.sleepy.messages as sleepy_messages
from repro.chain.block import Block
from repro.chain.transactions import Transaction
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.net.socket_transport import EncodedPayloadCache, decode_batch, encode_batch
from repro.sleepy.messages import (
    IDENTITY_MEMO_CAPACITY,
    DigestMemo,
    make_propose,
    make_vote,
    verification_digest,
)
from repro.workloads import SubmissionRateWorkload

FORGED = "f0" * 32


@pytest.fixture
def hash_calls(monkeypatch) -> list[int]:
    """``calls[0]`` counts ``hash_fields`` calls through every ``repro`` binding."""
    original = hashing.hash_fields
    calls = [0]

    def counted(*fields):
        calls[0] += 1
        return original(*fields)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def _proposal(registry, genesis, txs=2):
    payload = tuple(Transaction.create(9, i, b"p" * 8) for i in range(txs))
    block = Block(parent=genesis.block_id, proposer=1, view=1, payload=payload)
    return make_propose(registry, registry.secret_key(1), 2, 1, block)


# ----------------------------------------------------------------------
# (a) No id crosses a pickle
# ----------------------------------------------------------------------
def test_transaction_pickle_recomputes_a_poisoned_id():
    tx = Transaction.create(3, 7, b"payload")
    honest_id = tx.tx_id
    object.__setattr__(tx, "_tx_id", FORGED)
    assert tx.tx_id == FORGED  # the sender can write its own slot ...
    blob = pickle.dumps(tx, protocol=pickle.HIGHEST_PROTOCOL)
    assert FORGED.encode() not in blob and honest_id.encode() not in blob
    clone = pickle.loads(blob)
    assert clone == tx and clone.tx_id == honest_id  # ... but not the receiver's


def test_block_pickle_recomputes_a_poisoned_id(genesis):
    tx = Transaction.create(3, 7, b"payload")
    block = Block(parent=genesis.block_id, proposer=1, view=1, payload=(tx,))
    honest_id = block.block_id
    object.__setattr__(block, "block_id", FORGED)
    object.__setattr__(tx, "_tx_id", FORGED)
    blob = pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)
    assert FORGED.encode() not in blob and honest_id.encode() not in blob
    clone = pickle.loads(blob)
    assert clone.block_id == honest_id
    assert clone.payload[0].tx_id == Transaction.create(3, 7, b"payload").tx_id


def test_message_pickle_drops_the_memoised_id(registry, genesis):
    propose = _proposal(registry, genesis)
    honest_id = propose.message_id
    object.__setattr__(propose, "_message_id", FORGED)
    blob = pickle.dumps(propose, protocol=pickle.HIGHEST_PROTOCOL)
    assert FORGED.encode() not in blob and honest_id.encode() not in blob
    clone = pickle.loads(blob)
    assert "_message_id" not in vars(clone)
    assert clone == propose and clone.message_id == honest_id
    # The sender's own instance is untouched by pickling it.
    assert propose.message_id == FORGED


def test_wire_batch_yields_blocks_with_recomputed_ids(registry, genesis):
    propose = _proposal(registry, genesis, txs=3)
    honest_block_id = propose.block.block_id
    object.__setattr__(propose.block, "block_id", FORGED)
    key, body, _ = EncodedPayloadCache().encode(propose)
    (chunk,) = encode_batch([(1, 4, key, body), (1, 5, key, body)])
    frames = decode_batch(chunk[4:])
    assert [frame[:2] for frame in frames] == [(1, 4), (1, 5)]
    decoded = frames[0][2]
    assert decoded is frames[1][2]
    fresh = Block(
        parent=decoded.block.parent,
        proposer=decoded.block.proposer,
        view=decoded.block.view,
        payload=decoded.block.payload,
        salt=decoded.block.salt,
    )
    assert decoded.block.block_id == fresh.block_id == honest_block_id
    assert decoded.tip == honest_block_id


def test_blocks_of_one_pickle_share_their_transactions(genesis):
    tx = Transaction.create(3, 7, b"payload")
    left = Block(parent=genesis.block_id, proposer=1, view=1, payload=(tx,), salt=1)
    right = Block(parent=genesis.block_id, proposer=1, view=1, payload=(tx,), salt=2)
    a, b = pickle.loads(pickle.dumps((left, right)))
    assert a.payload[0] is b.payload[0]


# ----------------------------------------------------------------------
# (b) DigestMemo
# ----------------------------------------------------------------------
def test_digest_memo_hashes_an_object_once(registry, genesis, hash_calls):
    vote = make_vote(registry, registry.secret_key(2), 5, genesis.block_id)
    memo = DigestMemo()
    hash_calls[0] = 0
    first = memo.digest(vote)
    assert hash_calls[0] == 1 and first == verification_digest(vote)
    hash_calls[0] = 0
    assert memo.digest(vote) is first
    assert hash_calls[0] == 0


def test_digest_memo_rehashes_an_equal_but_distinct_object(registry, genesis, hash_calls):
    key = registry.secret_key(2)
    vote, twin = (make_vote(registry, key, 5, genesis.block_id) for _ in range(2))
    assert vote == twin and vote is not twin
    memo = DigestMemo()
    first = memo.digest(vote)
    hash_calls[0] = 0
    assert memo.digest(twin) == first
    assert hash_calls[0] == 1
    # Nor does it believe a slot on the instance: a transplanted id on a
    # different message is a different object with its own digest.
    other = make_vote(registry, registry.secret_key(3), 5, genesis.block_id)
    object.__setattr__(other, "_message_id", vote.message_id)
    assert memo.digest(other) == verification_digest(other) != first


def test_digest_memo_is_bounded_and_cannot_alias_a_recycled_id(registry, hash_calls):
    key = registry.secret_key(0)
    memo = DigestMemo()
    votes = [make_vote(registry, key, r, None) for r in range(IDENTITY_MEMO_CAPACITY + 10)]
    digests = [memo.digest(vote) for vote in votes]
    assert len(memo) == IDENTITY_MEMO_CAPACITY
    # The oldest entries are gone: they hash again, to the same digest.
    hash_calls[0] = 0
    assert memo.digest(votes[0]) == digests[0]
    assert hash_calls[0] == 1
    # The newest are still there.
    hash_calls[0] = 0
    assert memo.digest(votes[-1]) == digests[-1]
    assert hash_calls[0] == 0
    # An entry is only ever answered for the very object it holds: plant
    # a stale entry under a live object's id, as a recycled id would.
    live = make_vote(registry, key, 999, None)
    memo._entries[id(live)] = (votes[-1], digests[-1])
    assert memo.digest(live) == verification_digest(live) != digests[-1]


# ----------------------------------------------------------------------
# (c) A deployment hashes each thing once
# ----------------------------------------------------------------------
def test_deployment_hashing_grows_with_objects_not_with_arrivals(hash_calls):
    n, rounds, rate = 6, 12, 4
    spec = RunSpec(
        n=n,
        rounds=rounds,
        protocol="resilient",
        eta=4,
        seed=3,
        transactions=SubmissionRateWorkload(rate_per_round=rate, seed=3),
    )
    hash_calls[0] = 0
    result = DeploymentBackend(delta_s=0.01).execute(spec)
    spent = hash_calls[0]

    trace = result.trace
    assert trace.decisions
    messages = sum(r.votes_sent + r.proposes_sent + r.other_sent for r in trace.rounds)
    transactions = rate * rounds
    blocks = len(trace.tree)
    arrivals = result.extras["gossip"]["delivered"] + result.extras["gossip"]["duplicates"]
    # One digest per message in the process's one memo (gossip and
    # ingest share it — a second memo would make it two); checksum, id
    # and one memoised validity check per created transaction; one id
    # per created block.  The rest covers the genesis block every tree
    # starts from.
    budget = messages + 3 * transactions + blocks + 4 * n + 16
    assert spent <= budget, (spent, budget)
    # The run is one where the old per-arrival hashing alone would not fit.
    assert arrivals > budget


def test_simulator_hashes_a_message_once_for_dedup_and_verification(hash_calls):
    """The bus and the ingest pipeline of one run draw digests from one
    memo: publish dedup hashes a message, verification finds it there."""
    spec = RunSpec(n=6, rounds=10, protocol="resilient", eta=4, seed=3)
    simulation = SimulationBackend().build(spec)
    assert simulation.bus._digests is simulation.pipeline.digests
    hash_calls[0] = 0
    simulation.run(10)
    messages, blocks = simulation.bus.total_published, len(simulation.chain.tree)
    assert simulation.trace.decisions
    # One digest per message, one id per block (plus the genesis ids).
    assert hash_calls[0] <= messages + blocks + 8, (hash_calls[0], messages, blocks)


def test_simulator_hashes_a_message_once_at_any_n(monkeypatch):
    """The shared memo holds a whole round's messages between publish
    and ingest, however many processes send one: n = 200 publishes 400
    a round, more than the memo's floor."""
    digested = [0]
    original = sleepy_messages.verification_digest

    def counted(message):
        digested[0] += 1
        return original(message)

    monkeypatch.setattr(sleepy_messages, "verification_digest", counted)
    spec = RunSpec(n=200, rounds=8, protocol="resilient", eta=2, seed=3)
    simulation = SimulationBackend().build(spec)
    simulation.run(8)
    assert simulation.bus.total_published > IDENTITY_MEMO_CAPACITY * 8
    assert digested[0] == simulation.bus.total_published
    assert simulation.pipeline.stats["crypto_verifications"] == simulation.bus.total_published
