"""Identifiers and where they are computed (README, *Architecture*).

Ids are computed at construction, never carried by a pickle, never read
from a sender-writable slot.  A message's identity is its content key —
compared, not hashed, nothing memoised — so hashing grows with the
blocks and transactions a run creates and with nothing per message,
which the last tests count for whole runs.
"""

import gc
import pickle
import sys
import weakref

import pytest

import repro.crypto.hashing as hashing
from repro.chain.block import Block
from repro.chain.transactions import Transaction
from repro.engine.bus import MessageBus
from repro.engine.deploy_backend import DeploymentBackend
from repro.engine.ingest import IngestPipeline
from repro.engine.sim_backend import SimulationBackend
from repro.engine.spec import RunSpec
from repro.net.gossip import GossipNetwork, SeenIndex
from repro.net.socket_transport import (
    EncodedPayloadCache,
    TransactionTable,
    decode_batch,
    encode_batch,
)
from repro.sleepy.messages import IdentityMemo, make_propose, make_vote
from repro.workloads import SubmissionRateWorkload
from tests.net.conftest import NoLinks, StillClock, ignore, no_surge

FORGED = "f0" * 32
#: More objects than a few rounds hold: a run past it shows that nothing
#: is kept per object.
MANY = 256


def _counted(monkeypatch, original) -> list[int]:
    """``calls[0]`` counts calls of ``original`` through every ``repro`` binding."""
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


@pytest.fixture
def hash_calls(monkeypatch) -> list[int]:
    """``hash_fields`` calls (each is also one ``encode_fields`` call)."""
    return _counted(monkeypatch, hashing.hash_fields)


@pytest.fixture
def encode_calls(monkeypatch) -> list[int]:
    """``encode_fields`` calls: every signature, tag check, VRF label and hash."""
    return _counted(monkeypatch, hashing.encode_fields)


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


def test_message_pickle_carries_declared_fields_only(registry, genesis):
    propose = _proposal(registry, genesis)
    object.__setattr__(propose, "_smuggled", FORGED)
    blob = pickle.dumps(propose, protocol=pickle.HIGHEST_PROTOCOL)
    assert FORGED.encode() not in blob
    clone = pickle.loads(blob)
    assert "_smuggled" not in vars(clone)
    assert clone == propose and clone.content_key == propose.content_key
    # The sender's own instance is untouched by pickling it.
    assert propose._smuggled == FORGED


def test_wire_batch_yields_blocks_with_recomputed_ids(registry, genesis):
    propose = _proposal(registry, genesis, txs=3)
    honest_block_id = propose.block.block_id
    object.__setattr__(propose.block, "block_id", FORGED)
    body = EncodedPayloadCache().encode(propose)
    (chunk,) = encode_batch([(1, 4, body)])
    ((pid, instant, decoded),) = decode_batch(chunk[4:], TransactionTable())
    assert (pid, instant) == (1, 4)
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
# (b) Content keys: identity without a hash or a memo
# ----------------------------------------------------------------------
def test_content_key_costs_no_hash_and_no_encoding(registry, genesis, encode_calls):
    """Keying a message, and keying it again, encodes and hashes nothing —
    nor does publishing it, deduplicating it or choosing it for delivery."""
    vote = make_vote(registry, registry.secret_key(2), 5, genesis.block_id)
    propose = _proposal(registry, genesis)
    encode_calls[0] = 0
    for message in (vote, propose):
        first = message.content_key
        assert message.content_key == first and {first: 1}[message.content_key] == 1
    bus = MessageBus(4, horizon_rounds=8)
    assert bus.publish(vote) and not bus.publish(vote)
    bus.deliver_chosen(0, [vote])
    assert encode_calls[0] == 0


def test_content_key_of_an_equal_but_distinct_object_is_equal(registry, genesis, encode_calls):
    """An equal twin carries an equal key and finds the first's verdict
    without a hash."""
    key = registry.secret_key(2)
    vote, twin = (make_vote(registry, key, 5, genesis.block_id) for _ in range(2))
    assert vote == twin and vote is not twin
    pipeline = IngestPipeline(registry)
    assert pipeline.verify(vote)
    encode_calls[0] = 0
    assert twin.content_key == vote.content_key
    assert pipeline.verify(twin) and pipeline.interner.lookup(twin.content_key) is vote
    assert encode_calls[0] == 0  # a table hit: no second signature check either
    # A different sender's vote for the same tip is a different key.
    other = make_vote(registry, registry.secret_key(3), 5, genesis.block_id)
    assert other.content_key != vote.content_key


def test_a_seen_key_pins_no_message(registry):
    """A seen index holds keys, and a key holds field values only: no
    message object stays alive because it was once disseminated."""
    key = registry.secret_key(0)
    network = GossipNetwork(NoLinks((0,)), {0: ()}, ignore, SeenIndex(10), StillClock(), no_surge)
    votes = [make_vote(registry, key, r, None) for r in range(MANY + 10)]
    for vote in votes:
        network.nodes[0].publish(vote)
    assert set(network.seen.arrivals) == {vote.content_key for vote in votes}
    watched = [weakref.ref(vote) for vote in votes]
    del votes, vote
    gc.collect()
    assert len(network.seen) == len(watched) and not any(ref() for ref in watched)


def test_identity_memo_is_bounded_and_cannot_alias_a_recycled_id(registry):
    """What is keyed by ``id`` — the batch memo, the encoded-payload
    cache — is bounded and answers only for the object it holds."""
    key = registry.secret_key(0)
    memo = IdentityMemo(4)
    votes = [make_vote(registry, key, r, None) for r in range(10)]
    for r, vote in enumerate(votes):
        memo.put(vote, r)
    assert len(memo) == 4
    assert memo.get(votes[0]) is None and memo.get(votes[-1]) == 9
    # An entry is only ever answered for the very object it holds: plant
    # a stale entry under a live object's id, as a recycled id would.
    live = make_vote(registry, key, 999, None)
    memo._entries[id(live)] = (votes[-1], 9)
    assert memo.get(live) is None


# ----------------------------------------------------------------------
# (c) Hashing grows with blocks and transactions, never with messages
# ----------------------------------------------------------------------
def test_deployment_hashing_grows_with_objects_not_with_arrivals(hash_calls, encode_calls):
    n, rounds, rate = 6, 12, 4
    spec = RunSpec(
        n=n,
        rounds=rounds,
        protocol="resilient",
        eta=4,
        seed=3,
        transactions=SubmissionRateWorkload(rate_per_round=rate, seed=3),
    )
    hash_calls[0] = encode_calls[0] = 0
    result = DeploymentBackend(delta_s=0.01).execute(spec)
    hashed, encoded = hash_calls[0], encode_calls[0]

    trace = result.trace
    assert trace.decisions
    proposals = sum(r.proposes_sent for r in trace.rounds)
    messages = proposals + sum(r.votes_sent + r.other_sent for r in trace.rounds)
    transactions = rate * rounds
    blocks = len(trace.tree)
    arrivals = result.extras["gossip"]["delivered"] + result.extras["gossip"]["duplicates"]
    # Checksum, id and one memoised validity check per created
    # transaction; one id per created block.  The rest covers the
    # genesis block every tree starts from.  Nothing per message.
    budget = 3 * transactions + blocks + 4 * n + 16
    assert hashed <= budget, (hashed, budget)
    # Beyond the hashes: a signature and a tag check per message, two VRF
    # labels per proposal, the registry's n seeds and 2n keyed states —
    # and zero per gossip arrival, of which there are far more.
    assert encoded <= hashed + 2 * messages + 2 * proposals + 3 * n, (encoded, hashed, messages)
    assert arrivals > encoded


def test_simulator_hashes_a_message_once_for_dedup_and_verification(hash_calls):
    """Publish dedup and verification key a message by content: what is
    left to hash in a run is one id per block built."""
    spec = RunSpec(n=6, rounds=10, protocol="resilient", eta=4, seed=3)
    simulation = SimulationBackend().build(spec)
    hash_calls[0] = 0
    simulation.run(10)
    blocks = len(simulation.chain.tree)
    assert simulation.trace.decisions and simulation.bus.total_published > 2 * blocks
    # One id per block (plus the genesis ids), and nothing per message.
    assert hash_calls[0] <= blocks + 8, (hash_calls[0], blocks)


def test_simulator_hashes_nothing_per_message_at_any_n(hash_calls, encode_calls):
    """The counts a run's crypto comes to, exactly, at a small n and at
    one that publishes 400 messages a round."""
    for n in (50, 200):
        spec = RunSpec(n=n, rounds=8, protocol="resilient", eta=2, seed=3)
        simulation = SimulationBackend().build(spec)
        hash_calls[0] = encode_calls[0] = 0
        simulation.run(8)
        proposals = sum(record.proposes_sent for record in simulation.trace.rounds)
        votes = simulation.bus.total_published - proposals
        assert proposals and votes > MANY
        assert simulation.pipeline.stats["crypto_verifications"] == votes + proposals
        # ``hash_fields``: the id of the block each proposal built, nothing else.
        assert hash_calls[0] == proposals
        # ``encode_fields``: sign + verify per vote; per proposal two VRF
        # labels (once: the verifier reads the proposer's evaluation), sign,
        # verify and the block id; the 2n keyed states, fed on first use.
        assert encode_calls[0] == 2 * votes + 5 * proposals + 2 * n
