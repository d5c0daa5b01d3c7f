"""Transactions, the validity predicate, and the mempool."""

from repro.chain.transactions import Mempool, Transaction, is_valid_transaction


def test_created_transactions_are_valid():
    tx = Transaction.create(3, 7, b"payload")
    assert is_valid_transaction(tx)


def test_tampered_transactions_are_invalid():
    tx = Transaction.create(3, 7, b"payload")
    forged = Transaction(sender=3, nonce=8, payload=b"payload", checksum=tx.checksum)
    assert not is_valid_transaction(forged)
    forged_payload = Transaction(sender=3, nonce=7, payload=b"other", checksum=tx.checksum)
    assert not is_valid_transaction(forged_payload)


def test_validity_verdict_is_per_object_and_never_shipped():
    import pickle

    from repro.engine.spec import canonical_form

    tx = Transaction.create(3, 7, b"payload")
    before = canonical_form(tx)
    assert is_valid_transaction(tx) and is_valid_transaction(tx)
    assert canonical_form(tx) == before  # the memo is not a field
    # A peer cannot ship a verdict: a forged transaction pickled after a
    # "valid" memo was planted on it arrives without one and is re-judged.
    forged = Transaction(sender=3, nonce=8, payload=b"payload", checksum=tx.checksum)
    object.__setattr__(forged, "_valid", True)
    arrived = pickle.loads(pickle.dumps(forged))
    assert "_valid" not in vars(arrived)
    assert not is_valid_transaction(arrived)


def test_tx_id_unique_per_content():
    assert Transaction.create(0, 0).tx_id != Transaction.create(0, 1).tx_id
    assert Transaction.create(0, 0).tx_id == Transaction.create(0, 0).tx_id


def test_mempool_rejects_invalid_and_duplicates():
    pool = Mempool()
    tx = Transaction.create(0, 0)
    assert pool.add(tx)
    assert not pool.add(tx)  # duplicate
    bad = Transaction(sender=0, nonce=1, payload=b"", checksum="nope")
    assert not pool.add(bad)
    assert len(pool) == 1


def test_mempool_take_respects_limit_order_and_exclusions():
    pool = Mempool()
    txs = [Transaction.create(0, i) for i in range(5)]
    for tx in txs:
        pool.add(tx)
    assert pool.take(3) == tuple(txs[:3])
    taken = pool.take(10, exclude=frozenset({txs[0].tx_id, txs[2].tx_id}))
    assert taken == (txs[1], txs[3], txs[4])
    # take() does not consume.
    assert len(pool) == 5


def test_mempool_mark_included_drops():
    pool = Mempool()
    txs = [Transaction.create(0, i) for i in range(3)]
    for tx in txs:
        pool.add(tx)
    pool.mark_included(frozenset({txs[1].tx_id}))
    assert pool.pending_ids() == {txs[0].tx_id, txs[2].tx_id}
    # A whole delivered log, far larger than the pool, sweeps the same way.
    log = {Transaction.create(1, i).tx_id for i in range(50)} | {txs[0].tx_id}
    pool.mark_included(log)
    assert pool.pending_ids() == {txs[2].tx_id}


def test_mempool_take_excludes_both_sets():
    pool = Mempool()
    txs = [Transaction.create(0, i) for i in range(4)]
    for tx in txs:
        pool.add(tx)
    assert pool.take(10, {txs[0].tx_id}, {txs[2].tx_id}) == (txs[1], txs[3])


def test_mempool_capacity_sheds_and_counts():
    pool = Mempool(capacity=2)
    assert pool.add(Transaction.create(0, 0))
    assert pool.add(Transaction.create(0, 1))
    overflow = Transaction.create(0, 2)
    assert not pool.add(overflow)  # full: shed, never queued silently
    assert pool.shed_count == 1
    assert pool.admitted_count == 2
    assert len(pool) == 2
    # Invalid and duplicate rejections are not "shed" — only valid,
    # novel transactions turned away by backpressure count.
    assert not pool.add(Transaction.create(0, 0))
    bad = Transaction(sender=0, nonce=9, payload=b"", checksum="nope")
    assert not pool.add(bad)
    assert pool.shed_count == 1
    # Inclusion frees capacity; the next submission is admitted again.
    pool.mark_included(frozenset({Transaction.create(0, 0).tx_id}))
    assert pool.add(overflow)
    assert pool.admitted_count == 3


def test_mempool_capacity_validation_and_default_unbounded():
    import pytest

    with pytest.raises(ValueError):
        Mempool(capacity=0)
    pool = Mempool()
    for i in range(100):
        assert pool.add(Transaction.create(1, i))
    assert pool.shed_count == 0
