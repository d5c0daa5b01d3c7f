"""Transactions, the global validity predicate, and a mempool.

The paper (Definition 2, footnote 3) assumes transactions are valid
according to a global, efficiently computable predicate ``P`` known to
all processes.  We instantiate ``P`` concretely: a transaction is valid
iff its checksum equals the hash of its other fields.  This gives the
test suite something real to exercise — invalid transactions must never
appear in a delivered log.
"""

from __future__ import annotations

import pickle
from collections.abc import Set
from dataclasses import dataclass

from repro.crypto.hashing import hash_fields


@dataclass(frozen=True)
class Transaction:
    """An immutable transaction.

    Build transactions with :meth:`Transaction.create`, which computes
    the checksum that the global validity predicate
    (:func:`is_valid_transaction`) verifies.

    The id is hashed once, at construction, and the validity verdict
    once, on first ask; neither crosses a pickle, and a pickle that
    writes state onto a transaction is refused, so a peer can ship
    neither an id nor a "valid" verdict (README, "Identifiers and where
    they are computed").
    """

    sender: int
    nonce: int
    payload: bytes
    checksum: str

    def __post_init__(self) -> None:
        # Not a dataclass field: fields enter ``canonical_form`` and with
        # it every spec digest that holds materialised transactions.
        object.__setattr__(
            self,
            "_tx_id",
            hash_fields("tx", self.sender, self.nonce, self.payload, self.checksum),
        )

    def __reduce__(self):
        return (type(self), (self.sender, self.nonce, self.payload, self.checksum))

    def __setstate__(self, state) -> None:
        # Its own pickle carries no state: a BUILD is a peer writing an
        # id, a verdict or a field onto a constructed transaction.
        raise pickle.UnpicklingError("a Transaction takes no pickled state")

    @staticmethod
    def create(sender: int, nonce: int, payload: bytes = b"") -> "Transaction":
        """Create a valid transaction (checksum computed from contents)."""
        return Transaction(sender, nonce, payload, _checksum(sender, nonce, payload))

    @property
    def tx_id(self) -> str:
        """Unique transaction identifier: the hash of all four fields.

        Distinct from ``checksum`` (which does not cover itself), so a
        transaction with a forged checksum still has its own id.
        """
        return self._tx_id


def _checksum(sender: int, nonce: int, payload: bytes) -> str:
    return hash_fields("tx-checksum", sender, nonce, payload)


def is_valid_transaction(tx: Transaction) -> bool:
    """The global validity predicate ``P`` (paper Definition 2, fn. 3).

    Every process's mempool asks about the same immutable object, so the
    verdict is memoised on it (a non-field attribute, like ``_tx_id``).
    """
    try:
        return tx._valid
    except AttributeError:
        valid = tx.checksum == _checksum(tx.sender, tx.nonce, tx.payload)
        object.__setattr__(tx, "_valid", valid)
        return valid


#: Pending transactions a mempool holds before it sheds new ones: far
#: above what any experiment queues, and the bound a long-running
#: service needs.
MEMPOOL_CAPACITY = 4096


class Mempool:
    """A FIFO pool of pending transactions held by one process.

    Invalid transactions are rejected on entry (well-behaved processes
    never propose them).  ``take`` returns up to ``limit`` transactions
    that are not in the supplied exclusion set, preserving arrival order
    and leaving the pool unchanged — transactions are only removed once
    observed on-chain via :meth:`mark_included`.

    ``capacity`` bounds occupancy: once full, new *transactions* are
    shed (and counted in ``shed_count``) rather than queued without
    bound.  Shedding user load is the mempool's explicit backpressure
    contract — transactions are client-retryable, unlike protocol
    messages, which are never shed anywhere in the stack.
    """

    def __init__(self, capacity: int = MEMPOOL_CAPACITY) -> None:
        if not isinstance(capacity, int) or capacity <= 0:
            raise ValueError("mempool capacity must be a positive int")
        self.capacity = capacity
        self._pending: dict[str, Transaction] = {}
        #: Valid, novel transactions rejected because the pool was full.
        self.shed_count = 0
        #: Transactions accepted into the pool over its lifetime.
        self.admitted_count = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, tx: Transaction) -> bool:
        """Add ``tx`` if valid, unseen, and within capacity.

        Returns True if added; a valid-but-shed transaction bumps
        ``shed_count`` so overload is always audited, never silent.
        """
        if not is_valid_transaction(tx):
            return False
        if tx.tx_id in self._pending:
            return False
        if len(self._pending) >= self.capacity:
            self.shed_count += 1
            return False
        self._pending[tx.tx_id] = tx
        self.admitted_count += 1
        return True

    def take(
        self,
        limit: int,
        exclude: Set[str] = frozenset(),
        also_exclude: Set[str] = frozenset(),
    ) -> tuple[Transaction, ...]:
        """Up to ``limit`` pending transactions whose ids are in neither set.

        Two sets because a proposer excludes its (long, standing)
        delivered set and a (short, per-block) undelivered segment, and
        uniting them would copy the long one per block.
        """
        selected: list[Transaction] = []
        for tx_id, tx in self._pending.items():
            if len(selected) >= limit:
                break
            if tx_id not in exclude and tx_id not in also_exclude:
                selected.append(tx)
        return tuple(selected)

    def mark_included(self, tx_ids: Set[str]) -> None:
        """Drop transactions that have been observed in a delivered log.

        ``tx_ids`` may be the whole delivered log: the cost is the size
        of the smaller side, the pending pool or ``tx_ids``.
        """
        pending = self._pending
        if len(tx_ids) < len(pending):
            for tx_id in tx_ids:
                pending.pop(tx_id, None)
        else:
            for tx_id in [tx_id for tx_id in pending if tx_id in tx_ids]:
                del pending[tx_id]

    def pending_ids(self) -> frozenset[str]:
        """Ids of all transactions currently pending."""
        return frozenset(self._pending)
