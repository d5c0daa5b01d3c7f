"""Transactions, the global validity predicate, and the transaction pool.

The paper (Definition 2, footnote 3) assumes transactions are valid
according to a global, efficiently computable predicate ``P`` known to
all processes.  We instantiate ``P`` concretely: a transaction is valid
iff its checksum equals the hash of its other fields.  This gives the
test suite something real to exercise — invalid transactions must never
appear in a delivered log.

Algorithm 1 has every awake process propose in every view, so every
awake process holds each arriving transaction.  The pool is therefore
kept once per chain (a simulation's, or a deployment shard's
:class:`~repro.chain.shared.SharedChain`): an :class:`ArrivalLog`
admits each arrival once, as an entry naming the processes that hold
it, and each process's :class:`Mempool` is a cursor over that log with
the contract of a private FIFO pool — validity, deduplication,
capacity and its counts are per process.  A pool built without a log
owns one nobody else reads.
"""

from __future__ import annotations

import pickle
import sys
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass
from itertools import islice

from repro.crypto.hashing import hash_fields


@dataclass(frozen=True)
class Transaction:
    """An immutable transaction.

    Build transactions with :meth:`Transaction.create`, which computes
    the checksum that the global validity predicate
    (:func:`is_valid_transaction`) verifies.

    The id is hashed once, at construction, and the validity verdict
    once, on first ask (or by :meth:`create`, which computes the
    checksum itself); neither crosses a pickle, and a pickle that
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
        """Create a valid transaction (checksum computed from contents).

        The checksum is computed here, from the very fields the
        transaction is built of, so the verdict is known and recorded:
        admission does not hash it again.  A transaction built by the
        constructor (or unpickled, which calls it) is checked on first ask.
        """
        tx = Transaction(sender, nonce, payload, _checksum(sender, nonce, payload))
        object.__setattr__(tx, "_valid", True)
        return tx

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

#: Entries nobody holds that a log keeps before it compacts (it also
#: waits until they outnumber the held ones).
_DEAD_SLACK = 64

#: ``(depths, depth)``: the transactions whose depth in ``depths`` is at
#: most ``depth`` — a process's delivered log as its depth on a decided
#: index (:class:`~repro.chain.shared.DecidedIndex`).
Decided = tuple[Mapping[str, int], int]
#: No transaction is decided.
NONE_DECIDED: Decided = ({}, -1)
#: The depth of a transaction no decided path carries.
_UNDECIDED = sys.maxsize


class _Entry:
    """One admission: a transaction, the pids it was admitted for, and
    how many of them still hold it."""

    __slots__ = ("tx", "tx_id", "audience", "left")

    def __init__(self, tx: Transaction, tx_id: str, audience: frozenset[int]) -> None:
        self.tx, self.tx_id, self.audience, self.left = tx, tx_id, audience, len(audience)


class ArrivalLog:
    """Every transaction admitted on one chain, once, in admission order.

    An entry is held by each pid it was admitted for until that pid's
    pool marks it included; an entry nobody holds is dead, and the log
    drops dead entries once they outnumber the held ones, moving every
    cursor with them.  So the log keeps what its pools hold, as n
    private pools would, but each held transaction once.  A pool asleep
    at an admission is not in its audience and pins nothing; a pool that
    holds entries and never marks any included (an asleep or corrupted
    process) keeps them held, as its private pool would, up to its
    capacity.
    """

    def __init__(self) -> None:
        self._entries: list[_Entry] = []
        self._dead = 0
        #: tx id -> entries of it somebody holds (almost always 1).
        self._live_ids: dict[str, int] = {}
        self._pools: dict[int, Mempool] = {}
        self._min_capacity = MEMPOOL_CAPACITY
        # Admissions for one audience not yet credited to its pools.
        self._uncredited: tuple[frozenset[int], int] = (frozenset(), 0)
        self._checked: frozenset[int] | None = None

    def __len__(self) -> int:
        """Entries some pool holds."""
        return len(self._entries) - self._dead

    def join(self, pool: Mempool) -> None:
        """Register ``pool`` as the cursor of ``pool.pid``."""
        if pool.pid in self._pools:
            raise ValueError(f"pid {pool.pid} already has a pool on this log")
        if not self._pools or pool.capacity < self._min_capacity:
            self._min_capacity = pool.capacity
        self._pools[pool.pid] = pool

    def admit(self, tx: Transaction, audience: frozenset[int]) -> bool:
        """Admit ``tx`` for each pid of ``audience`` whose pool takes it.

        A pool takes a valid transaction it does not hold, if it is not
        full; a full one sheds it (``shed_count``).  Returns whether any
        pool took it.
        """
        if not is_valid_transaction(tx):
            return False
        if audience is not self._checked:
            if not audience or not audience.issubset(self._pools):
                raise ValueError("an audience names pids of pools on this log")
            self._checked = audience
        tx_id = tx.tx_id
        live_ids = self._live_ids
        copies = live_ids.get(tx_id, 0)
        # No pool holds a tx id nobody holds, nor is one full while
        # fewer entries are held than the smallest capacity.
        if copies or len(self) >= self._min_capacity:
            audience = self._takers(tx_id, copies, audience)
            if not audience:
                return False
        self._entries.append(_Entry(tx, tx_id, audience))
        live_ids[tx_id] = copies + 1
        tallied, count = self._uncredited
        if audience is not tallied:
            self._credit()
            tallied, count = audience, 0
        self._uncredited = (tallied, count + 1)
        return True

    def _takers(self, tx_id: str, copies: int, audience: frozenset[int]) -> frozenset[int]:
        """``audience`` less each pid that holds ``tx_id`` or whose pool is full."""
        pools = self._pools
        holding: set[int] = set()
        if copies:
            for index, entry in enumerate(self._entries):
                if entry.tx_id == tx_id and entry.left:
                    for pid in entry.audience:
                        pool = pools[pid]
                        if index >= pool._cursor and entry not in pool._skipped:
                            holding.add(pid)
        self._credit()
        takers = []
        for pid in audience:
            if pid in holding:
                continue
            pool = pools[pid]
            if pool._admitted - pool._removed >= pool.capacity:
                pool.shed_count += 1
                continue
            takers.append(pid)
        return audience if len(takers) == len(audience) else frozenset(takers)

    def _credit(self) -> None:
        audience, count = self._uncredited
        if count:
            for pid in audience:
                self._pools[pid]._admitted += count
            self._uncredited = (audience, 0)

    def _died(self, entry: _Entry) -> None:
        """The last holder of ``entry`` marked it included."""
        self._dead += 1
        copies = self._live_ids[entry.tx_id] - 1
        if copies:
            self._live_ids[entry.tx_id] = copies
        else:
            del self._live_ids[entry.tx_id]

    def _compact(self) -> None:
        """Drop the dead entries once they outnumber the held ones."""
        entries = self._entries
        if self._dead < _DEAD_SLACK or 2 * self._dead < len(entries):
            return
        kept: list[_Entry] = []
        # kept_before[i]: entries kept from entries[:i], a cursor's new place.
        kept_before = []
        for each in entries:
            kept_before.append(len(kept))
            if each.left:
                kept.append(each)
        kept_before.append(len(kept))
        for pool in self._pools.values():
            pool._cursor = kept_before[pool._cursor]
            pool._skipped = {each for each in pool._skipped if each.left}
        entries[:] = kept
        self._dead = 0


class Mempool:
    """One process's pending transactions: a cursor over an :class:`ArrivalLog`.

    It behaves as a private FIFO pool.  Invalid transactions are
    rejected on entry (well-behaved processes never propose them).
    ``take`` returns up to ``limit`` transactions that are not in the
    supplied exclusion sets, in arrival order, leaving the pool
    unchanged — transactions are only removed once observed on-chain
    via :meth:`mark_included`, for good: a later, conflicting delivered
    log does not bring them back, and only a new :meth:`add` does.

    ``capacity`` bounds occupancy: once full, new *transactions* are
    shed (and counted in ``shed_count``) rather than queued without
    bound.  Shedding user load is the mempool's explicit backpressure
    contract — transactions are client-retryable, unlike protocol
    messages, which are never shed anywhere in the stack.

    ``log`` is the chain's shared log, on which ``pid`` names this
    pool; without one the pool owns a log nobody else reads.
    """

    __slots__ = (
        "capacity",
        "pid",
        "log",
        "shed_count",
        "_admitted",
        "_removed",
        "_cursor",
        "_skipped",
    )

    def __init__(
        self, capacity: int = MEMPOOL_CAPACITY, *, log: ArrivalLog | None = None, pid: int = 0
    ) -> None:
        if not isinstance(capacity, int) or capacity <= 0:
            raise ValueError("mempool capacity must be a positive int")
        self.capacity = capacity
        self.pid = pid
        #: The log this pool is a cursor over.
        self.log = log if log is not None else ArrivalLog()
        #: Valid, novel transactions rejected because the pool was full.
        self.shed_count = 0
        self._admitted = 0
        self._removed = 0
        # The pool holds no entry before this index, nor any in
        # ``_skipped``: those it marked included past a held one.
        self._cursor = 0
        self._skipped: set[_Entry] = set()
        self.log.join(self)

    @property
    def admitted_count(self) -> int:
        """Transactions accepted into the pool over its lifetime."""
        self.log._credit()
        return self._admitted

    def __len__(self) -> int:
        return self.admitted_count - self._removed

    def add(self, tx: Transaction, audience: frozenset[int] | None = None) -> bool:
        """Admit ``tx`` into the log for ``audience``, this pool alone by default.

        Returns True if some pool took it; each pool of the audience
        takes it if valid, unseen and within its capacity, and a
        valid-but-shed transaction bumps that pool's ``shed_count`` so
        overload is always audited, never silent.
        """
        return self.log.admit(tx, frozenset((self.pid,)) if audience is None else audience)

    def take(
        self, limit: int, exclude: Set[str] = frozenset(), *, decided: Decided = NONE_DECIDED
    ) -> tuple[Transaction, ...]:
        """Up to ``limit`` pending transactions whose ids are neither in
        ``exclude`` nor ``decided``.

        A proposer excludes its delivered log as ``decided`` and the
        (short, per-block) undelivered segment below its parent as
        ``exclude``: each test is one dict or set lookup, and nothing is
        united or copied.
        """
        if limit <= 0:
            return ()
        selected: list[Transaction] = []
        pid, skipped = self.pid, self._skipped
        depths, depth = decided
        depth_of = depths.get
        for entry in islice(self.log._entries, self._cursor, None):
            tx_id = entry.tx_id
            if (
                tx_id in exclude
                or depth_of(tx_id, _UNDECIDED) <= depth
                or pid not in entry.audience
                or entry in skipped
            ):
                continue
            selected.append(entry.tx)
            if len(selected) >= limit:
                break
        return tuple(selected)

    def mark_included(
        self, tx_ids: Set[str] = frozenset(), *, decided: Decided = NONE_DECIDED
    ) -> None:
        """Drop transactions that have been observed in a delivered log:
        those of ``tx_ids`` and those ``decided``.

        Either may be the whole delivered log: the cost is one walk of
        the pending entries, and the cursor moves past every entry
        before the first one still held.
        """
        pid, log, skipped = self.pid, self.log, self._skipped
        depths, depth = decided
        depth_of = depths.get
        cursor = self._cursor
        at_cursor = True
        removed = 0
        for entry in islice(log._entries, cursor, None):
            # Inclusion first: most pending entries are not included yet.
            tx_id = entry.tx_id
            if tx_id in tx_ids or depth_of(tx_id, _UNDECIDED) <= depth:
                if pid not in entry.audience or entry in skipped:
                    if at_cursor:
                        skipped.discard(entry)
                        cursor += 1
                    continue
                removed += 1
                if at_cursor:
                    cursor += 1
                else:
                    skipped.add(entry)
                entry.left -= 1
                if not entry.left:
                    log._died(entry)
            elif at_cursor:
                if pid in entry.audience and entry not in skipped:
                    at_cursor = False
                else:
                    skipped.discard(entry)
                    cursor += 1
        self._cursor = cursor
        self._removed += removed
        log._compact()

    def pending_ids(self) -> frozenset[str]:
        """Ids of all transactions currently pending."""
        pid, skipped = self.pid, self._skipped
        entries = islice(self.log._entries, self._cursor, None)
        return frozenset(e.tx_id for e in entries if pid in e.audience and e not in skipped)


def admit_arrivals(
    transactions: Sequence[Transaction], awake: Set[int], pools: Iterable[Mempool | None]
) -> None:
    """Offer ``transactions`` to ``pools``, those of the ``awake`` pids
    (``None`` takes none): one admission per transaction and log, for
    the pools on that log.  When those are all of ``awake``, the
    audience is ``awake`` itself, the set the schedule already keeps."""
    audiences: dict[ArrivalLog, tuple[Mempool, list[int]]] = {}
    for pool in pools:
        if pool is not None:
            audiences.setdefault(pool.log, (pool, []))[1].append(pool.pid)
    for pool, pids in audiences.values():
        audience = frozenset(awake if len(pids) == len(awake) else pids)
        for tx in transactions:
            pool.add(tx, audience)
