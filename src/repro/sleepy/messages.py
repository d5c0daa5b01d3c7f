"""Signed protocol messages (paper §2.1, "Message structure").

Every message is tagged with the round in which it was sent and carries
an unforgeable signature; messages without a valid signature are
discarded by well-behaved receivers.  Two kinds of messages exist in the
MMR family of protocols:

* ``[vote, Λ]`` — a graded-agreement vote for the log with tip ``tip``
  (paper Figures 2 and 3).  Votes reference logs by tip id; the blocks
  themselves travel in propose messages.
* ``[propose, Λ, VRF(v)]`` — a proposal of log ``Λ`` for view ``v``
  (paper Algorithm 1).  Proposals carry the *new block* so receivers can
  extend their local trees; ancestors are assumed to have been carried
  by earlier proposals (an orphan buffer handles out-of-order arrival).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.chain.block import Block, BlockId
from repro.chain.tally import EQUIVOCATED_VOTE, VoteSet
from repro.crypto.hashing import hash_fields, require_exact_types
from repro.crypto.signatures import KeyRegistry, SecretKey, Signature
from repro.crypto.vrf import VRFOutput, evaluate_vrf, verify_vrf

_INT, _STR, _TIP = (int,), (str,), (str, type(None))


@dataclass(frozen=True)
class Message:
    """Base class for signed, round-tagged messages.

    **Well-typed by construction**: the constructor and ``__setstate__``
    (the path pickle takes) accept exactly ``int`` / ``str`` / ``None`` in
    every keyed field — what the canonical encoder signs, subclasses
    refused — and raise :class:`TypeError` otherwise, so equal
    :attr:`content_key` means equal content (``5 == 5.0 == True``).
    """

    sender: int
    round: int
    signature: Signature = field(compare=False)

    #: ``(field, exact types)`` per keyed field; kinds extend it.
    _KEYED = (("sender", _INT), ("round", _INT), ("signature", _STR))

    def __post_init__(self) -> None:
        require_exact_types(self, self._KEYED)

    @property
    def content_key(self) -> tuple:
        """The message's identity: its content, compared, not hashed.

        A flat tuple — kind, claimed sender, signed fields, signature —
        built per use from type-checked fields, **never** from
        ``message_id`` (README, "Identifiers and where they are
        computed").  Verdict tables, dedup and the wire's intern table
        key by it; the kinds spell theirs out, this is the fallback.
        """
        return (type(self).__name__, self.sender, *self._signed_fields(), self.signature)

    @property
    def message_id(self) -> str:
        """Unique id (hash of contents, signature included).

        Computed on first access and memoised on the (frozen) instance,
        for the instance's owner only: the memo is dropped from pickles,
        and no consumer keys anything by it (README, "Identifiers and
        where they are computed").
        """
        cached = self.__dict__.get("_message_id")
        if cached is None:
            cached = hash_fields(type(self).__name__, *self._signed_fields(), self.signature)
            object.__setattr__(self, "_message_id", cached)
        return cached

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __setstate__(self, state: dict) -> None:
        # Declared fields only (no id a peer put in the state), type-checked.
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, state[name])
        self.__post_init__()

    def _signed_fields(self) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class VoteMessage(Message):
    """``[vote, Λ]_p`` sent in round ``round`` for the log with tip ``tip``."""

    tip: BlockId | None = None

    _KEYED = (*Message._KEYED, ("tip", _TIP))

    @property
    def content_key(self) -> tuple:
        return ("vote", self.sender, self.round, self.tip, self.signature)

    def _signed_fields(self) -> tuple:
        return ("vote", self.sender, self.round, self.tip)


@dataclass(frozen=True)
class AckMessage(Message):
    """``[ack, Λ]_p``: finality-layer acknowledgement of a delivered log.

    Not part of the paper's protocols — used by the ebb-and-flow
    finality overlay (:mod:`repro.finality`), which the paper's §3
    discussion motivates.  Acks are signed like every other message.
    """

    tip: BlockId | None = None

    _KEYED = VoteMessage._KEYED

    @property
    def content_key(self) -> tuple:
        return ("ack", self.sender, self.round, self.tip, self.signature)

    def _signed_fields(self) -> tuple:
        return ("ack", self.sender, self.round, self.tip)


@dataclass(frozen=True)
class ProposeMessage(Message):
    """``[propose, Λ, VRF_p(view)]_p`` proposing the log ending in ``block``."""

    view: int = 0
    block: Block | None = None
    vrf: VRFOutput | None = None

    _KEYED = (
        *Message._KEYED,
        ("view", _INT),
        ("block", (Block, type(None))),
        ("vrf", (VRFOutput, type(None))),
    )

    @property
    def tip(self) -> BlockId | None:
        """Tip of the proposed log."""
        return self.block.block_id if self.block is not None else None

    @property
    def content_key(self) -> tuple:
        block, vrf = self.block, self.vrf
        if block is None or vrf is None:
            return (*self._signed_fields(), self.signature)
        return (
            "propose", self.sender, self.round, self.view,
            block.block_id, vrf.value_num, vrf.proof, self.signature,
        )  # fmt: skip

    def _signed_fields(self) -> tuple:
        vrf_fields = (self.vrf.value_num, self.vrf.proof) if self.vrf else (0, "")
        return ("propose", self.sender, self.round, self.view, self.tip, *vrf_fields)


def dedup_key(message: Message) -> object:
    """What dissemination dedups by: ``message.content_key``, or a foreign
    message type's (a test double's) ``message_id``."""
    try:
        return message.content_key
    except AttributeError:
        return message.message_id


def make_vote(
    registry: KeyRegistry, key: SecretKey, round_number: int, tip: BlockId | None
) -> VoteMessage:
    """Create a signed vote message from ``key``'s holder."""
    signature = registry.sign(key, "vote", key.pid, round_number, tip)
    return VoteMessage(sender=key.pid, round=round_number, signature=signature, tip=tip)


def make_ack(
    registry: KeyRegistry, key: SecretKey, round_number: int, tip: BlockId | None
) -> AckMessage:
    """Create a signed finality acknowledgement from ``key``'s holder."""
    signature = registry.sign(key, "ack", key.pid, round_number, tip)
    return AckMessage(sender=key.pid, round=round_number, signature=signature, tip=tip)


def make_propose(
    registry: KeyRegistry,
    key: SecretKey,
    round_number: int,
    view: int,
    block: Block,
) -> ProposeMessage:
    """Create a signed propose message carrying ``block`` for ``view``.

    The VRF is evaluated on the view number, as in Algorithm 1.
    """
    vrf = evaluate_vrf(registry, key, view)
    signature = registry.sign(
        key, "propose", key.pid, round_number, view, block.block_id, vrf.value_num, vrf.proof
    )
    return ProposeMessage(
        sender=key.pid, round=round_number, signature=signature, view=view, block=block, vrf=vrf
    )


def verify_message(registry: KeyRegistry, message: Message) -> bool:
    """Signature (and, for proposals, VRF) verification.

    Well-behaved processes drop messages that fail this check, so a
    Byzantine process can only ever speak *as itself*.  The definition;
    runs go through :class:`repro.engine.ingest.IngestPipeline`, which
    batches and caches exactly this.
    """
    return registry.verify(
        message.sender, message.signature, *message._signed_fields()
    ) and check_payload(registry, message)


def check_payload(registry: KeyRegistry, message: Message) -> bool:
    """The non-signature half of :func:`verify_message`: proposal VRFs."""
    if isinstance(message, ProposeMessage):
        return message.block is not None and verify_vrf(
            registry, message.sender, message.view, message.vrf
        )
    return True


#: Entries an identity-keyed memo (the encoded-payload cache) keeps.
#: Every entry pins its object — a decoded proposal owns its block and
#: transactions — so it is a few rounds' worth, not a run's.
IDENTITY_MEMO_CAPACITY = 256


class IdentityMemo:
    """LRU memo of one value per *object*, keyed by ``id``.

    The one implementation behind the ingest pipeline's batch memo and
    the wire's encoded-payload cache.  An entry holds a strong
    reference to its key object, so the ``id``
    cannot be recycled while the entry lives, and lookups compare with
    ``is``, so an ``id`` recycled after eviction cannot alias.  Identity
    is unforgeable: an adversary-constructed object is a different
    object and never hits another's entry.  What it cannot see is an
    object mutated after its first sight — instances are immutable once
    published, the assumption :meth:`MessageInterner.is_canonical`
    already makes.
    """

    __slots__ = ("_capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("memo capacity must be positive")
        self._capacity = capacity
        #: id(key object) -> (key object, value).
        self._entries: OrderedDict[int, tuple[object, object]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, obj: object):
        """The value memoised for ``obj`` itself, else ``None``."""
        key = id(obj)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is obj:
            self._entries.move_to_end(key)
            return entry[1]
        return None

    def put(self, obj: object, value: object) -> None:
        """Memoise ``value`` for ``obj``, evicting the least recently used."""
        entries = self._entries
        entries[id(obj)] = (obj, value)
        while len(entries) > self._capacity:
            entries.popitem(last=False)


#: Default capacity of a :class:`MessageInterner`: one entry per
#: *logical* message, which covers n·rounds of votes and proposals at
#: the repository's experiment scales, and bounds what a Byzantine flood
#: of distinct messages can pin in memory.
DEFAULT_INTERNER_CAPACITY = 1 << 17

#: A key's entry in a :class:`MessageInterner` when verification
#: rejected the message: known junk is not verified again.
REJECTED = object()


class MessageInterner:
    """The verifier's one verdict table: ``content key -> canonical message | REJECTED``.

    The key is a message's :attr:`~Message.content_key` — kind, claimed
    sender, signed fields, signature, compared exactly — never its
    memoised ``message_id``, which is attacker-supplied state.  In a
    multicast model every process
    verifies the same messages, so one shared table turns n·messages
    verifications into one per logical message, and an accepted verdict
    *is* the first verified instance: the bus, vote stores, traces and
    every process's proposal table share a single object per logical
    message.  Membership of the canonical set doubles as an O(1)
    "already verified" check (the table holds strong references, so an
    ``id`` can never be recycled while it is a member — eviction removes
    the id in the same step, keeping the check sound).

    LRU-bounded: corrupted keys can sign unlimited distinct valid
    messages, anyone can send unlimited junk, and on the long-running
    deployment substrate nothing else retains messages run-wide.  An
    evicted entry is merely verified again on next sight.
    """

    def __init__(self, capacity: int = DEFAULT_INTERNER_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("interner capacity must be positive")
        self._capacity = capacity
        self._by_key: OrderedDict[tuple, object] = OrderedDict()
        # Not an IdentityMemo: membership follows ``_by_key``'s LRU
        # (evicted in the same step) and there is no value to hold.
        self._canonical_ids: set[int] = set()

    def __len__(self) -> int:
        return len(self._by_key)

    @property
    def capacity(self) -> int:
        """Maximum number of verdicts held."""
        return self._capacity

    def is_canonical(self, message: Message) -> bool:
        """Whether ``message`` *is* (identically) an interned instance."""
        return id(message) in self._canonical_ids

    def lookup(self, key: tuple) -> object:
        """The canonical instance for ``key``, :data:`REJECTED`, or
        ``None`` when the key has no verdict yet."""
        known = self._by_key.get(key)
        if known is not None:
            self._by_key.move_to_end(key)
        return known

    def intern(self, message: Message, key: tuple) -> Message:
        """Make ``message`` canonical for ``key`` (first instance wins)."""
        existing = self._by_key.get(key)
        if existing is not None and existing is not REJECTED:
            self._by_key.move_to_end(key)
            return existing  # type: ignore[return-value]
        self._by_key[key] = message
        self._canonical_ids.add(id(message))
        self._evict()
        return message

    def reject(self, key: tuple) -> None:
        """Record that the message with ``key`` failed verification."""
        self._by_key[key] = REJECTED
        self._evict()

    def _evict(self) -> None:
        while len(self._by_key) > self._capacity:
            _, evicted = self._by_key.popitem(last=False)
            self._canonical_ids.discard(id(evicted))


@dataclass(frozen=True)
class ProposalTable:
    """One delivery's proposals, resolved once for all its receivers
    (see :meth:`VerifiedBatch.proposal_table`)."""

    #: view -> sender -> the sender's first proposal for the view in
    #: this delivery, or ``None`` when it carried two with different
    #: tips (an equivocating proposer's proposals for a view are void).
    by_view: dict[int, dict[int, ProposeMessage | None]]
    #: view -> ``(VRF value, sender)`` of each sender's first sighting.
    order_rows: dict[int, list[tuple[int, int]]]
    #: ``(block, carrying sender)`` of every proposal, in delivery order.
    blocks: tuple[tuple[Block, int], ...]
    #: The largest view proposed for (-1 with no proposals).
    max_view: int


class VerifiedBatch:
    """One delivery's verified messages, classified once for all consumers.

    Built by the ingest pipeline's ``batch`` (and shared by it between
    receivers): the messages that survived verification,
    in delivery order, pre-split by kind, with the per-vote and per-ack
    ``(sender, round, tip)`` records extracted so per-receiver loops
    touch plain tuples instead of re-reading attributes n times.
    :meth:`vote_table` and :meth:`proposal_table` resolve the two kinds
    Algorithm 1 consumes — equivocations inside the delivery collapsed —
    once per delivery, so a receiver that holds nothing for a round or
    view adopts the resolved table instead of replaying its messages.
    """

    __slots__ = (
        "messages",
        "votes",
        "proposes",
        "acks",
        "others",
        "rejected",
        "_vote_table",
        "_proposal_table",
    )

    def __init__(self, messages: Sequence[Message], rejected: int = 0) -> None:
        votes: list[VoteMessage] = []
        proposes: list[ProposeMessage] = []
        acks: list[AckMessage] = []
        others: list[Message] = []
        for message in messages:
            if type(message) is VoteMessage:
                votes.append(message)
            elif type(message) is ProposeMessage:
                proposes.append(message)
            elif type(message) is AckMessage:
                acks.append(message)
            elif isinstance(message, VoteMessage):
                votes.append(message)
            elif isinstance(message, ProposeMessage):
                proposes.append(message)
            elif isinstance(message, AckMessage):
                acks.append(message)
            else:
                others.append(message)
        #: Every verified message, in delivery order.
        self.messages: tuple[Message, ...] = tuple(messages)
        self.votes: tuple[VoteMessage, ...] = tuple(votes)
        self.proposes: tuple[ProposeMessage, ...] = tuple(proposes)
        self.acks: tuple[AckMessage, ...] = tuple(acks)
        self.others: tuple[Message, ...] = tuple(others)
        #: How many delivered messages failed verification.
        self.rejected = rejected
        self._vote_table: dict[int, VoteSet] | None = None
        self._proposal_table: ProposalTable | None = None

    def __len__(self) -> int:
        return len(self.messages)

    def ack_records(self) -> Iterable[tuple[int, int, BlockId | None]]:
        """``(sender, round, tip)`` per verified ack, in delivery order."""
        return ((m.sender, m.round, m.tip) for m in self.acks)

    def vote_table(self) -> dict[int, VoteSet]:
        """Round-resolved vote table: ``round -> VoteSet``.

        Within-batch equivocations (two different votes by one sender
        for one round) are already voided, so a vote store can merge
        whole per-round sets — and, when it holds nothing for a round,
        adopt the set itself.  Computed once and memoised; the pipeline
        shares one batch between all receivers of the same delivery, so
        they all hold the same :class:`~repro.chain.tally.VoteSet`.
        """
        table = self._vote_table
        if table is None:
            rows: dict[int, dict[int, object]] = {}
            for message in self.votes:
                row = rows.get(message.round)
                if row is None:
                    row = rows[message.round] = {}
                existing = row.get(message.sender, _UNSEEN)
                if existing is _UNSEEN:
                    row[message.sender] = message.tip
                elif existing is not EQUIVOCATED_VOTE and existing != message.tip:
                    row[message.sender] = EQUIVOCATED_VOTE
            table = self._vote_table = {r: VoteSet.of(row) for r, row in rows.items()}
        return table

    def proposal_table(self) -> ProposalTable:
        """The delivery's proposals resolved per ``(view, sender)``.

        The proposal-side twin of :meth:`vote_table`: computed once and
        memoised, so every receiver of a shared delivery merges whole
        per-view tables and offers the blocks as one run instead of
        walking the proposals itself.  What depends on the receiver —
        its round (future-view chaff), its prune floor, what it already
        holds — is left to the receiver.
        """
        table = self._proposal_table
        if table is None:
            by_view: dict[int, dict[int, ProposeMessage | None]] = {}
            order_rows: dict[int, list[tuple[int, int]]] = {}
            blocks = []
            for message in self.proposes:
                sender = message.sender
                blocks.append((message.block, sender))
                resolved = by_view.get(message.view)
                if resolved is None:
                    resolved = by_view[message.view] = {}
                    order_rows[message.view] = []
                first = resolved.get(sender, _UNSEEN)
                if first is _UNSEEN:
                    resolved[sender] = message
                    order_rows[message.view].append((message.vrf.value_num, sender))
                elif first is not None and first.tip != message.tip:
                    resolved[sender] = None
            table = self._proposal_table = ProposalTable(
                by_view, order_rows, tuple(blocks), max(by_view, default=-1)
            )
        return table


_UNSEEN = object()
