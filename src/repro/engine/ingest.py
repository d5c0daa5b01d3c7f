"""The shared message-ingestion pipeline: crypto → interning → batches.

Every execution backend feeds delivered messages through one
:class:`IngestPipeline` per run, and every protocol consumes the
resulting :class:`~repro.sleepy.messages.VerifiedBatch`.  The pipeline
stacks two layers, each shared run-wide:

1. **One verdict table** — a digest-keyed LRU
   (:class:`~repro.sleepy.messages.MessageInterner`) in front of the
   registry's ``verify_batch``, so a message multicast to n recipients
   is verified **once**, not n times.  Verification is deterministic,
   so sharing verdicts changes no semantics; the digest is recomputed
   here rather than read from the message
   (:func:`~repro.sleepy.messages.verification_digest`), so a message
   whose ``sender`` does not match the key that produced its signature
   is rejected even when the signature is a valid tag for some *other*
   registered process.  An accepted verdict is the first verified
   instance of the logical message, which becomes canonical: the bus,
   vote stores, proposal tables, and traces share one object per
   logical message, and re-verification of a canonical instance is an
   O(1) identity check with no hashing at all.
2. **Batch sharing** — the round simulator's bus hands the *same* tail
   tuple to every caught-up receiver; the pipeline memoises the
   classified :class:`~repro.sleepy.messages.VerifiedBatch` per
   delivered tuple (by identity, holding the tuple alive so the key can
   never be recycled), so verification, classification, and per-vote
   record extraction run once per delivery instead of once per
   receiver.

This is the only verifier: no backend, test fixture or example checks a
message any other way.  Protocol code never imports this module at
runtime — processes receive the pipeline as the third argument of a
:data:`~repro.sleepy.process.ProcessFactory` and name it in annotations
only — which keeps the engine ↔ protocol import graph acyclic.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.crypto.signatures import KeyRegistry
from repro.sleepy.messages import (
    IDENTITY_MEMO_CAPACITY,
    REJECTED,
    DigestMemo,
    IdentityMemo,
    Message,
    MessageInterner,
    VerifiedBatch,
    check_payload,
)

#: How many distinct delivered tuples keep their classified batch alive.
#: Per round there are only a handful of distinct cursor positions
#: (caught-up receivers share one), so a small window suffices.
DEFAULT_BATCH_MEMO_CAPACITY = 32


class IngestPipeline:
    """Run-shared verification pipeline every backend feeds."""

    def __init__(
        self,
        registry: KeyRegistry,
        batch_memo_capacity: int = DEFAULT_BATCH_MEMO_CAPACITY,
    ) -> None:
        self._registry = registry
        self._interner = MessageInterner()
        #: The process's one :class:`DigestMemo`: the dissemination layer
        #: in front of this pipeline (the simulator's bus, a shard's
        #: gossip network) is built on it, so a message object hashed
        #: there for dedup is not hashed again here.  It has to hold a
        #: round's messages between the two: a vote, a proposal and an
        #: ack per process, with room for an adversary's.
        self.digests = DigestMemo(max(IDENTITY_MEMO_CAPACITY, 4 * registry.n))
        #: Delivered tuple -> its classified batch.
        self._batch_memo = IdentityMemo(batch_memo_capacity)
        #: Pipeline accounting (consumed by benches and tests):
        #: ``crypto_verifications`` counts actual signature/VRF checks,
        #: which the bench gate pins to one per logical message.
        self.stats = {
            "batches_built": 0,
            "batch_memo_hits": 0,
            "messages_ingested": 0,
            "crypto_verifications": 0,
            "identity_hits": 0,
            "rejected": 0,
        }

    @property
    def registry(self) -> KeyRegistry:
        return self._registry

    @property
    def interner(self) -> MessageInterner:
        """The run's verdict table."""
        return self._interner

    # ------------------------------------------------------------------
    # Single-message path
    # ------------------------------------------------------------------
    def verify(self, message: Message) -> bool:
        """Memoised verification with interning and an identity fast path."""
        interner = self._interner
        if interner.is_canonical(message):
            self.stats["identity_hits"] += 1
            return True
        digest = self.digests.digest(message)
        known = interner.lookup(digest)
        if known is None:
            known = self._resolve_misses((message,), (digest,), (0,))[digest]
        return known is not REJECTED

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def batch(self, messages: Sequence[Message]) -> VerifiedBatch:
        """The shared :class:`VerifiedBatch` for one delivery.

        Tuple deliveries (the bus's shared synchronous tails) are
        memoised by identity; list deliveries (per-receiver backlog
        catch-ups, deployment inboxes) are classified per call but still
        hit the interner's identity path per message.
        """
        if type(messages) is tuple:
            built = self._batch_memo.get(messages)
            if built is not None:
                self.stats["batch_memo_hits"] += 1
                return built
            built = self._build_batch(messages)
            self._batch_memo.put(messages, built)
            return built
        return self._build_batch(messages)

    def _build_batch(self, messages: Sequence[Message]) -> VerifiedBatch:
        # Resolve each message to its canonical instance or REJECTED;
        # actual crypto for the residue of table misses goes through
        # :meth:`_resolve_misses`.
        interner = self._interner
        resolved_messages: list[object] = [None] * len(messages)
        digests: list[str | None] = [None] * len(messages)
        pending: list[int] = []
        for i, message in enumerate(messages):
            if interner.is_canonical(message):
                self.stats["identity_hits"] += 1
                resolved_messages[i] = message
                continue
            digest = self.digests.digest(message)
            known = interner.lookup(digest)
            if known is None:
                digests[i] = digest
                pending.append(i)
            else:
                resolved_messages[i] = known
        if pending:
            resolved = self._resolve_misses(messages, digests, pending)  # type: ignore[arg-type]
            for i in pending:
                resolved_messages[i] = resolved[digests[i]]
        verified = [m for m in resolved_messages if m is not REJECTED]
        rejected = len(messages) - len(verified)
        self.stats["batches_built"] += 1
        self.stats["messages_ingested"] += len(messages)
        self.stats["rejected"] += rejected
        return VerifiedBatch(verified, rejected=rejected)  # type: ignore[arg-type]

    def _resolve_misses(
        self, messages: Sequence[Message], digests: Sequence[str], indices: Sequence[int]
    ) -> dict[str, object]:
        # The one place actual crypto happens: deduplicate the missing
        # digests, push the distinct signature claims through the
        # registry's batch API (VRF checks stay per proposal), and enter
        # every verdict in the table.  Returns digest -> canonical
        # message | REJECTED.
        distinct: list[int] = []
        seen: set[str] = set()
        for i in indices:
            digest = digests[i]
            if digest not in seen:
                seen.add(digest)
                distinct.append(i)
        items = [
            (messages[i].sender, messages[i].signature, messages[i]._signed_fields())
            for i in distinct
        ]
        self.stats["crypto_verifications"] += len(items)
        tag_ok = self._registry.verify_batch(items)
        resolved: dict[str, object] = {}
        interner = self._interner
        for i, ok in zip(distinct, tag_ok):
            digest = digests[i]
            if ok and check_payload(self._registry, messages[i]):
                resolved[digest] = interner.intern(messages[i], digest)
            else:
                interner.reject(digest)
                resolved[digest] = REJECTED
        return resolved
