"""The shared message-ingestion pipeline: crypto → interning → batches.

Every execution backend feeds delivered messages through one
:class:`IngestPipeline` per run, and every protocol consumes the
resulting :class:`~repro.sleepy.messages.VerifiedBatch`.  The pipeline
stacks two layers, each shared run-wide:

1. **One verdict table** — an LRU
   (:class:`~repro.sleepy.messages.MessageInterner`) in front of the
   registry's ``verify_batch``, so a message multicast to n recipients
   is verified **once**, not n times.  Verification is deterministic,
   so sharing verdicts changes no semantics.  The table is keyed by
   :attr:`~repro.sleepy.messages.Message.content_key` — kind, claimed
   sender, signed fields and signature, compared exactly; no hash, no
   memo — so a message whose ``sender`` does not match the key that
   produced its signature is rejected even when the signature is a
   valid tag for some *other* registered process; and
   messages are well-typed by construction, so the verifier rejects
   and never raises.  An accepted verdict is the first verified
   instance of the logical message, which becomes canonical: the bus,
   vote stores, proposal tables, and traces share one object per
   logical message, and re-verification of a canonical instance is an
   O(1) identity check.
2. **Batch sharing** — the message bus (the round simulator's, and each
   deployment shard's) hands the *same* tail tuple to every caught-up
   receiver; the pipeline memoises the classified
   :class:`~repro.sleepy.messages.VerifiedBatch` per delivered tuple
   (by identity, holding the tuple alive so the key can never be
   recycled), so verification, classification, and per-vote record
   extraction run once per delivery instead of once per receiver.  A
   tuple is shared within its round only, so the memo holds the round
   in progress's few tuples and is emptied as the next round is entered
   (:meth:`IngestPipeline.advance`): no closed round's messages stay
   alive through it.

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
    REJECTED,
    IdentityMemo,
    Message,
    MessageInterner,
    VerifiedBatch,
    check_payload,
)

#: How many distinct delivered tuples of the round in progress keep
#: their classified batch alive, on either substrate.  A tuple is shared
#: within its round only (the caught-up receivers' one, and one per
#: sleeper waking in it), so the memo is emptied as each round is
#: entered (:meth:`IngestPipeline.advance`) and a few entries suffice.
BATCH_MEMO_CAPACITY = 4


class IngestPipeline:
    """Run-shared verification pipeline every backend feeds.

    One verdict table and one batch memo per run (or shard).  The round
    step enters each round through :meth:`advance`, which releases the
    verdicts below the delivery's floor and the batches of the round
    just closed, so what the pipeline keeps alive is bounded by what a
    receiver can still get.
    """

    def __init__(self, registry: KeyRegistry) -> None:
        self._registry = registry
        self._interner = MessageInterner()
        #: Delivered tuple -> its classified batch.
        self._batch_memo = IdentityMemo(BATCH_MEMO_CAPACITY)
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

    def advance(self, now: int, floor: int) -> None:
        """Enter round ``now``: forget the verdicts entered before round
        ``floor`` (:meth:`MessageInterner.advance`) and every memoised
        batch, since a delivered tuple is shared within its round only."""
        self._interner.advance(now, floor)
        self._batch_memo.clear()

    # ------------------------------------------------------------------
    # Single-message path
    # ------------------------------------------------------------------
    def verify(self, message: Message) -> bool:
        """Memoised verification with interning and an identity fast path."""
        interner = self._interner
        if interner.is_canonical(message):
            self.stats["identity_hits"] += 1
            return True
        key = message.content_key
        known = interner.lookup(key)
        if known is None:
            known = self._resolve_misses({key: message})[key]
        return known is not REJECTED

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def batch(self, messages: Sequence[Message]) -> VerifiedBatch:
        """The shared :class:`VerifiedBatch` for one delivery.

        Tuple deliveries (the bus's shared synchronous tails, in the
        simulator and in a deployment shard alike) are memoised by
        identity; list deliveries (per-receiver backlog catch-ups, and a
        shard node's share of what has reached it) are classified per
        call but still hit the interner's identity path per message.
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
        resolved: list[object] = []
        #: First instance per missing key; where each miss sits in ``resolved``.
        misses: dict[tuple, Message] = {}
        pending: list[tuple[int, tuple]] = []
        for message in messages:
            if interner.is_canonical(message):
                self.stats["identity_hits"] += 1
                resolved.append(message)
                continue
            key = message.content_key
            known = interner.lookup(key)
            if known is None:
                misses.setdefault(key, message)
                pending.append((len(resolved), key))
            resolved.append(known)
        if misses:
            verdicts = self._resolve_misses(misses)
            for i, key in pending:
                resolved[i] = verdicts[key]
        verified = [m for m in resolved if m is not REJECTED]
        rejected = len(messages) - len(verified)
        self.stats["batches_built"] += 1
        self.stats["messages_ingested"] += len(messages)
        self.stats["rejected"] += rejected
        return VerifiedBatch(verified, rejected=rejected)  # type: ignore[arg-type]

    def _resolve_misses(self, misses: dict[tuple, Message]) -> dict[tuple, object]:
        # The one place actual crypto happens: push the distinct missing
        # signature claims through the registry's batch API (VRF checks
        # stay per proposal) and enter every verdict in the table.
        # Returns key -> canonical message | REJECTED.
        items = [(m.sender, m.signature, m._signed_fields()) for m in misses.values()]
        self.stats["crypto_verifications"] += len(items)
        tag_ok = self._registry.verify_batch(items)
        verdicts: dict[tuple, object] = {}
        interner = self._interner
        for (key, message), ok in zip(misses.items(), tag_ok):
            if ok and check_payload(self._registry, message):
                verdicts[key] = interner.intern(message, key)
            else:
                interner.reject(key)
                verdicts[key] = REJECTED
        return verdicts
