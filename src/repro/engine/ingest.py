"""The shared message-ingestion pipeline: crypto → interning → batches.

Every execution backend feeds delivered messages through one
:class:`IngestPipeline` per run, and every protocol consumes the
resulting :class:`~repro.sleepy.messages.VerifiedBatch`.  The pipeline
stacks three layers, each shared run-wide:

1. **Cached verification** — the digest-keyed LRU verdict cache of
   :class:`~repro.sleepy.messages.CachedVerifier` (backed by
   :class:`~repro.crypto.signatures.VerificationCache` and the
   registry's ``verify_batch``), so a message multicast to n recipients
   is verified **once**, not n times.
2. **Interning** — the first verified instance of a logical message
   becomes canonical (:class:`~repro.sleepy.messages.MessageInterner`);
   the bus, vote stores, proposal tables, and traces then share one
   object per logical message, and re-verification of a canonical
   instance is an O(1) identity check with no hashing at all.
3. **Batch sharing** — the round simulator's bus hands the *same* tail
   tuple to every caught-up receiver; the pipeline memoises the
   classified :class:`~repro.sleepy.messages.VerifiedBatch` per
   delivered tuple (by identity, holding the tuple alive so the key can
   never be recycled), so verification, classification, and per-vote
   record extraction run once per delivery instead of once per
   receiver.

Protocol code never imports this module at runtime: processes receive
the pipeline through the :data:`~repro.sleepy.process.ProcessFactory`
third argument (typed as the base ``CachedVerifier``) and call its
``batch``/``verify`` methods duck-typed, which keeps the engine ↔
protocol import graph acyclic.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.crypto.signatures import KeyRegistry, VerificationCache
from repro.sleepy.messages import (
    CachedVerifier,
    DigestMemo,
    IdentityMemo,
    Message,
    MessageInterner,
    VerifiedBatch,
)

#: How many distinct delivered tuples keep their classified batch alive.
#: Per round there are only a handful of distinct cursor positions
#: (caught-up receivers share one), so a small window suffices.
DEFAULT_BATCH_MEMO_CAPACITY = 32


class IngestPipeline(CachedVerifier):
    """Run-shared verification pipeline every backend feeds.

    A drop-in :class:`~repro.sleepy.messages.CachedVerifier` (processes
    are constructed against that interface) that adds interning, an
    identity fast path, and per-delivery batch memoisation.
    """

    def __init__(
        self,
        registry: KeyRegistry,
        cache: VerificationCache | None = None,
        batch_memo_capacity: int = DEFAULT_BATCH_MEMO_CAPACITY,
    ) -> None:
        super().__init__(registry, cache=cache)
        self._interner = MessageInterner()
        #: Digests of the objects that are not (yet) canonical: a decoded
        #: duplicate sits in several inboxes and is hashed for the first.
        self._digests = DigestMemo()
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
    def interner(self) -> MessageInterner:
        """The run's canonical-instance table."""
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
        digest = self._digests.digest(message)
        if interner.lookup(digest) is not None:
            return True
        verdict = self._cache.get(digest)
        if verdict is None:
            verdict = self._resolve_misses((message,), (digest,), (0,))[digest]
        if verdict:
            interner.intern(message, digest)
        return verdict

    def _note_crypto(self, count: int) -> None:
        self.stats["crypto_verifications"] += count

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
        # Resolve each message to its canonical instance (or None if
        # rejected); actual crypto for the residue of cache misses goes
        # through the base class's shared dedup + registry-batch helper.
        interner = self._interner
        cache = self._cache
        resolved_messages: list[Message | None] = [None] * len(messages)
        digests: list[str | None] = [None] * len(messages)
        pending: list[int] = []
        rejected = 0
        for i, message in enumerate(messages):
            if interner.is_canonical(message):
                self.stats["identity_hits"] += 1
                resolved_messages[i] = message
                continue
            digest = self._digests.digest(message)
            canonical = interner.lookup(digest)
            if canonical is not None:
                resolved_messages[i] = canonical
                continue
            digests[i] = digest
            verdict = cache.get(digest)
            if verdict is None:
                pending.append(i)
            elif verdict:
                resolved_messages[i] = interner.intern(message, digest)
            else:
                rejected += 1
        if pending:
            verdicts = self._resolve_misses(messages, digests, pending)  # type: ignore[arg-type]
            for i in pending:
                if verdicts[digests[i]]:
                    resolved_messages[i] = interner.intern(messages[i], digests[i])
                else:
                    rejected += 1
        verified = [m for m in resolved_messages if m is not None]
        self.stats["batches_built"] += 1
        self.stats["messages_ingested"] += len(messages)
        self.stats["rejected"] += rejected
        return VerifiedBatch(verified, rejected=rejected)
