"""Simulated unforgeable signatures (paper §2.1, "Processes").

Messages sent by processes come with an unforgeable signature; messages
without a valid signature are discarded.  We simulate this with HMAC-like
keyed SHA-256 tags:

* a :class:`KeyRegistry` deterministically derives one :class:`SecretKey`
  per process from a run seed (so whole runs are reproducible);
* ``sign`` produces a tag over the canonical encoding of the message;
* ``verify`` recomputes the tag from the registry.

Unforgeability holds *by construction* inside a run: the only way to
produce a valid tag for process ``p`` is to hold ``p``'s
:class:`SecretKey` object, and the simulator hands adversary code only
the keys of corrupted processes.  (The registry can verify anything —
that models the PKI every BFT protocol assumes.)
"""

from __future__ import annotations

import hashlib
import hmac
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.crypto.hashing import bytes_field, encode_fields

#: A signature is a 64-character hex tag.
Signature = str


@dataclass(frozen=True)
class SecretKey:
    """Secret signing key of one process.  Hold it, and you are the process."""

    pid: int
    seed: bytes

    def __repr__(self) -> str:  # pragma: no cover - avoid leaking seeds in logs
        return f"SecretKey(pid={self.pid})"


class KeyRegistry:
    """Derives, stores, and verifies against every process's key.

    The registry plays the role of the PKI: everyone can *verify* any
    process's signatures and VRF evaluations through it, but signing
    requires the :class:`SecretKey` object itself.

    A tag is two keyed hashes whose input starts with the key's seed;
    the registry keeps, per seed it has been presented with, the two
    SHA-256 states already fed that constant start, and a tag copies
    them.  The memo is keyed by the *seed bytes* — of the key handed to
    :meth:`sign`, or of the registered key :meth:`verify` checks against
    — never by pid, so it is a cost saving only: a ``SecretKey`` with
    the wrong seed still produces a tag nobody verifies.
    """

    def __init__(self, n: int, run_seed: int = 0) -> None:
        if n <= 0:
            raise ValueError("need at least one process")
        self._n = n
        self._seeds: dict[int, bytes] = {
            pid: encode_fields("key-seed", run_seed, pid) for pid in range(n)
        }
        #: seed bytes -> the (inner, outer) keyed states of :func:`_tag`.
        self._keyed: dict[bytes, tuple] = {}
        #: (pid, view) -> canonical VRF evaluation (:mod:`repro.crypto.vrf`'s).
        self.vrf_memo: OrderedDict[tuple[int, int], object] = OrderedDict()

    @property
    def n(self) -> int:
        """Number of registered processes."""
        return self._n

    def secret_key(self, pid: int) -> SecretKey:
        """The secret key of ``pid``.

        The simulator calls this when constructing honest processes and
        when handing corrupted processes' keys to the adversary; nothing
        else should.
        """
        try:
            return SecretKey(pid, self._seeds[pid])
        except KeyError:
            raise ValueError(f"unknown process id {pid}") from None

    def is_registered(self, key: SecretKey) -> bool:
        """Whether ``key`` is the key this registry verifies ``key.pid`` against."""
        return self._seeds.get(key.pid) == key.seed

    def sign(self, key: SecretKey, *fields) -> Signature:
        """Sign the canonical encoding of ``fields`` with ``key``."""
        return _tag(self._states_of(key.seed), encode_fields(*fields))

    def _states_of(self, seed: bytes) -> tuple:
        states = self._keyed.get(seed)
        if states is None:
            states = self._keyed[seed] = _keyed_states(seed)
        return states

    def verify(self, pid: int, signature: Signature, *fields) -> bool:
        """Check that ``pid`` signed ``fields``."""
        seed = self._seeds.get(pid)
        if seed is None:
            return False
        return _same_tag(_tag(self._states_of(seed), encode_fields(*fields)), signature)

    def verify_batch(
        self, items: Sequence[tuple[int, Signature, tuple]]
    ) -> list[bool]:
        """Verify many ``(pid, signature, fields)`` claims in one call.

        Returns one verdict per item, in order.  This is the batch seam
        the shared ingest pipeline feeds: a multicast message reaches
        every recipient, but its tag only needs to be recomputed once —
        callers deduplicate by content key (see
        :class:`~repro.sleepy.messages.MessageInterner`) and push only
        the distinct misses through here.
        """
        seeds = self._seeds
        states_of = self._states_of
        verdicts: list[bool] = []
        for pid, signature, fields in items:
            seed = seeds.get(pid)
            if seed is None:
                verdicts.append(False)
            else:
                verdicts.append(_same_tag(_tag(states_of(seed), encode_fields(*fields)), signature))
        return verdicts


def _keyed_states(seed: bytes) -> tuple:
    """The two SHA-256 states of :func:`_tag` for one key: fed
    everything of ``encode_fields(b"inner" | b"outer", seed, x)`` that
    precedes ``x``, which is the same for every ``x``."""
    empty = len(bytes_field(b""))
    return tuple(
        hashlib.sha256(encode_fields(label, seed, b"")[:-empty]) for label in (b"inner", b"outer")
    )


def _same_tag(tag: Signature, claimed: Signature) -> bool:
    # ``compare_digest`` raises on non-ASCII; a sender's claim is rejected.
    return claimed.isascii() and hmac.compare_digest(tag, claimed)


def _tag(states: tuple, message: bytes) -> Signature:
    # Standard HMAC construction over SHA-256 (inner/outer keyed hashes):
    # sha256(encode_fields(b"outer", seed, sha256(encode_fields(b"inner",
    # seed, message)))), byte for byte, from the key's pre-fed states.
    inner = states[0].copy()
    inner.update(bytes_field(message))
    outer = states[1].copy()
    outer.update(bytes_field(inner.digest()))
    return outer.hexdigest()
