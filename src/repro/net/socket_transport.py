"""Real socket transport: length-prefixed frames over TCP or UDS.

The multi-process deployment fabric.  Each worker (worker 0 in the
coordinator's process, the others spawned) hosts a *shard* of the
deployment's nodes and one :class:`SocketTransport`.  Every shard
computes the whole flood (:mod:`repro.net.gossip`), so what crosses the
mesh is announcements only: a message that entered the flood at a pid
this worker hosts, and when, written once to every peer worker
(:meth:`SocketTransport.announce`), and a node's stop.  The
point-to-point surface it inherits
(:class:`~repro.net.transport.PushDelivery`: ``send``, ``park``, the
wheel, subscribers) has no caller in ``src/``: no frame takes it, and
it waits to be deleted.  Because a link's draw is a pure
function of the seed, the link and the message, a sharded run draws
exactly the modelled latencies the single-process run would.

Delivery is pushed: the socket reader hands each announcement of a
decoded batch to the flood's listener, in batch order, before it reads
the next blob.  A message crosses to each other process once, so every
body a worker reads is new to it and is decoded once, as it is read;
nothing remembers bodies.  What repeats across bodies is the
transactions of one view's proposals, so each transport keeps one
bounded **transaction table** (:class:`TransactionTable`): a decoded
:class:`~repro.chain.transactions.Transaction` equal to one the table
holds *is* that object, constructed and hashed once per process.

A body decodes through the table's own unpickler, whose ``find_class``
opens onto the wire's six types and nothing else: a body naming any
other global (a bomb's ``__reduce__`` target, ``builtins.getattr``, a
module nobody has) is refused before anything is imported or called.
A body that would decode to an ill-typed message (a ``float`` round:
its ``__setstate__`` raises), or that rewrites the state of a
transaction or block it built, is an undecodable body like any other.

Wire format: every write is a 4-byte big-endian length followed by a
blob.  There are two blob layouts, one per channel:

* **v1 single frame** — a pickle of one object (pickles at protocol
  ≥ 2 always start with the ``0x80`` PROTO opcode).  This is the
  control channel's format only — its other end is the coordinator,
  in the run's own parent process — and the data mesh never reads it.
* **v4 announcement batch** — version byte ``0x04``, then an entry list
  (u32 count, each entry ``u32 pid · f64 instant · u32 body length``
  followed by the body's bytes).  The instant is seconds since the
  run's shared start — finite and non-negative — and body length
  ``0xFFFFFFFF`` is a stop, which carries no body.  Every announcement
  made in one turn of the event loop rides one batch write per peer.
  It is the only layout the data mesh accepts: a data blob that does
  not decode as a batch is counted by reason — torn framing in
  ``frames_rejected_torn``, a body that is not a wire object in
  ``frames_rejected_refused`` — and skipped (the outer length prefix
  keeps the stream in sync).  A length prefix over ``MAX_FRAME_BYTES``
  is counted in ``frames_rejected_oversized`` and ends that connection:
  nothing can resync past a bogus length.  ``frames_rejected`` is the
  sum of the three.

Workers form a full mesh — every worker dials every other worker once
and uses that connection for its outgoing announcements; the accepting
side only reads.  A dialer's first blob on a data connection is its
**hello**, ``0x04 · u32 worker id``: a reader refuses (counted torn) and
hangs up on a connection whose first blob names no peer worker, and
refuses every entry naming a pid its connection's worker does not host,
counted in ``entries_refused``.  Addresses are UNIX domain socket paths
(strings) or ``(host, port)`` TCP tuples, so the same framing crosses
hosts unchanged.

Announcements are never dropped: an in-order stream preserves the
model's "delayed, not lost" dissemination assumption; one for a peer
whose connection is gone (a shutdown race, not load) is counted in
``misrouted_count`` rather than silently discarded, and a listener that
raises costs its own announcement only (``handler_errors``).
"""

from __future__ import annotations

import asyncio
import io
import math
import pickle
import socket
import struct
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence

from repro.chain.block import Block
from repro.chain.transactions import Transaction
from repro.crypto.vrf import VRFOutput
from repro.net.transport import LinkLatencyModel, PushDelivery
from repro.sleepy.messages import AckMessage, Message, ProposeMessage, VoteMessage

#: ``str`` → UNIX domain socket path, ``(host, port)`` → TCP.
Address = str | tuple[str, int]

_HEADER = struct.Struct(">I")
#: Hard per-frame ceiling — a corrupt or hostile length prefix must not
#: trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First blob byte of a v4 announcement batch and of a hello (never a
#: pickle's first byte: a pickle at protocol ≥ 2 begins with the PROTO
#: opcode ``0x80``).
BATCH_VERSION = 0x04
_BATCH_MARKER = bytes([BATCH_VERSION])
_U32 = struct.Struct(">I")
#: One entry's head: pid, instant (seconds since the run's start), body length.
_ENTRY = struct.Struct(">IdI")
#: The body length of a stop, which carries no body.
STOP = 0xFFFFFFFF
#: A dialer's first blob: the version byte and its worker id.
_HELLO = struct.Struct(">BI")
#: Fixed batch overhead: version byte + entry count.
_BATCH_BASE = 1 + _U32.size


def encode_frame(payload: object) -> bytes:
    """One length-prefixed v1 pickle frame for ``payload``."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(blob)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return _HEADER.pack(len(blob)) + blob


async def read_frame(reader: asyncio.StreamReader) -> object:
    """Read one v1 frame; raises :class:`asyncio.IncompleteReadError` at EOF."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return pickle.loads(await reader.readexactly(length))


def encode_batch(
    entries: Sequence[tuple[int, float, bytes | None]],
    max_bytes: int = MAX_FRAME_BYTES,
) -> list[bytes]:
    """Length-prefixed v4 announcement batch writes for ``entries``.

    Each entry is ``(pid, instant, body)``, where ``body`` is the
    message's pickle (``None`` for a stop), written right after the
    entry's head.  A batch that would exceed ``max_bytes`` splits cleanly
    at an entry boundary; a single entry whose lone batch would still
    exceed the cap raises, exactly like an oversized v1 frame.
    """
    chunks: list[bytes] = []
    parts: list[bytes] = []
    count, size = 0, _BATCH_BASE
    for pid, instant, body in entries:
        extra = _ENTRY.size + (0 if body is None else len(body))
        if size + extra > max_bytes and count:
            chunks.append(_sealed(count, parts))
            parts, count, size = [], 0, _BATCH_BASE
        if size + extra > max_bytes:
            raise ValueError(f"single entry of {extra} bytes exceeds the {max_bytes} batch cap")
        parts.append(_ENTRY.pack(pid, instant, STOP if body is None else len(body)))
        if body is not None:
            parts.append(body)
        count += 1
        size += extra
    if count:
        chunks.append(_sealed(count, parts))
    return chunks


def _sealed(count: int, parts: list[bytes]) -> bytes:
    blob = b"".join((_BATCH_MARKER, _U32.pack(count), *parts))
    return _HEADER.pack(len(blob)) + blob


def encode_hello(worker_id: int) -> bytes:
    """The length-prefixed hello a dialer writes first on a data connection."""
    return _HEADER.pack(_HELLO.size) + _HELLO.pack(BATCH_VERSION, worker_id)


#: The only globals a data body may name: the wire's message kinds and
#: what a proposal carries.
_WIRE_TYPES = {
    (cls.__module__, cls.__qualname__): cls
    for cls in (VoteMessage, AckMessage, ProposeMessage, Block, VRFOutput, Transaction)
}

#: Field types a transaction must have, exactly, to be held for sharing.
_TX_FIELD_TYPES = (int, int, bytes, str)

#: Transactions a table holds for later bodies to resolve to: a few
#: views' proposals, and all a flood of distinct ones can pin.
TRANSACTION_INTERN_CAPACITY = 1024


def _new_block(*args) -> Block:
    return Block(*args)


class _BodyUnpickler(pickle.Unpickler):
    """One body's decode, in its transaction table's context.

    ``find_class`` is the only door to a global.  Message kinds and
    :class:`VRFOutput` come back as themselves: their constructor and
    ``__setstate__`` type-check.  :class:`Block` and :class:`Transaction`
    come back as constructor calls only, so ``NEWOBJ`` cannot build one
    without running its constructor, and the transaction call resolves
    through the table.  Neither takes a ``BUILD`` (their ``__setstate__``
    raises), so no body writes onto a transaction the table shares.
    """

    def __init__(self, body: bytes, table: TransactionTable) -> None:
        super().__init__(io.BytesIO(body))
        self._transaction = table.transaction

    def find_class(self, module: str, name: str):
        cls = _WIRE_TYPES.get((module, name))
        if cls is None:
            raise pickle.UnpicklingError(f"{module}.{name} is not a wire type")
        if cls is Transaction:
            return self._transaction
        if cls is Block:
            return _new_block
        return cls


class TransactionTable:
    """The process's decoded transactions: equal exact fields, one object.

    :meth:`loads` decodes a body through :class:`_BodyUnpickler`, and
    :meth:`transaction` is where it builds a transaction: one whose four
    fields are exactly ``int, int, bytes, str`` and equal to a held
    one's *is* the held one, and a new one is held from then on.  Ids
    are recomputed at a decode, never believed from the bytes.  A flood
    of distinct transactions evicts; the table never grows past
    ``TRANSACTION_INTERN_CAPACITY``.
    """

    __slots__ = ("_transactions",)

    def __init__(self) -> None:
        #: exact-typed transaction fields -> the one object for them.
        self._transactions: OrderedDict[tuple, Transaction] = OrderedDict()

    def loads(self, body: bytes) -> object:
        """The object ``body`` is, decoded in this table's context."""
        return _BodyUnpickler(body, self).load()

    def transaction(self, *fields) -> Transaction:
        """The held transaction with exactly ``fields``, else a new one.

        Only exactly typed fields are looked up or held: for them equal
        means the same content (``1 == True`` cannot alias a held
        transaction), hence the same ``tx_id`` and validity verdict.
        """
        if tuple(map(type, fields)) != _TX_FIELD_TYPES:
            return Transaction(*fields)
        held = self._transactions
        tx = held.get(fields)
        if tx is not None:
            held.move_to_end(fields)
            return tx
        tx = held[fields] = Transaction(*fields)
        if len(held) > TRANSACTION_INTERN_CAPACITY:
            held.popitem(last=False)
        return tx


class FrameError(ValueError):
    """A data blob the wire rejects, and why (:attr:`reason`).

    ``torn``: the framing is wrong — a bad version byte, a count that
    does not fit, a truncated body, an instant that is not a finite
    non-negative number, trailing bytes.  ``refused``: the framing is
    sound but a body is not a wire object — it names a non-wire global,
    carries an ill-typed field, or writes state onto a block or
    transaction.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


def decode_batch(blob: bytes, table: TransactionTable) -> list[tuple[int, float, object]]:
    """Decode one v4 announcement batch blob into ``(pid, instant,
    payload)`` entries, ``payload`` ``None`` for a stop.

    Each body decodes in ``table``'s context.  A torn batch (an entry
    whose instant is not a finite non-negative number among them) or one
    carrying a body that does not decode raises :class:`FrameError`,
    whatever the decode itself raised, so a reader has one exception to
    count, by reason; a bad batch is never a silent partial delivery.
    """
    if not blob or blob[0] != BATCH_VERSION:
        raise FrameError("torn", "not a v4 announcement batch blob")
    try:
        (count,) = _U32.unpack_from(blob, 1)
        offset = _BATCH_BASE
        entries = []
        for _ in range(count):
            pid, instant, length = _ENTRY.unpack_from(blob, offset)
            offset += _ENTRY.size
            if not 0.0 <= instant < math.inf:
                raise FrameError("torn", f"torn batch: instant {instant!r}")
            payload = None
            if length != STOP:
                if offset + length > len(blob):
                    raise FrameError("torn", "torn batch: truncated body")
                try:
                    payload = table.loads(blob[offset : offset + length])
                except Exception as exc:
                    # Unpickling runs the wire types' constructors on what
                    # the peer wrote: a well-framed body can raise
                    # (UnpicklingError from a refused global, a TypeError
                    # from ``__setstate__``…), and all of it is the peer's
                    # malformed input, not our failure.
                    raise FrameError("refused", f"undecodable batch body: {exc!r}") from None
                offset += length
            entries.append((pid, instant, payload))
    except struct.error as exc:
        raise FrameError("torn", f"torn batch: {exc!r}") from None
    if offset != len(blob):
        raise FrameError("torn", "torn batch: trailing bytes")
    return entries


class EncodedPayloadCache:
    """A payload's body for the wire: one pickle per call.

    A message is announced once, and :meth:`SocketTransport.announce`
    hands the one body to every peer worker, so nothing is kept for a
    later call to reuse.
    """

    def encode(self, payload: object) -> bytes:
        """``payload``'s body."""
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


async def open_stream(address) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial ``address`` (UDS path or ``(host, port)`` tuple)."""
    if isinstance(address, str):
        return await asyncio.open_unix_connection(address)
    host, port = address
    return await asyncio.open_connection(host, port)


async def serve_stream(address, handler) -> asyncio.AbstractServer:
    """Listen on ``address``, calling ``handler(reader, writer)`` per peer."""
    if isinstance(address, str):
        return await asyncio.start_unix_server(handler, path=address)
    host, port = address
    return await asyncio.start_server(handler, host=host, port=port)


def supports_unix_sockets() -> bool:
    """Whether this platform can bind UNIX domain sockets."""
    return hasattr(socket, "AF_UNIX")


class SocketTransport(PushDelivery):
    """One worker's share of the socket mesh.

    Args:
        n: total deployment size (for parity with ``SimTransport``).
        local_pids: the pids this worker hosts (only these can be
            announced).
        owner: pid → worker id, for every pid of the deployment.
        worker_id: this worker's id.
        addresses: worker id → listen address for every worker.
        base_latency_s / jitter_s / seed: the modelled latency
            layer, identical to ``SimTransport``'s.

    :meth:`announce` queues an entry for every peer worker, and the
    announcements made in one turn of the event loop leave in one batch
    write per peer (:meth:`_flush_batch`).  The point-to-point surface
    inherited from :class:`~repro.net.transport.PushDelivery` has no
    caller in ``src/``.
    """

    def __init__(
        self,
        n: int,
        *,
        local_pids: Iterable[int],
        owner: Mapping[int, int],
        worker_id: int,
        addresses: Mapping[int, object],
        base_latency_s: float = 0.002,
        jitter_s: float = 0.001,
        seed: int = 0,
        slot_s: float | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError("need at least one node")
        super().__init__(
            n,
            local_pids,
            slot_s if slot_s is not None else (base_latency_s or 0.0005),
            LinkLatencyModel(base_latency_s, jitter_s, seed),
        )
        self.n = n
        self.worker_id = worker_id
        self._owner = dict(owner)
        self._addresses = dict(addresses)
        self._server: asyncio.AbstractServer | None = None
        self._peer_writers: dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: list[asyncio.Task] = []
        self._encode_cache = EncodedPayloadCache()
        #: The one transaction table: every body read, all connections.
        self._transactions = TransactionTable()
        #: Peer worker id -> entries awaiting this turn's batch write.
        self._outbox: dict[int, list[tuple[int, float, bytes | None]]] = {
            wid: [] for wid in sorted(set(self._owner.values()) - {worker_id})
        }
        #: Whether a write of the outboxes is scheduled.
        self._flushing = False
        #: Announcements written to / read from the socket mesh.
        self.frames_sent = 0
        self.frames_received = 0
        #: Batch writes issued / batch blobs decoded.
        self.batches_sent = 0
        self.batches_received = 0
        #: Data blobs that did not decode as a batch (or hello), by
        #: :class:`FrameError` reason, and length prefixes over
        #: ``MAX_FRAME_BYTES`` (``oversized``: each ends its connection).
        self.frames_rejected_torn = 0
        self.frames_rejected_refused = 0
        self.frames_rejected_oversized = 0
        #: Entries naming a pid their connection's worker does not host.
        self.entries_refused = 0
        #: Wire bytes written / read (headers included).
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Bodies pickled, and the peers past the first each body served.
        self.payload_encodes = 0
        self.payload_reuses = 0
        #: Announcements for a peer whose connection is gone.
        self.misrouted_count = 0

    @property
    def frames_rejected(self) -> int:
        """Every rejected data blob, whatever the reason."""
        return (
            self.frames_rejected_torn
            + self.frames_rejected_refused
            + self.frames_rejected_oversized
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind this worker's listener."""
        self._server = await serve_stream(self._addresses[self.worker_id], self._accept)

    async def connect(self) -> None:
        """Dial every other worker (call after all listeners are bound)
        and say hello: the first blob on each connection is this
        worker's id."""
        hello = encode_hello(self.worker_id)
        for wid, address in sorted(self._addresses.items()):
            if wid == self.worker_id:
                continue
            _, writer = await open_stream(address)
            writer.write(hello)
            self._peer_writers[wid] = writer

    async def close(self) -> None:
        """Tear down the listener, peer connections, and reader tasks.

        Pending wheel slots are flushed first — deliveries reach their
        subscribers (or the hold, for a pid already unsubscribed) — and
        announcements not written yet are, so teardown never loses one.
        """
        self.flush()
        self._flush_batch()
        for task in self._reader_tasks:
            task.cancel()
        for task in self._reader_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._reader_tasks.clear()
        for writer in self._peer_writers.values():
            writer.close()
        self._peer_writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def cancel(self) -> None:
        """Discard every pending delivery and every announcement not yet written."""
        super().cancel()
        for entries in self._outbox.values():
            entries.clear()

    # ------------------------------------------------------------------
    # Announcements
    # ------------------------------------------------------------------
    def announce(self, pid: int, elapsed: float, message: Message | None) -> None:
        """Queue ``(pid, elapsed, message)`` for every peer worker; the
        turn's announcements leave together, once the turn ends.

        The message is pickled once, and the bytes serve every peer.
        """
        outbox = self._outbox
        body = None
        if message is not None:
            body = self._encode_cache.encode(message)
            self.payload_encodes += 1
            self.payload_reuses += len(outbox) - 1
        entry = (pid, elapsed, body)
        for entries in outbox.values():
            entries.append(entry)
        self.sent_count += len(outbox)
        if not self._flushing and outbox:
            self._flushing = True
            asyncio.get_running_loop().call_soon(self._flush_batch)

    def _flush_batch(self) -> None:
        """Write every queued announcement, one batch per peer."""
        self._flushing = False
        for wid, entries in self._outbox.items():
            if not entries:
                continue
            self._outbox[wid] = []
            writer = self._peer_writers.get(wid)
            if writer is None or writer.is_closing():
                # Peer already gone (shutdown race): nothing to deliver to.
                self.misrouted_count += len(entries)
                continue
            for chunk in encode_batch(entries):
                writer.write(chunk)
                self.batches_sent += 1
                self.bytes_sent += len(chunk)
            self.frames_sent += len(entries)

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader_tasks.append(asyncio.current_task())
        try:
            peer = None
            while True:
                header = await reader.readexactly(_HEADER.size)
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    # Nothing can resync past a bogus length: count it and
                    # end this connection; the others keep serving.
                    self.frames_rejected_oversized += 1
                    break
                blob = await reader.readexactly(length)
                self.bytes_received += _HEADER.size + length
                if peer is None:
                    peer = self._hello(blob)
                    if peer is None:
                        # A connection that names no peer worker cannot
                        # announce anything: count it and hang up.
                        self.frames_rejected_torn += 1
                        break
                    continue
                try:
                    entries = decode_batch(blob, self._transactions)
                except FrameError as exc:
                    # A peer's blob is untrusted input: anything that is
                    # not a well-formed batch is counted and skipped, and
                    # the length prefix already consumed keeps the stream
                    # in sync for the next blob.
                    if exc.reason == "torn":
                        self.frames_rejected_torn += 1
                    else:
                        self.frames_rejected_refused += 1
                    continue
                self.batches_received += 1
                owner = self._owner
                for pid, elapsed, payload in entries:
                    self.frames_received += 1
                    if owner.get(pid) != peer:
                        self.entries_refused += 1
                    else:
                        self._hand_over(pid, elapsed, payload)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        except asyncio.CancelledError:
            # close() cancels reader tasks; finish quietly so the
            # streams machinery does not log the cancellation.
            pass
        finally:
            writer.close()

    def _hello(self, blob: bytes) -> int | None:
        """The peer worker a connection's first blob names, or ``None``."""
        if len(blob) != _HELLO.size or blob[0] != BATCH_VERSION:
            return None
        _, wid = _HELLO.unpack(blob)
        return wid if wid in self._outbox else None
