"""Real socket transport: length-prefixed frames over TCP or UDS.

The multi-process deployment fabric.  Each worker process hosts a
*shard* of the deployment's nodes and one :class:`SocketTransport`:
sends between two pids of the same shard loop back through the delivery
wheel (exactly like :class:`~repro.net.transport.SimTransport`), sends
to a remote pid are pickled into a length-prefixed frame and written to
the socket of the worker that owns the destination.  The surface is the
same ``send(src, dst, payload)`` / ``subscribe(pid, handler)`` pair plus
the seeded :class:`~repro.net.transport.LinkLatencyModel` surge model,
so :class:`~repro.net.gossip.GossipNetwork` runs unchanged on either
substrate — and, because latency streams are per-link and content
seeded, a sharded run draws exactly the modelled latencies the
single-process run would (real socket hops add on top; δ absorbs them).

Delivery is pushed on both paths: a wheel slot hands a local frame to
its pid's subscriber, and the socket reader hands over each frame of a
decoded batch, in batch order, before it reads the next blob.  The
reader keeps a bounded **decode memo** (body bytes → decoded object), so
a body that rides several batches — gossip offers one message to a
worker once per overlay edge that crosses into it — is unpickled once
per process and every later frame carries the *same object*.  A body
that would decode to an ill-typed message (a ``float`` round: its
``__setstate__`` raises) is an undecodable body like any other.

Wire format: every write is a 4-byte big-endian length followed by a
blob.  There are two blob layouts, one per channel:

* **v1 single frame** — a pickle of one object (pickles at protocol
  ≥ 2 always start with the ``0x80`` PROTO opcode).  This is the
  control channel's format only; the data mesh never reads it.
* **frame v2 batch** — version byte ``0x02``, then an **intern table**
  of distinct encoded payload bodies (u16 count, each body
  length-prefixed u32), then a frame list (u32 count, each frame
  ``u32 src · u32 dst · u16 body index``).  Every frame coalesced into
  the same delivery slot for the same worker rides one batch write, and
  a payload broadcast to many destinations is pickled once and
  referenced by offset — the per-destination cost is ten bytes of
  header.  It is the only layout the data mesh accepts: a data blob
  that does not decode as a batch is counted in ``frames_rejected`` and
  skipped (the outer length prefix keeps the stream in sync).

Workers form a full mesh — every worker dials every other worker once
and uses that connection for its outgoing frames; the accepting side
only reads.  Addresses are UNIX domain socket paths (strings) or
``(host, port)`` TCP tuples, so the same framing crosses hosts
unchanged.

Frames are never dropped: an in-order stream plus a hold for frames
whose pid has no subscriber preserve the model's "delayed, not lost"
dissemination assumption; a frame for a pid this worker does not host (a
routing bug, not load) is counted in ``misrouted_count`` rather than
silently discarded, and a subscriber that raises costs its own frame
only (``handler_errors``).
"""

from __future__ import annotations

import asyncio
import math
import pickle
import socket
import struct
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence

from repro.net.transport import LinkLatencyModel, PushDelivery, SurgeWindow
from repro.sleepy.messages import IDENTITY_MEMO_CAPACITY, IdentityMemo, Message

#: ``str`` → UNIX domain socket path, ``(host, port)`` → TCP.
Address = str | tuple[str, int]

_HEADER = struct.Struct(">I")
#: Hard per-frame ceiling — a corrupt or hostile length prefix must not
#: trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First blob byte of a frame v2 batch (never a pickle's first byte: a
#: pickle at protocol ≥ 2 begins with the PROTO opcode ``0x80``).
BATCH_VERSION = 0x02
_BATCH_MARKER = bytes([BATCH_VERSION])
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_FRAME_REF = struct.Struct(">IIH")
#: Fixed batch overhead: version byte + body count + frame count.
_BATCH_BASE = 1 + _U16.size + _U32.size


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
    frames: Sequence[tuple[int, int, object, bytes]],
    max_bytes: int = MAX_FRAME_BYTES,
) -> list[bytes]:
    """Length-prefixed frame v2 batch writes for ``frames``.

    Each frame is ``(src, dst, intern_key, body)`` where ``body`` is the
    payload's pickle and ``intern_key`` groups equal bodies (the encode
    cache supplies a message's ``content_key``, or a body-identity
    fallback for foreign payloads).  Bodies are written once per batch
    and referenced by offset.  A batch that would exceed ``max_bytes``
    splits cleanly at a frame boundary (bodies are re-emitted in the
    next chunk); a single frame whose lone batch would still exceed the
    cap raises, exactly like an oversized v1 frame.
    """
    chunks: list[bytes] = []
    start = 0
    while start < len(frames):
        bodies: list[bytes] = []
        index: dict[object, int] = {}
        refs: list[tuple[int, int, int]] = []
        size = _BATCH_BASE
        i = start
        while i < len(frames):
            _src, _dst, key, body = frames[i]
            body_index = index.get(key)
            extra = _FRAME_REF.size
            if body_index is None:
                extra += _U32.size + len(body)
            if size + extra > max_bytes or (body_index is None and len(bodies) > 0xFFFF - 1):
                if not refs:
                    raise ValueError(
                        f"single frame of {len(body)} bytes exceeds the {max_bytes} batch cap"
                    )
                break
            if body_index is None:
                body_index = index[key] = len(bodies)
                bodies.append(body)
            refs.append((frames[i][0], frames[i][1], body_index))
            size += extra
            i += 1
        parts = [_BATCH_MARKER, _U16.pack(len(bodies))]
        for body in bodies:
            parts.append(_U32.pack(len(body)))
            parts.append(body)
        parts.append(_U32.pack(len(refs)))
        for ref in refs:
            parts.append(_FRAME_REF.pack(*ref))
        blob = b"".join(parts)
        chunks.append(_HEADER.pack(len(blob)) + blob)
        start = i
    return chunks


class DecodedBodyMemo:
    """Body bytes → decoded object, LRU-bounded: one decode per process.

    The read-side mirror of :class:`EncodedPayloadCache`.  The key is
    the body's bytes themselves — equal bytes decode to equal content,
    so handing back the first decode is the same value at none of the
    cost, and a body differing in one byte is a different key.  Decoded
    payloads are immutable once published (the assumption every
    identity memo already makes), so sharing one object across batches
    and destinations is safe; ids are still recomputed at that first
    decode, never believed from the bytes.  A flood of distinct bodies
    evicts, it never grows past ``capacity`` entries.
    """

    __slots__ = ("_capacity", "_entries")

    def __init__(self, capacity: int = IDENTITY_MEMO_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("memo capacity must be positive")
        self._capacity = capacity
        self._entries: OrderedDict[bytes, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def loads(self, body: bytes) -> object:
        """``pickle.loads(body)``, performed once per distinct live body."""
        entries = self._entries
        try:
            payload = entries[body]
        except KeyError:
            payload = entries[body] = pickle.loads(body)
            if len(entries) > self._capacity:
                entries.popitem(last=False)
        else:
            entries.move_to_end(body)
        return payload


def decode_batch(
    blob: bytes, memo: DecodedBodyMemo | None = None
) -> list[tuple[int, int, object]]:
    """Decode one frame v2 batch blob into ``(src, dst, payload)`` frames.

    Each distinct body is unpickled exactly once: every frame
    referencing it shares the resulting payload object, mirroring the
    in-process bus handing one canonical instance to many receivers.
    With a ``memo`` that sharing extends across batches — a body seen in
    an earlier blob decodes to the object it decoded to then.
    Truncated or inconsistent batches, and batches carrying a body that
    does not decode, raise :class:`ValueError` — whatever the decode
    itself raised — so a reader has one exception to count; a bad batch
    is never a silent partial delivery.
    """
    if not blob or blob[0] != BATCH_VERSION:
        raise ValueError("not a frame v2 batch blob")
    view = memoryview(blob)
    try:
        offset = 1
        (n_bodies,) = _U16.unpack_from(view, offset)
        offset += _U16.size
        payloads = []
        for _ in range(n_bodies):
            (length,) = _U32.unpack_from(view, offset)
            offset += _U32.size
            if offset + length > len(blob):
                raise ValueError("torn batch frame: truncated body")
            body = view[offset : offset + length]
            try:
                payloads.append(pickle.loads(body) if memo is None else memo.loads(bytes(body)))
            except Exception as exc:
                # Unpickling runs constructors and imports the peer named:
                # a well-framed body can raise anything (ModuleNotFoundError,
                # AttributeError, a TypeError from ``__init__``…), and all
                # of it is the peer's malformed input, not our failure.
                raise ValueError(f"undecodable batch body: {exc!r}") from None
            offset += length
        (n_frames,) = _U32.unpack_from(view, offset)
        offset += _U32.size
        frames = []
        for _ in range(n_frames):
            src, dst, body_index = _FRAME_REF.unpack_from(view, offset)
            offset += _FRAME_REF.size
            frames.append((src, dst, payloads[body_index]))
    except (struct.error, IndexError) as exc:
        raise ValueError(f"torn batch frame: {exc!r}") from None
    if offset != len(blob):
        raise ValueError("torn batch frame: trailing bytes")
    return frames


class EncodedPayloadCache:
    """Encoded payload bodies for send fan-outs, one pickle per object.

    A broadcast hands the *same* payload object to ``send`` once per
    destination; this cache pickles it on first sight and reuses the
    bytes for every later destination, so a fan-out at n = 1000 costs
    one pickle, not ~1000.  Entries live in an
    :class:`~repro.sleepy.messages.IdentityMemo` (keyed by the payload
    object, LRU-bounded: a flood of distinct payloads evicts, it never
    grows without bound).  The batch intern table is keyed by a
    message's ``content_key`` (README, "Identifiers and where they are
    computed"), so two distinct instances of one logical message still
    share a single body on the wire.
    """

    def __init__(self, capacity: int = IDENTITY_MEMO_CAPACITY) -> None:
        #: payload -> encoded body.
        self._bodies = IdentityMemo(capacity)

    def encode(self, payload: object) -> tuple[object, bytes, bool]:
        """``(intern_key, body, freshly_encoded)`` for ``payload``."""
        body = self._bodies.get(payload)
        fresh = body is None
        if fresh:
            body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self._bodies.put(payload, body)
        key = payload.content_key if isinstance(payload, Message) else ("raw", body)
        return key, body, fresh


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
    """One worker's point-to-point fabric over the socket mesh.

    Args:
        n: total deployment size (for parity with ``SimTransport``).
        local_pids: the pids this worker hosts (only these can be
            subscribed to).
        owner: pid → worker id, for every pid of the deployment.
        worker_id: this worker's id.
        addresses: worker id → listen address for every worker.
        base_latency_s / jitter_s / seed / surges: the modelled latency
            layer, identical to ``SimTransport``'s.
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
        surges: tuple[SurgeWindow, ...] = (),
        slot_s: float | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError("need at least one node")
        #: Delivery slot width: δ/8 in deployments (the base link
        #: latency), so quantization hides inside the modelled jitter.
        self._slot_s = slot_s if slot_s is not None else (base_latency_s or 0.0005)
        super().__init__(local_pids, self._slot_s)
        self.n = n
        self.worker_id = worker_id
        self._owner = dict(owner)
        self._addresses = dict(addresses)
        self._latency = LinkLatencyModel(base_latency_s, jitter_s, seed, surges)
        self._server: asyncio.AbstractServer | None = None
        self._peer_writers: dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: list[asyncio.Task] = []
        self._origin: float | None = None
        self._encode_cache = EncodedPayloadCache()
        self._decode_memo = DecodedBodyMemo()
        #: (slot, worker id) -> frames awaiting that slot's batch write.
        self._slot_batches: dict[tuple[int, int], list[tuple[int, int, object, bytes]]] = {}
        #: Sends initiated by this worker's nodes (local + remote).
        self.sent_count = 0
        #: Logical frames written to / read from the socket mesh.
        self.frames_sent = 0
        self.frames_received = 0
        #: Batch writes issued / batch blobs decoded.
        self.batches_sent = 0
        self.batches_received = 0
        #: Data blobs that did not decode as a frame v2 batch.
        self.frames_rejected = 0
        #: Wire bytes written / read (headers included).
        self.bytes_sent = 0
        self.bytes_received = 0
        #: Payload pickles actually performed vs interned-bytes reuses.
        self.payload_encodes = 0
        self.payload_reuses = 0
        #: Frames that arrived for a pid this worker does not host.
        self.misrouted_count = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind this worker's listener."""
        self._server = await serve_stream(self._addresses[self.worker_id], self._accept)

    async def connect(self) -> None:
        """Dial every other worker (call after all listeners are bound)."""
        for wid, address in sorted(self._addresses.items()):
            if wid == self.worker_id:
                continue
            _, writer = await open_stream(address)
            self._peer_writers[wid] = writer

    def anchor(self, origin_loop_time: float | None = None) -> None:
        """Anchor ``now()`` (default: the current loop time).

        Workers of one deployment anchor at the *shared* round-clock
        origin so surge windows open and close simultaneously everywhere.
        """
        self._origin = (
            origin_loop_time
            if origin_loop_time is not None
            else asyncio.get_running_loop().time()
        )

    async def close(self) -> None:
        """Tear down the listener, peer connections, and reader tasks.

        Pending wheel slots are flushed first — deliveries reach their
        subscribers (or the hold, for a pid already unsubscribed) and
        outstanding batches are written — so teardown never loses a
        frame whose slot had not fired yet.
        """
        self.wheel.flush()
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

    # ------------------------------------------------------------------
    # The transport surface (same as SimTransport)
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since :meth:`anchor`."""
        if self._origin is None:
            raise RuntimeError("transport not anchored")
        return asyncio.get_running_loop().time() - self._origin

    def latency(self, src: int, dst: int, at_s: float) -> float:
        """Sampled one-way latency for ``src → dst`` at ``at_s`` (per-link stream)."""
        return self._latency.latency(src, dst, at_s)

    def send(self, src: int, dst: int, payload: object) -> None:
        """Send ``payload`` to ``dst`` after the modelled link latency.

        A fan-out of one: see :meth:`send_many`.
        """
        self.send_many(src, (dst,), payload)

    def send_many(self, src: int, dsts: Iterable[int], payload: object) -> None:
        """Fan ``payload`` out from ``src`` to every pid in ``dsts``.

        Local destinations loop back through the delivery wheel; remote
        ones ride the owning worker's connection once the modelled
        latency has elapsed (the real socket adds its own).  Deliveries
        are bucketed into wheel slots — one timer per slot — and every
        remote frame sharing a ``(slot, worker)`` bucket coalesces into
        a single frame v2 batch write whose payload bodies are pickled
        once per fan-out and referenced by offset.

        Each destination draws its own link's latency and counts as one
        send; the fan-out's fixed costs (clock read, encode-cache probe)
        are paid once, which is where a broadcast's send-side time
        goes.  The adversarial proxy deliberately does **not** forward
        this method: it decomposes fan-outs into per-frame :meth:`send`
        calls so drop coins and partition checks stay per-frame.
        """
        if self._origin is None:
            raise RuntimeError("transport not anchored")
        # One clock read serves the model time and every wheel slot.
        loop_time = asyncio.get_running_loop().time()
        at = loop_time - self._origin
        sample = self._latency.latency
        encoded: tuple[object, bytes] | None = None
        for dst in dsts:
            delay = sample(src, dst, at)
            self.sent_count += 1
            slot = math.ceil((loop_time + delay) / self._slot_s)
            if dst in self._hosted:
                self.wheel.schedule(slot, self._deliver, dst, src, payload)
                continue
            if encoded is None:
                intern_key, body, fresh = self._encode_cache.encode(payload)
                encoded = (intern_key, body)
                if fresh:
                    self.payload_encodes += 1
                else:
                    self.payload_reuses += 1
            else:
                intern_key, body = encoded
                self.payload_reuses += 1
            key = (slot, self._owner[dst])
            pending = self._slot_batches.get(key)
            if pending is None:
                pending = self._slot_batches[key] = []
                self.wheel.schedule(slot, self._flush_batch, key)
            pending.append((src, dst, intern_key, body))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush_batch(self, key: tuple[int, int]) -> None:
        """Write every frame parked under ``(slot, worker)`` as v2 batches."""
        frames = self._slot_batches.pop(key, None)
        if not frames:
            return
        writer = self._peer_writers.get(key[1])
        if writer is None or writer.is_closing():
            # Peer already gone (shutdown race): nothing to deliver to.
            self.misrouted_count += len(frames)
            return
        for chunk in encode_batch(frames):
            writer.write(chunk)
            self.batches_sent += 1
            self.bytes_sent += len(chunk)
        self.frames_sent += len(frames)

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader_tasks.append(asyncio.current_task())
        try:
            while True:
                header = await reader.readexactly(_HEADER.size)
                (length,) = _HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    raise ValueError(
                        f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap"
                    )
                blob = await reader.readexactly(length)
                self.bytes_received += _HEADER.size + length
                try:
                    frames = decode_batch(blob, self._decode_memo)
                except ValueError:
                    # A peer's blob is untrusted input: anything that is
                    # not a well-formed batch is counted and skipped, and
                    # the length prefix already consumed keeps the stream
                    # in sync for the next blob.
                    self.frames_rejected += 1
                    continue
                self.batches_received += 1
                for src, dst, payload in frames:
                    self.frames_received += 1
                    if dst in self._hosted:
                        self.wheel.call(self._deliver, dst, src, payload)
                    else:
                        self.misrouted_count += 1
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        except asyncio.CancelledError:
            # close() cancels reader tasks; finish quietly so the
            # streams machinery does not log the cancellation.
            pass
        finally:
            writer.close()
