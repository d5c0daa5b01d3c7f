"""Socket transport: framing, mesh routing, local loopback, audit counters."""

import asyncio
import pickle

import pytest

from repro.net.socket_transport import (
    BATCH_VERSION,
    MAX_FRAME_BYTES,
    DecodedBodyMemo,
    EncodedPayloadCache,
    SocketTransport,
    decode_batch,
    encode_batch,
    encode_frame,
    open_stream,
    read_frame,
    supports_unix_sockets,
)

from tests.net.conftest import Collector
from tests.sleepy.test_content_key import ill_typed_bodies


def test_frame_roundtrip():
    payload = {"a": 1, "b": (2, 3), "c": b"bytes"}
    frame = encode_frame(payload)
    assert frame[:4] == len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)).to_bytes(4, "big")

    async def roundtrip():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await read_frame(reader)

    assert asyncio.run(roundtrip()) == payload


def test_oversized_length_prefix_rejected():
    async def poisoned():
        reader = asyncio.StreamReader()
        reader.feed_data((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"junk")
        with pytest.raises(ValueError, match="exceeds"):
            await read_frame(reader)

    asyncio.run(poisoned())


def _mesh_pair(tmp_path):
    """Two workers (pids {0} and {1,2}) joined over UNIX sockets."""
    addresses = {0: str(tmp_path / "w0.sock"), 1: str(tmp_path / "w1.sock")}
    owner = {0: 0, 1: 1, 2: 1}
    common = dict(base_latency_s=0.001, jitter_s=0.0, seed=0)
    a = SocketTransport(
        3, local_pids=(0,), owner=owner, worker_id=0, addresses=addresses, **common
    )
    b = SocketTransport(
        3, local_pids=(1, 2), owner=owner, worker_id=1, addresses=addresses, **common
    )
    return a, b


async def _listening_pair(tmp_path):
    """The mesh pair, subscribed (first) and listening, with its two inboxes."""
    a, b = _mesh_pair(tmp_path)
    inbox_a, inbox_b = Collector(a, (0,)), Collector(b, (1, 2))
    await a.start()
    await b.start()
    await a.connect()
    await b.connect()
    a.anchor()
    b.anchor()
    return a, b, inbox_a, inbox_b


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_cross_worker_and_local_delivery(tmp_path):
    async def scenario():
        a, b, inbox_a, inbox_b = await _listening_pair(tmp_path)
        try:
            a.send(0, 1, "remote")  # crosses the socket to worker b
            b.send(1, 2, "local")  # loops back inside worker b
            b.send(2, 0, "back")  # crosses the socket to worker a
            assert await inbox_b.until(1, 1) == [(0, "remote")]
            assert await inbox_b.until(2, 1) == [(1, "local")]
            assert await inbox_a.until(0, 1) == [(2, "back")]
            # Local loopback never touches the socket mesh.
            assert a.frames_sent == 1 and b.frames_sent == 1
            assert a.frames_received == 1 and b.frames_received == 1
            assert a.misrouted_count == 0 and b.misrouted_count == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_modelled_latencies_match_sim_transport(tmp_path):
    """A sharded transport draws exactly the per-link latencies the
    single-process SimTransport would — the reproducibility contract
    that keeps multi-process runs equivalent."""
    from repro.net.transport import SimTransport

    async def scenario():
        a, _b = _mesh_pair(tmp_path)
        sim = SimTransport(3, base_latency_s=0.001, jitter_s=0.004, seed=0)
        socketed = SocketTransport(
            3,
            local_pids=(0,),
            owner={0: 0, 1: 1, 2: 1},
            worker_id=0,
            addresses={},
            base_latency_s=0.001,
            jitter_s=0.004,
            seed=0,
        )
        return [
            (sim.latency(src, dst, 0.0), socketed.latency(src, dst, 0.0))
            for src in range(3)
            for dst in range(3)
            if src != dst
            for _ in range(3)
        ]

    for sim_sample, socket_sample in asyncio.run(scenario()):
        assert sim_sample == socket_sample


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_misrouted_frames_are_counted_not_dropped_silently(tmp_path):
    async def scenario():
        a, b = _mesh_pair(tmp_path)
        await a.start()
        await b.start()
        await a.connect()
        await b.connect()
        a.anchor()
        b.anchor()
        try:
            # Fault injection: worker a forgets it hosts pid 0 and
            # frames it to worker b, which does not host pid 0 either.
            a._hosted = frozenset()
            a._owner[0] = 1
            a.send(1, 0, "lost?")
            await asyncio.sleep(0.1)
            assert b.misrouted_count == 1
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_send_requires_anchor():
    transport = SocketTransport(
        2, local_pids=(0, 1), owner={0: 0, 1: 0}, worker_id=0, addresses={}
    )
    with pytest.raises(RuntimeError, match="not anchored"):
        transport.send(0, 1, "x")
    with pytest.raises(RuntimeError, match="not anchored"):
        transport.send_many(0, (1,), "x")


# ----------------------------------------------------------------------
# Frame v2 batches
# ----------------------------------------------------------------------
def _body(payload):
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def test_batch_roundtrip_shares_one_decoded_body():
    body = _body(["shared"])
    chunks = encode_batch([(0, dst, "key", body) for dst in range(1, 6)])
    assert len(chunks) == 1
    blob = chunks[0][4:]
    assert blob[0] == BATCH_VERSION
    frames = decode_batch(blob)
    assert frames == [(0, dst, ["shared"]) for dst in range(1, 6)]
    # One body on the wire, one unpickle: every frame shares the object.
    first = frames[0][2]
    assert all(payload is first for _, _, payload in frames)


def test_batch_splits_cleanly_at_the_byte_cap():
    body = _body(b"x" * 100)
    frames = [(0, dst, "key", body) for dst in range(10)]
    chunks = encode_batch(frames, max_bytes=180)
    assert len(chunks) > 1
    decoded = []
    for chunk in chunks:
        assert len(chunk) - 4 <= 180
        decoded.extend(decode_batch(chunk[4:]))
    # Bodies are re-emitted per chunk; no frame is lost or reordered.
    assert [(src, dst) for src, dst, _ in decoded] == [(0, dst) for dst in range(10)]
    assert all(payload == b"x" * 100 for _, _, payload in decoded)


def test_single_oversized_frame_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        encode_batch([(0, 1, "key", _body(b"y" * 100))], max_bytes=50)


def test_torn_batch_blobs_raise_value_error():
    (chunk,) = encode_batch([(0, dst, "key", _body("p")) for dst in range(3)])
    blob = chunk[4:]
    # Truncations at any depth are a framing error, not a partial delivery.
    for cut in (1, 2, 5, len(blob) - 3):
        with pytest.raises(ValueError, match="torn batch"):
            decode_batch(blob[:cut])
    with pytest.raises(ValueError, match="torn batch"):
        decode_batch(blob + b"junk")
    with pytest.raises(ValueError, match="not a frame v2"):
        decode_batch(b"\x80rest")


def test_partial_batch_frame_at_eof_raises_incomplete_read():
    (chunk,) = encode_batch([(0, 1, "key", _body("p"))])

    async def torn_stream():
        reader = asyncio.StreamReader()
        reader.feed_data(chunk[: len(chunk) // 2])
        reader.feed_eof()
        with pytest.raises(asyncio.IncompleteReadError):
            await read_frame(reader)

    asyncio.run(torn_stream())


def test_encoded_payload_cache_reuses_bytes_and_interns_equal_bodies():
    cache = EncodedPayloadCache(capacity=2)
    payload = ["p"]
    key1, body1, fresh1 = cache.encode(payload)
    key2, body2, fresh2 = cache.encode(payload)
    assert fresh1 and not fresh2
    assert key1 == key2 and body1 is body2
    # A distinct but equal payload pickles again, yet interns to the
    # same batch key — one body on the wire for one logical payload.
    key3, _body3, fresh3 = cache.encode(["p"])
    assert fresh3 and key3 == key1
    # Eviction (capacity 2) stays correct: re-encoding is fresh again.
    cache.encode(["q"])
    cache.encode(["r"])
    _, _, fresh4 = cache.encode(payload)
    assert fresh4


def test_encoded_payload_cache_interns_messages_by_content_digest():
    from repro.crypto.signatures import KeyRegistry
    from repro.sleepy.messages import make_vote

    registry = KeyRegistry(1)
    key = registry.secret_key(0)
    # Two distinct instances of the same logical vote: equal content,
    # different identity.  They pickle separately but intern to one
    # wire body via the freshly computed verification digest.
    vote_a = make_vote(registry, key, 3, None)
    vote_b = make_vote(registry, key, 3, None)
    assert vote_a is not vote_b
    cache = EncodedPayloadCache()
    key_a, _, fresh_a = cache.encode(vote_a)
    key_b, _, fresh_b = cache.encode(vote_b)
    assert fresh_a and fresh_b
    assert key_a == key_b


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_broadcast_pickles_once_and_rides_one_batch(tmp_path):
    async def scenario():
        a, b, _inbox_a, inbox_b = await _listening_pair(tmp_path)
        try:
            # One send_many = one clock read, so at zero jitter both
            # frames land in one slot by construction.
            body = ["broadcast", bytes(4096)]
            a.send_many(0, (1, 2), body)
            (got_1,) = await inbox_b.until(1, 1)
            (got_2,) = await inbox_b.until(2, 1)
            assert got_1 == (0, body) and got_2 == (0, body)
            # The fan-out pickled once, reused once, and both frames
            # crossed the wire in a single batch write; the receiver
            # decoded one body that both pids share.
            assert a.payload_encodes == 1 and a.payload_reuses == 1
            # Interned body: the wire carried it once, not once per frame.
            assert a.bytes_sent < 2 * 4096 * 3 // 4
            assert a.batches_sent == 1 and b.batches_received == 1
            assert a.frames_sent == 2 and b.frames_received == 2
            assert got_1[1] is got_2[1]
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_send_many_matches_per_send_counters(tmp_path):
    async def scenario():
        a, b, _inbox_a, inbox_b = await _listening_pair(tmp_path)
        try:
            a.send_many(0, (1, 2), ["fanout"])
            assert await inbox_b.until(1, 1) == [(0, ["fanout"])]
            assert await inbox_b.until(2, 1) == [(0, ["fanout"])]
            assert a.sent_count == 2
            assert a.payload_encodes == 1 and a.payload_reuses == 1
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_timer_budget_is_per_slot_not_per_message(tmp_path):
    async def scenario():
        a, b, _inbox_a, inbox_b = await _listening_pair(tmp_path)
        try:
            # 40 frames burst into the same latency envelope: the wheel
            # arms O(slots) timers, not one per message (zero jitter at
            # base latency 1 ms → every delivery shares one slot or two).
            for i in range(20):
                a.send_many(0, (1, 2), i)
            await inbox_b.until(1, 20)
            await inbox_b.until(2, 20)
            # 40 frames crossed the wire, but the wheel parked them in
            # (slot, worker) buckets: a handful of loop timers total.
            assert a.frames_sent == 40
            assert a.wheel.timers_created <= 4
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


_TRIPPED = []


def _trip():
    _TRIPPED.append(True)


class _Bomb:
    """Unpickling this calls :func:`_trip` — code execution, were it ever loaded."""

    def __reduce__(self):
        return (_trip, ())


def _blob(data: bytes) -> bytes:
    return len(data).to_bytes(4, "big") + data


def _deliver_raw(tmp_path, junk: bytes) -> SocketTransport:
    """Worker b after a raw peer wrote ``junk`` and then one valid batch."""
    (valid,) = encode_batch([(0, dst, "key", _body("ok")) for dst in (1, 2)])

    async def scenario():
        _, b = _mesh_pair(tmp_path)
        inbox = Collector(b, (1, 2))
        await b.start()
        b.anchor()
        try:
            _, writer = await open_stream(b._addresses[1])
            writer.write(junk + valid)
            # The reader outlives the junk: the valid batch still lands.
            assert await inbox.until(1, 1) == [(0, "ok")]
            assert await inbox.until(2, 1) == [(0, "ok")]
            writer.close()
        finally:
            await b.close()
        return b

    return asyncio.run(scenario())


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_v1_pickle_on_the_data_mesh_is_never_loaded(tmp_path):
    bomb = encode_frame((0, 1, _Bomb()))
    pickle.loads(bomb[4:])
    assert _TRIPPED.pop()  # the bomb is live: loading it runs code
    b = _deliver_raw(tmp_path, bomb)
    assert not _TRIPPED
    assert b.frames_rejected == 1
    assert b.batches_received == 1 and b.frames_received == 2


#: Well-formed pickles whose *load* raises something other than an
#: unpickling error: a module nobody has, a name its module lacks, a
#: constructor called with arguments it rejects.
_POISONED_BODIES = {
    ModuleNotFoundError: b"cno_such_module_on_this_host\nThing\n.",
    AttributeError: b"cbuiltins\nno_such_name_in_builtins\n.",
    TypeError: b"cbuiltins\nint\n(S'a'\nS'b'\nS'c'\ntR.",
}


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_torn_batches_are_counted_and_the_reader_keeps_serving(tmp_path):
    (chunk,) = encode_batch([(0, 1, "key", _body("lost"))])
    junk = _blob(chunk[4:-3]) + _blob(b"\x02garbage")
    # A batch can also be framed perfectly and carry a body whose load
    # raises whatever it likes: still one rejected batch, not a dead reader.
    for raised, body in _POISONED_BODIES.items():
        with pytest.raises(raised):
            pickle.loads(body)
        (poisoned,) = encode_batch([(0, 1, "ok", _body("rides along")), (0, 2, "bad", body)])
        with pytest.raises(ValueError, match="undecodable batch body"):
            decode_batch(poisoned[4:], DecodedBodyMemo())
        junk += poisoned
    # So does a body that would decode to an ill-typed message — a float
    # round, a bool sender, a str subclass for a tip: its ``__setstate__``
    # raises, and no such object ever reaches gossip or the verifier.
    ill_typed = ill_typed_bodies()
    for body in ill_typed:
        (poisoned,) = encode_batch([(0, 1, "ok", _body("rides along")), (0, 2, "bad", body)])
        with pytest.raises(ValueError, match="undecodable batch body: TypeError"):
            decode_batch(poisoned[4:], DecodedBodyMemo())
        junk += poisoned
    b = _deliver_raw(tmp_path, junk)
    assert b.frames_rejected == 2 + len(_POISONED_BODIES) + len(ill_typed)
    assert b.batches_received == 1 and b.frames_received == 2
    assert b.misrouted_count == 0


# ----------------------------------------------------------------------
# The decode memo: one decode per process
# ----------------------------------------------------------------------
def _counting_loads(monkeypatch):
    import repro.net.socket_transport as wire

    calls = []
    real = pickle.loads

    def counting(data, *args, **kwargs):
        calls.append(bytes(data))
        return real(data, *args, **kwargs)

    monkeypatch.setattr(wire.pickle, "loads", counting)
    return calls


def test_one_body_in_two_batches_decodes_to_one_object_with_one_loads(monkeypatch):
    body = _body(["gossiped", "vote"])
    (first,) = encode_batch([(0, 1, "key", body)])
    (second,) = encode_batch([(3, 2, "key", body), (3, 1, "other", _body("x"))])
    calls = _counting_loads(monkeypatch)
    memo = DecodedBodyMemo()
    frames = decode_batch(first[4:], memo) + decode_batch(second[4:], memo)
    assert [(src, dst) for src, dst, _ in frames] == [(0, 1), (3, 2), (3, 1)]
    assert frames[0][2] == ["gossiped", "vote"]
    assert frames[1][2] is frames[0][2]
    assert calls.count(body) == 1 and len(calls) == 2
    # Without a memo every batch decodes for itself, as before.
    assert decode_batch(first[4:])[0][2] is not frames[0][2]


def test_one_flipped_byte_is_a_different_object():
    body = _body(b"payload-" + bytes(32))
    flipped = bytearray(body)
    flipped[-5] ^= 0x01
    memo = DecodedBodyMemo()
    original = memo.loads(body)
    other = memo.loads(bytes(flipped))
    assert other is not original and other != original
    assert memo.loads(body) is original
    assert len(memo) == 2


def test_the_decode_memo_never_exceeds_its_bound():
    memo = DecodedBodyMemo(capacity=4)
    bodies = [_body(i) for i in range(10)]
    for body in bodies:
        memo.loads(body)
        assert len(memo) <= 4
    # Least recently used goes first: a re-read body survives the flood.
    kept = memo.loads(bodies[6])
    for body in bodies[:3]:
        memo.loads(body)
    assert memo.loads(bodies[6]) is kept
    with pytest.raises(ValueError):
        DecodedBodyMemo(capacity=0)
    # The transport's own memo is bounded like every identity memo.
    from repro.sleepy.messages import IDENTITY_MEMO_CAPACITY

    assert DecodedBodyMemo()._capacity == IDENTITY_MEMO_CAPACITY


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_the_reader_hands_one_object_to_every_batch_a_body_rides(tmp_path):
    async def scenario():
        a, b, _inbox_a, inbox_b = await _listening_pair(tmp_path)
        try:
            body = ["flooded", bytes(512)]
            a.send(0, 1, body)
            await inbox_b.until(1, 1)
            a.send(0, 2, body)  # a later slot, so a second batch
            await inbox_b.until(2, 1)
            assert b.batches_received == 2
            assert inbox_b.frames[2][0][1] is inbox_b.frames[1][0][1]
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Subscriber lifecycle on the socket fabric
# ----------------------------------------------------------------------
@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_a_raising_subscriber_does_not_stop_the_reader(tmp_path):
    async def scenario():
        a, b = _mesh_pair(tmp_path)
        got = []

        def fragile(src, payload):
            got.append(payload)
            if len(got) == 1:
                raise RuntimeError("consumer bug")

        b.subscribe(1, fragile)
        inbox = Collector(b, (2,))
        for transport in (a, b):
            await transport.start()
        await a.connect()
        a.anchor()
        b.anchor()
        try:
            a.send_many(0, (1, 2, 1), "same batch")
            await inbox.until(2, 1)
            a.send(0, 1, "next batch")
            async with asyncio.timeout(2):
                while len(got) < 3:
                    await asyncio.sleep(0.001)
            assert got == ["same batch", "same batch", "next batch"]
            assert b.handler_errors == 1 and b.misrouted_count == 0
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_close_after_unsubscribe_holds_in_flight_frames_quietly(tmp_path):
    """``stop()`` unsubscribes before ``close()`` flushes the wheel: the
    flushed frames reach nobody — no re-flood — and are not misrouted."""

    async def scenario():
        a, b, _inbox_a, inbox_b = await _listening_pair(tmp_path)
        b.send(1, 2, "in flight")  # parked in a wheel slot
        b.unsubscribe(2)
        await a.close()
        await b.close()
        assert inbox_b.frames[2] == []
        assert b.wheel.pending == 0 and b.misrouted_count == 0
        assert Collector(b, (2,)).frames[2] == [(1, "in flight")]

    asyncio.run(scenario())
