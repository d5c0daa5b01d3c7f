"""Socket transport: framing, mesh routing, local loopback, audit counters."""

import asyncio
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.transactions import Transaction
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRFOutput
from repro.net.socket_transport import (
    BATCH_VERSION,
    MAX_FRAME_BYTES,
    DecodedBodyMemo,
    EncodedPayloadCache,
    FrameError,
    SocketTransport,
    decode_batch,
    encode_batch,
    encode_frame,
    open_stream,
    read_frame,
    supports_unix_sockets,
)
from repro.sleepy.messages import (
    AckMessage,
    ProposeMessage,
    VoteMessage,
    make_propose,
    make_vote,
)

from tests.net.conftest import Collector
from tests.sleepy.test_content_key import ill_typed_bodies, wire_form_ill_typed_bodies


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
    from repro.crypto.signatures import KeyRegistry
    from repro.net.transport import SimTransport, draw_key
    from repro.sleepy.messages import make_vote

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
    overlay = {src: tuple(dst for dst in range(3) if dst != src) for src in range(3)}
    registry = KeyRegistry(3, run_seed=0)
    for fabric in (sim, socketed):
        fabric.links.enumerate(overlay)
    for r in range(3):
        key = draw_key(make_vote(registry, registry.secret_key(r), r, None))
        assert sim.links.draw(key) == socketed.links.draw(key)
        assert sim.links.coins(key) == socketed.links.coins(key)


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_misrouted_frames_are_counted_not_dropped_silently(tmp_path):
    async def scenario():
        a, b = _mesh_pair(tmp_path)
        await a.start()
        await b.start()
        await a.connect()
        await b.connect()
        try:
            # Fault injection: worker a forgets it hosts pid 0 and
            # frames it to worker b, which does not host pid 0 either.
            a.hosted = frozenset()
            a._owner[0] = 1
            a.send(1, 0, "lost?")
            await asyncio.sleep(0.1)
            assert b.misrouted_count == 1
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


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
    frames = decode_batch(blob, DecodedBodyMemo())
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
        decoded.extend(decode_batch(chunk[4:], DecodedBodyMemo()))
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
            decode_batch(blob[:cut], DecodedBodyMemo())
    with pytest.raises(ValueError, match="torn batch"):
        decode_batch(blob + b"junk", DecodedBodyMemo())
    with pytest.raises(ValueError, match="not a frame v2"):
        decode_batch(b"\x80rest", DecodedBodyMemo())


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
def test_a_remote_copy_behind_one_in_flight_is_never_written(tmp_path):
    """One worker's batches to a peer leave in slot order over one FIFO
    connection, so a remote frame is superseded exactly like a local
    one — until its batch is written, after which a copy goes out again."""

    async def scenario():
        a, b, _inbox_a, inbox_b = await _listening_pair(tmp_path)
        try:
            body = ["remote"]
            a.send_many(0, (1, 2, 1), body)
            assert a.sent_count == 3 and a.superseded == 1
            await inbox_b.until(2, 1)
            assert await inbox_b.until(1, 1) == [(0, body)]
            assert a.frames_sent == 2
            a.send(0, 1, body)  # the first copy's batch is gone: written again
            assert len(await inbox_b.until(1, 2)) == 2
            assert a.superseded == 1 and a.frames_sent == 3
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
    assert b.frames_rejected == b.frames_rejected_torn == 1
    assert b.batches_received == 1 and b.frames_received == 2


def _riding_along(body: bytes) -> bytes:
    """A well-formed batch: one good frame, then one carrying ``body``."""
    (chunk,) = encode_batch([(0, 1, "ok", _body("rides along")), (0, 2, "bad", body)])
    return chunk


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_a_bomb_inside_a_well_formed_batch_never_runs(tmp_path):
    body = _body(_Bomb())
    pickle.loads(body)
    assert _TRIPPED.pop()  # the bomb is live: loading it runs code
    poisoned = _riding_along(body)
    with pytest.raises(ValueError, match="undecodable batch body: UnpicklingError"):
        decode_batch(poisoned[4:], DecodedBodyMemo())
    assert not _TRIPPED
    b = _deliver_raw(tmp_path, poisoned)
    assert not _TRIPPED
    assert b.frames_rejected == b.frames_rejected_refused == 1
    assert b.batches_received == 1 and b.frames_received == 2


#: Well-formed pickles whose plain *load* raises something other than an
#: unpickling error — a module nobody has, a name its module lacks, a
#: constructor called with arguments it rejects — and which the wire
#: refuses before looking anything up: none of them names a wire type.
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
        poisoned = _riding_along(body)
        with pytest.raises(ValueError, match="undecodable batch body: UnpicklingError"):
            decode_batch(poisoned[4:], DecodedBodyMemo())
        junk += poisoned
    # Hand-built ill-typed messages reach ``object.__new__`` through
    # ``builtins.getattr``: refused at the global, like any non-wire name.
    refused = ill_typed_bodies()
    for body in refused:
        poisoned = _riding_along(body)
        with pytest.raises(ValueError, match="undecodable batch body: UnpicklingError"):
            decode_batch(poisoned[4:], DecodedBodyMemo())
        junk += poisoned
    # The same states in a message's own form name only wire types — a
    # float round, a bool sender, bytes for a signature — and still decode
    # to nothing: ``__setstate__`` raises, and no such object ever
    # reaches gossip or the verifier.
    ill_typed = wire_form_ill_typed_bodies()
    for body in ill_typed:
        poisoned = _riding_along(body)
        with pytest.raises(ValueError, match="undecodable batch body: TypeError"):
            decode_batch(poisoned[4:], DecodedBodyMemo())
        junk += poisoned
    b = _deliver_raw(tmp_path, junk)
    # Two torn blobs (a truncated batch, garbage after the version byte);
    # every poisoned body is refused; nothing oversized.
    assert b.frames_rejected_torn == 2
    assert b.frames_rejected_refused == len(_POISONED_BODIES) + len(refused) + len(ill_typed)
    assert b.frames_rejected_oversized == 0
    assert b.frames_rejected == 2 + len(_POISONED_BODIES) + len(refused) + len(ill_typed)
    assert b.batches_received == 1 and b.frames_received == 2
    assert b.misrouted_count == 0


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_an_oversized_length_prefix_is_counted_and_ends_only_its_connection(tmp_path):
    (valid,) = encode_batch([(0, dst, "key", _body("ok")) for dst in (1, 2)])

    async def scenario():
        _, b = _mesh_pair(tmp_path)
        inbox = Collector(b, (1, 2))
        await b.start()
        try:
            hung_up, bogus = await open_stream(b._addresses[1])
            bogus.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + valid)
            # Nothing can resync past a bogus length: b ends this connection.
            assert await asyncio.wait_for(hung_up.read(), 2) == b""
            (ended,) = [task for task in b._reader_tasks if task.done()]
            assert ended.exception() is None
            # Another connection is served as before.
            _, honest = await open_stream(b._addresses[1])
            honest.write(valid)
            assert await inbox.until(1, 1) == [(0, "ok")]
            assert await inbox.until(2, 1) == [(0, "ok")]
            bogus.close()
            honest.close()
        finally:
            await b.close()
        return b

    b = asyncio.run(scenario())
    assert b.frames_rejected_oversized == b.frames_rejected == 1
    assert b.frames_rejected_torn == b.frames_rejected_refused == 0
    assert b.batches_received == 1 and b.frames_received == 2


# ----------------------------------------------------------------------
# Mutation suite: mangled batches are one FrameError, never a dead reader
# ----------------------------------------------------------------------
@st.composite
def _mangled_batches(draw) -> tuple[str, bytes]:
    """``(how, blob)``: a random blob, or a real batch with bits flipped or its tail cut."""
    how = draw(st.sampled_from(("random", "flip", "cut")))
    if how == "random":
        # Half of them past the version byte, into the counts and bodies.
        prefix = draw(st.sampled_from((b"", bytes([BATCH_VERSION]))))
        return how, prefix + draw(st.binary(max_size=96))
    messages = draw(st.lists(_wire_messages(), min_size=1, max_size=4))
    frames = [(m.sender, 1 + i % 2, m.content_key, _body(m)) for i, m in enumerate(messages)]
    (chunk,) = encode_batch(frames)
    blob = bytearray(chunk[4:])
    if how == "cut":
        return how, bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    # Framing is a few bytes among the bodies': aim a third of the flips
    # at the head (version, counts, the first body's length), a third at
    # the frame table (count, src, dst, body index), a third anywhere.
    table = len(blob) - 4 - 10 * len(frames)
    start, stop = draw(st.sampled_from(((0, 7), (table, len(blob)), (0, len(blob)))))
    for bit in draw(st.lists(st.integers(8 * start, 8 * stop - 1), min_size=1, max_size=4)):
        blob[bit // 8] ^= 1 << (bit % 8)
    return how, bytes(blob)


@settings(max_examples=300, deadline=None)
@given(_mangled_batches())
def test_only_a_frame_error_escapes_decode_batch(mangled):
    how, blob = mangled
    try:
        decode_batch(blob, DecodedBodyMemo())
    except FrameError as exc:
        assert exc.reason in ("torn", "refused")
        # A cut is torn whatever it cuts: a body's length is checked
        # against the blob before the body is decoded.
        assert how != "cut" or exc.reason == "torn"
    else:
        assert how != "cut"


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
@settings(max_examples=40, deadline=None)
@given(st.lists(_mangled_batches(), min_size=1, max_size=4))
def test_a_live_reader_serves_the_next_batch_after_each_mangled_one(mangled):
    async def scenario(directory):
        _, b = _mesh_pair(directory)
        inbox = Collector(b, (1, 2))
        await b.start()
        try:
            _, writer = await open_stream(b._addresses[1])
            for i, (_how, blob) in enumerate(mangled):
                marker = ("next", i)
                (valid,) = encode_batch([(0, 1, marker, _body(marker))])
                writer.write(_blob(blob) + valid)
                async with asyncio.timeout(2):
                    while (0, marker) not in inbox.frames[1]:
                        await asyncio.sleep(0.0005)
            writer.close()
        finally:
            await b.close()
        return b

    with tempfile.TemporaryDirectory() as directory:
        b = asyncio.run(scenario(Path(directory)))
    # Every mangled blob was either rejected, by reason, or decoded.
    assert b.frames_rejected + b.batches_received == 2 * len(mangled)
    assert b.frames_rejected_oversized == 0


# ----------------------------------------------------------------------
# The body table: one decode per process, counting the bodies it sent
# ----------------------------------------------------------------------
def test_one_body_in_two_batches_decodes_to_one_object_with_one_loads():
    body = _body(["gossiped", "vote"])
    (first,) = encode_batch([(0, 1, "key", body)])
    (second,) = encode_batch([(3, 2, "key", body), (3, 1, "other", _body("x"))])
    memo = DecodedBodyMemo()
    frames = decode_batch(first[4:], memo) + decode_batch(second[4:], memo)
    assert [(src, dst) for src, dst, _ in frames] == [(0, 1), (3, 2), (3, 1)]
    assert frames[0][2] == ["gossiped", "vote"]
    assert frames[1][2] is frames[0][2]
    assert memo.decodes == 2  # three frames, two distinct bodies
    # Another table decodes for itself.
    assert decode_batch(first[4:], DecodedBodyMemo())[0][2] is not frames[0][2]


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


REGISTRY = KeyRegistry(4, run_seed=3)


def _proposal(pid: int, txs, view: int = 1) -> ProposeMessage:
    block = Block(parent=None, proposer=pid, view=view, payload=tuple(txs))
    return make_propose(REGISTRY, REGISTRY.secret_key(pid), 2 * view, view, block)


def _transactions(count: int, sender: int = 2) -> list[Transaction]:
    return [Transaction.create(sender, nonce, nonce.to_bytes(8, "big")) for nonce in range(count)]


def _copies(txs) -> list[Transaction]:
    """Equal transactions that are other objects: what another process holds."""
    return [Transaction(tx.sender, tx.nonce, tx.payload, tx.checksum) for tx in txs]


def _counting_hashes(monkeypatch) -> list[str]:
    """The domain tag of every id hashed from now on ("tx" or "block")."""
    import repro.chain.block as block_module
    import repro.chain.transactions as tx_module

    calls = []
    for module in (block_module, tx_module):

        def counting(*fields, _real=module.hash_fields):
            calls.append(fields[0])
            return _real(*fields)

        monkeypatch.setattr(module, "hash_fields", counting)
    return calls


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_a_body_flooded_back_is_the_object_its_sender_sent(tmp_path):
    """Gossip forwards a first-seen message to every neighbour, so what
    crossed the cut floods back: the sender resolves it, unpickling nothing."""
    vote = make_vote(REGISTRY, REGISTRY.secret_key(0), 3, None)
    proposal = _proposal(0, _transactions(3))

    async def scenario():
        a, b, inbox_a, inbox_b = await _listening_pair(tmp_path)
        try:
            for count, message in enumerate((vote, proposal), start=1):
                a.send(0, 1, message)
                _, there = (await inbox_b.until(1, count))[-1]
                b.send(1, 0, there)  # the forward, back across the cut
                _, back = (await inbox_a.until(0, count))[-1]
                assert there == message and there is not message
                assert back is message
            assert a._decode_memo.decodes == 0
            assert b._decode_memo.decodes == 2
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_a_proposal_of_held_transactions_hashes_only_its_block(monkeypatch):
    txs = _transactions(5)
    first_body = _body(_proposal(1, _copies(txs)))
    second_body = _body(_proposal(2, _copies(txs)))
    memo = DecodedBodyMemo()
    first = memo.loads(first_body)
    calls = _counting_hashes(monkeypatch)
    second = memo.loads(second_body)
    assert calls == ["block"]
    assert all(a is b for a, b in zip(second.block.payload, first.block.payload, strict=True))
    assert second == pickle.loads(second_body)


def test_the_transaction_table_stays_within_its_bound_under_a_flood():
    from repro.net.socket_transport import TRANSACTION_INTERN_CAPACITY

    flood = _transactions(TRANSACTION_INTERN_CAPACITY + 50, sender=3)
    memo = DecodedBodyMemo(capacity=4)
    for view, start in enumerate(range(0, len(flood), 100), start=1):
        memo.loads(_body(_proposal(1, flood[start : start + 100], view=view)))
        assert len(memo._transactions) <= TRANSACTION_INTERN_CAPACITY and len(memo) <= 4
    assert len(memo._transactions) == TRANSACTION_INTERN_CAPACITY
    # The oldest went first; an evicted transaction decodes again, equal.
    (again,) = memo.loads(_body(_proposal(1, flood[:1], view=99))).block.payload
    assert again == flood[0] and again.tx_id == flood[0].tx_id


class _Rewritten:
    """Pickles as ``cls(*args)`` then ``BUILD state``: a body that writes
    onto the object its constructor call returned."""

    def __init__(self, cls: type, args: tuple, state: dict) -> None:
        self.cls, self.args, self.state = cls, args, state

    def __reduce__(self):
        return (self.cls, self.args, self.state)


def _text(value: str) -> bytes:
    data = value.encode()
    return b"X" + len(data).to_bytes(4, "little") + data


def test_a_body_cannot_rewrite_a_held_transaction_or_build_a_block_around_its_id():
    (tx,) = _transactions(1)  # nonce 0: every sender's first transaction
    memo = DecodedBodyMemo()
    memo.loads(_body(_proposal(1, _copies([tx]))))
    fields = (tx.sender, tx.nonce, tx.payload, tx.checksum)
    held = memo.transaction(*fields)
    before = dict(vars(held))
    # Forged ids and verdicts, and fields equal to the held ones but of
    # another type (0 == False == 0.0, 2 == 2.0).
    for state in (
        {"_tx_id": "f0" * 32},
        {"_valid": False},
        {"payload": b"other"},
        {"nonce": False},
        {"nonce": 0.0},
        {"sender": float(tx.sender)},
    ):
        rewrite = _Rewritten(Transaction, fields, state)
        with pytest.raises(pickle.UnpicklingError, match="no pickled state"):
            pickle.loads(_body(rewrite))  # refused before it writes, anywhere
        # Alone, and followed by the same transaction resolved again.
        for body in (_body(rewrite), _body((rewrite, *_copies([tx])))):
            with pytest.raises(pickle.UnpicklingError, match="no pickled state"):
                memo.loads(body)
            assert memo.transaction(*fields) is held
            assert {k: (type(v), v) for k, v in vars(held).items()} == {
                k: (type(v), v) for k, v in before.items()
            }
    rewritten = _body(_Rewritten(Block, (None, 1, 1, (), 0), {"block_id": "f0" * 32}))
    for load in (pickle.loads, memo.loads):
        with pytest.raises(pickle.UnpicklingError, match="no pickled state"):
            load(rewritten)
    # NEWOBJ: a block that never ran its constructor, with no fields at
    # all, or (with a BUILD) a forged id.
    newobj = b"\x80\x02crepro.chain.block\nBlock\n)\x81"
    assert not hasattr(pickle.loads(newobj + b"."), "parent")
    forged = newobj + b"}" + _text("block_id") + _text("f0" * 32) + b"sb."
    for body in (newobj + b".", forged):
        with pytest.raises(pickle.UnpicklingError, match="NEWOBJ"):
            memo.loads(body)


# A differential against plain ``pickle.loads``: exact and non-exact field
# types, one-byte-apart payloads and checksums, bodies sent and received.
_SENDERS = (0, 1, "1", None)
_PAYLOADS = (b"", b"x", b"y", "x", None)
_CHECKSUMS = ("c0", "c1", None)


def _typed(tx: Transaction) -> tuple:
    return tuple((type(v), v) for v in (tx.sender, tx.nonce, tx.payload, tx.checksum))


def _exact(tx: Transaction) -> bool:
    return tuple(kind for kind, _ in _typed(tx)) == (int, int, bytes, str)


@st.composite
def _wire_transactions(draw) -> Transaction:
    return Transaction(
        draw(st.sampled_from(_SENDERS)),
        draw(st.integers(0, 2)),
        draw(st.sampled_from(_PAYLOADS)),
        draw(st.sampled_from(_CHECKSUMS)),
    )


@st.composite
def _wire_messages(draw):
    sender, round_number = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    kind = draw(st.sampled_from(("vote", "ack", "propose")))
    if kind != "propose":
        cls = VoteMessage if kind == "vote" else AckMessage
        tip = draw(st.sampled_from((None, "t0", "t1")))
        return cls(sender=sender, round=round_number, signature="s", tip=tip)
    txs = draw(st.lists(_wire_transactions(), max_size=4))
    block = Block(parent=None, proposer=sender, view=1, payload=tuple(txs))
    vrf = VRFOutput(draw(st.integers(0, 1)), "p")
    return ProposeMessage(
        sender=sender, round=round_number, signature="s", view=1, block=block, vrf=vrf
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _wire_messages()), min_size=1, max_size=16))
def test_the_body_table_decodes_what_plain_pickle_decodes(steps):
    memo = DecodedBodyMemo()
    resolves_to: dict[bytes, object] = {}
    #: id -> (typed fields, first decode that handed it out).  Every
    #: decoded message stays in ``held`` (a later send of its body
    #: replaces it in ``resolves_to``), so no id is recycled.
    seen: dict[int, tuple[tuple, int]] = {}
    held: list[object] = []
    for step, (sent, message) in enumerate(steps):
        body = _body(message)
        if sent:
            memo.enter(body, message)
            resolves_to[body] = message
            continue
        decoded, plain = memo.loads(body), pickle.loads(body)
        held.append(decoded)
        assert type(decoded) is type(plain) and decoded == plain
        assert decoded.content_key == plain.content_key
        if body in resolves_to:  # a body seen before is the object it was
            assert decoded is resolves_to[body]
            continue
        resolves_to[body] = decoded
        if type(plain) is not ProposeMessage:
            continue
        for tx, twin in zip(decoded.block.payload, plain.block.payload, strict=True):
            assert _typed(tx) == _typed(twin) and tx.tx_id == twin.tx_id
            # One object is one content, exactly typed: nothing aliases.
            typed, first = seen.setdefault(id(tx), (_typed(tx), step))
            assert typed == _typed(tx)
            if not _exact(tx):  # never held, never shared with another body
                assert first == step
                assert all(held is not tx for held in memo._transactions.values())


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
        try:
            a.send_many(0, (1, 2), "first")
            a.send(0, 1, "second")
            await inbox.until(2, 1)
            a.send(0, 1, "next batch")
            async with asyncio.timeout(2):
                while len(got) < 3:
                    await asyncio.sleep(0.001)
            assert got == ["first", "second", "next batch"]
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
