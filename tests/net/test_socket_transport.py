"""Socket transport: framing, announcements, local loopback, audit counters."""

import asyncio
import math
import pickle
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.transactions import Transaction
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRFOutput
from repro.net.gossip import GossipNetwork, SeenIndex
from repro.net.socket_transport import (
    BATCH_VERSION,
    MAX_FRAME_BYTES,
    FrameError,
    SocketTransport,
    TransactionTable,
    decode_batch,
    encode_batch,
    encode_frame,
    encode_hello,
    open_stream,
    read_frame,
    supports_unix_sockets,
)
from repro.runtime.clock import RoundClock
from repro.sleepy.messages import (
    AckMessage,
    ProposeMessage,
    VoteMessage,
    make_propose,
    make_vote,
)


from tests.net.conftest import Collector, ignore, no_surge
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


class _Heard:
    """Listens on a fabric and records every announcement it hands over,
    as ``(pid, elapsed, message)``."""

    def __init__(self, transport) -> None:
        self.entries: list[tuple[int, float, object]] = []
        transport.listen(lambda *entry: self.entries.append(entry))

    async def until(self, count: int, timeout: float = 2.0) -> list[tuple[int, float, object]]:
        """The first ``count`` announcements (``TimeoutError`` if fewer arrive)."""
        async with asyncio.timeout(timeout):
            while len(self.entries) < count:
                await asyncio.sleep(0.0005)
        return self.entries[:count]


async def _listening_pair(tmp_path):
    """The mesh pair, listening (first) and connected, with what each hears."""
    a, b = _mesh_pair(tmp_path)
    heard_a, heard_b = _Heard(a), _Heard(b)
    await a.start()
    await b.start()
    await a.connect()
    await b.connect()
    return a, b, heard_a, heard_b


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_an_announcement_crosses_to_the_peer_and_a_local_frame_loops_back(tmp_path):
    async def scenario():
        a, b, heard_a, heard_b = await _listening_pair(tmp_path)
        inbox_b = Collector(b, (2,))
        try:
            a.announce(0, 0.25, "entry")  # crosses the socket to worker b
            b.send(1, 2, "local")  # loops back inside worker b
            b.announce(1, 0.5, None)  # a stop, crossing to worker a
            assert await heard_b.until(1) == [(0, 0.25, "entry")]
            assert await inbox_b.until(2, 1) == [(1, "local")]
            assert await heard_a.until(1) == [(1, 0.5, None)]
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


def test_a_point_to_point_frame_never_crosses_the_mesh():
    """Only announcements cross between workers: a frame for a pid
    another worker hosts is refused before anything is parked."""
    a, _ = _mesh_pair(Path("unused"))
    with pytest.raises(ValueError, match="not hosted"):
        a.park(0, "x", [(0, 3), (1, 3)])
    assert a.sent_count == 0 and a.wheel.pending == 0


def test_an_announcement_with_no_connection_is_counted_misrouted():
    async def scenario():
        a, _ = _mesh_pair(Path("unused"))
        a.announce(0, 0.0, "nobody to tell")  # never connected
        await asyncio.sleep(0)
        return a

    a = asyncio.run(scenario())
    assert a.misrouted_count == 1 and a.frames_sent == 0


# ----------------------------------------------------------------------
# v4 announcement batches
# ----------------------------------------------------------------------
def _body(payload):
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def test_batch_roundtrip_carries_each_body_after_its_entry():
    entries = [(pid, 0.5 * pid, _body(["body", pid])) for pid in range(1, 6)] + [(7, 3.0, None)]
    chunks = encode_batch(entries)
    assert len(chunks) == 1
    blob = chunks[0][4:]
    assert blob[0] == BATCH_VERSION
    # Version, count, then per entry a 16-byte head and the body's bytes.
    assert len(blob) == 5 + 16 * len(entries) + sum(len(body or b"") for *_, body in entries)
    decoded = decode_batch(blob, TransactionTable())
    assert decoded == [(pid, 0.5 * pid, ["body", pid]) for pid in range(1, 6)] + [(7, 3.0, None)]


def test_a_stop_is_a_head_alone_and_a_head_cannot_claim_more_than_the_blob():
    (chunk,) = encode_batch([(3, 1.5, None)])
    blob = chunk[4:]
    assert blob == bytes([BATCH_VERSION, 0, 0, 0, 1]) + struct.pack(">IdI", 3, 1.5, 0xFFFFFFFF)
    assert decode_batch(blob, TransactionTable()) == [(3, 1.5, None)]
    # A body length just short of a stop's, or a count past the entries
    # the blob holds, is torn before anything is read past the blob.
    for forged in (
        blob[:-4] + (0xFFFFFFFE).to_bytes(4, "big") + b"\x80",
        blob[:1] + (2).to_bytes(4, "big") + blob[5:],
    ):
        with pytest.raises(FrameError, match="torn batch") as raised:
            decode_batch(forged, TransactionTable())
        assert raised.value.reason == "torn"


def test_batch_splits_cleanly_at_the_byte_cap():
    body = _body(b"x" * 100)
    entries = [(pid, float(pid), body) for pid in range(10)]
    chunks = encode_batch(entries, max_bytes=300)
    assert len(chunks) > 1
    decoded = []
    for chunk in chunks:
        assert len(chunk) - 4 <= 300
        decoded.extend(decode_batch(chunk[4:], TransactionTable()))
    # No entry is lost or reordered.
    assert [(pid, instant) for pid, instant, _ in decoded] == [
        (pid, float(pid)) for pid in range(10)
    ]
    assert all(payload == b"x" * 100 for _, _, payload in decoded)


def test_single_oversized_entry_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        encode_batch([(0, 0.0, _body(b"y" * 100))], max_bytes=50)


def test_torn_batch_blobs_raise_value_error():
    (chunk,) = encode_batch([(pid, 1.0, _body("p")) for pid in range(3)])
    blob = chunk[4:]
    # Truncations at any depth are a framing error, not a partial delivery.
    for cut in (1, 2, 5, 12, 21, len(blob) - 3):
        with pytest.raises(ValueError, match="torn batch"):
            decode_batch(blob[:cut], TransactionTable())
    with pytest.raises(ValueError, match="torn batch"):
        decode_batch(blob + b"junk", TransactionTable())
    with pytest.raises(ValueError, match="not a v4"):
        decode_batch(b"\x80rest", TransactionTable())
    # The previous layout's version byte is no batch any more.
    with pytest.raises(ValueError, match="not a v4"):
        decode_batch(b"\x03" + blob[1:], TransactionTable())


@pytest.mark.parametrize("instant", [math.nan, math.inf, -math.inf, -0.001])
def test_an_instant_that_is_not_a_finite_non_negative_number_is_torn(instant):
    (chunk,) = encode_batch([(0, 1.0, _body("p")), (0, instant, None)])
    with pytest.raises(FrameError, match="instant") as raised:
        decode_batch(chunk[4:], TransactionTable())
    assert raised.value.reason == "torn"


def test_partial_batch_frame_at_eof_raises_incomplete_read():
    (chunk,) = encode_batch([(0, 0.0, _body("p"))])

    async def torn_stream():
        reader = asyncio.StreamReader()
        reader.feed_data(chunk[: len(chunk) // 2])
        reader.feed_eof()
        with pytest.raises(asyncio.IncompleteReadError):
            await read_frame(reader)

    asyncio.run(torn_stream())


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_an_announcement_pickles_once_for_every_peer(tmp_path):
    """Three workers: an announcement goes to both peers, pickled once and
    reused once, one batch write each; each peer decodes it for itself."""

    async def scenario():
        addresses = {wid: str(tmp_path / f"w{wid}.sock") for wid in range(3)}
        owner = {pid: pid for pid in range(3)}
        workers = [
            SocketTransport(
                3,
                local_pids=(wid,),
                owner=owner,
                worker_id=wid,
                addresses=addresses,
                base_latency_s=0.001,
                jitter_s=0.0,
            )
            for wid in range(3)
        ]
        heard = [_Heard(worker) for worker in workers]
        for worker in workers:
            await worker.start()
        for worker in workers:
            await worker.connect()
        a = workers[0]
        try:
            body = ["broadcast", bytes(4096)]
            a.announce(0, 0.125, body)
            assert await heard[1].until(1) == [(0, 0.125, body)]
            assert await heard[2].until(1) == [(0, 0.125, body)]
            assert heard[0].entries == []
            assert a.payload_encodes == 1 and a.payload_reuses == 1
            assert a.batches_sent == 2 and a.frames_sent == 2 == a.sent_count
            assert all(w.batches_received == 1 and w.frames_received == 1 for w in workers[1:])
        finally:
            for worker in workers:
                await worker.close()

    asyncio.run(scenario())


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_a_turns_announcements_ride_one_batch_and_arm_no_timer(tmp_path):
    async def scenario():
        a, b, _heard_a, heard_b = await _listening_pair(tmp_path)
        try:
            # 20 announcements in one turn of the loop: one batch write,
            # written once the turn ends, and no loop timer at all.
            for i in range(20):
                a.announce(0, float(i), i)
            assert a.frames_sent == 0
            entries = await heard_b.until(20)
            assert [message for _, _, message in entries] == list(range(20))
            assert a.frames_sent == 20 and a.batches_sent == 1
            assert a.wheel.timers_created == 0
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


#: A batch worker 0 may send: an entry at its pid 0, and its stop.
_VALID = [(0, 0.25, "ok"), (0, 0.5, None)]


def _valid_batch() -> bytes:
    (chunk,) = encode_batch([(0, 0.25, _body("ok")), (0, 0.5, None)])
    return chunk


def _deliver_raw(tmp_path, junk: bytes) -> SocketTransport:
    """Worker b after a raw peer said hello as worker 0 and wrote ``junk``
    and then one valid batch."""

    async def scenario():
        _, b = _mesh_pair(tmp_path)
        heard = _Heard(b)
        await b.start()
        try:
            _, writer = await open_stream(b._addresses[1])
            writer.write(encode_hello(0) + junk + _valid_batch())
            # The reader outlives the junk: the valid batch still lands.
            assert await heard.until(2) == _VALID
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
    """A well-formed batch: one good entry, then one carrying ``body``."""
    (chunk,) = encode_batch([(0, 0.1, _body("rides along")), (0, 0.2, body)])
    return chunk


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_a_bomb_inside_a_well_formed_batch_never_runs(tmp_path):
    body = _body(_Bomb())
    pickle.loads(body)
    assert _TRIPPED.pop()  # the bomb is live: loading it runs code
    poisoned = _riding_along(body)
    with pytest.raises(ValueError, match="undecodable batch body: UnpicklingError"):
        decode_batch(poisoned[4:], TransactionTable())
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
    (chunk,) = encode_batch([(0, 0.0, _body("lost"))])
    junk = _blob(chunk[4:-3]) + _blob(bytes([BATCH_VERSION]) + b"garbage")
    # A batch can also be framed perfectly and carry a body whose load
    # raises whatever it likes: still one rejected batch, not a dead reader.
    for raised, body in _POISONED_BODIES.items():
        with pytest.raises(raised):
            pickle.loads(body)
        poisoned = _riding_along(body)
        with pytest.raises(ValueError, match="undecodable batch body: UnpicklingError"):
            decode_batch(poisoned[4:], TransactionTable())
        junk += poisoned
    # Hand-built ill-typed messages reach ``object.__new__`` through
    # ``builtins.getattr``: refused at the global, like any non-wire name.
    refused = ill_typed_bodies()
    for body in refused:
        poisoned = _riding_along(body)
        with pytest.raises(ValueError, match="undecodable batch body: UnpicklingError"):
            decode_batch(poisoned[4:], TransactionTable())
        junk += poisoned
    # The same states in a message's own form name only wire types — a
    # float round, a bool sender, bytes for a signature — and still decode
    # to nothing: ``__setstate__`` raises, and no such object ever
    # reaches gossip or the verifier.
    ill_typed = wire_form_ill_typed_bodies()
    for body in ill_typed:
        poisoned = _riding_along(body)
        with pytest.raises(ValueError, match="undecodable batch body: TypeError"):
            decode_batch(poisoned[4:], TransactionTable())
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
    async def scenario():
        _, b = _mesh_pair(tmp_path)
        heard = _Heard(b)
        await b.start()
        try:
            hung_up, bogus = await open_stream(b._addresses[1])
            bogus_length = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
            bogus.write(encode_hello(0) + bogus_length + _valid_batch())
            # Nothing can resync past a bogus length: b ends this connection.
            assert await asyncio.wait_for(hung_up.read(), 2) == b""
            (ended,) = [task for task in b._reader_tasks if task.done()]
            assert ended.exception() is None
            # Another connection is served as before.
            _, honest = await open_stream(b._addresses[1])
            honest.write(encode_hello(0) + _valid_batch())
            assert await heard.until(2) == _VALID
            bogus.close()
            honest.close()
        finally:
            await b.close()
        return b

    b = asyncio.run(scenario())
    assert b.frames_rejected_oversized == b.frames_rejected == 1
    assert b.frames_rejected_torn == b.frames_rejected_refused == 0
    assert b.batches_received == 1 and b.frames_received == 2


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_an_announcement_for_a_pid_its_sender_does_not_host_is_refused_and_counted(tmp_path):
    """Worker 0 hosts pid 0 only: its entries at pids 1 (worker b's own)
    and 9 (nobody's) are refused and counted, the one at 0 is heard.  A
    connection whose hello names no peer — b itself, a worker the mesh
    does not have, or no hello at all — is refused and hung up on."""
    (forged,) = encode_batch(
        [(1, 0.1, _body("forged")), (0, 0.2, _body("ok")), (9, 0.3, None)]
    )

    async def scenario():
        _, b = _mesh_pair(tmp_path)
        heard = _Heard(b)
        await b.start()
        try:
            _, writer = await open_stream(b._addresses[1])
            writer.write(encode_hello(0) + forged)
            assert await heard.until(1) == [(0, 0.2, "ok")]
            for hello in (encode_hello(1), encode_hello(7), _valid_batch()):
                hung_up, stranger = await open_stream(b._addresses[1])
                stranger.write(hello + _valid_batch())
                assert await asyncio.wait_for(hung_up.read(), 2) == b""
                stranger.close()
            writer.close()
        finally:
            await b.close()
        return b, heard

    b, heard = asyncio.run(scenario())
    assert heard.entries == [(0, 0.2, "ok")]
    assert b.entries_refused == 2 and b.frames_received == 3
    assert b.frames_rejected == b.frames_rejected_torn == 3


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_an_entry_instant_ahead_of_the_receivers_clock_lands_at_receipt(tmp_path):
    """A receiving shard enters an announced message at its instant, or,
    if that is ahead of its own clock, at the instant it reads it."""
    triangle = {0: (1, 2), 1: (0, 2), 2: (0, 1)}
    early, late = (make_vote(REGISTRY, REGISTRY.secret_key(0), r, None) for r in (0, 1))

    async def scenario():
        a, b = _mesh_pair(tmp_path)
        clock = RoundClock(0.01)
        clock.start()
        network = GossipNetwork(b, triangle, ignore, SeenIndex(10), clock, no_surge)
        entries = []
        enter, summarise = network._enter, network._summarise

        def entering(pid, elapsed, message):
            entries.append([clock.now()])
            enter(pid, elapsed, message)

        def summarising(pid, t0, arrivals, message):
            entries[-1].append(t0)  # where and when the flood starts
            return summarise(pid, t0, arrivals, message)

        network._summarise = summarising
        b.listen(entering)
        for transport in (a, b):
            await transport.start()
        await a.connect()
        try:
            await asyncio.sleep(0.01)
            past = clock.elapsed() - 0.004
            a.announce(0, past, early)
            a.announce(0, clock.elapsed() + 10.0, late)
            async with asyncio.timeout(2):
                while len(entries) < 2:
                    await asyncio.sleep(0.0005)
        finally:
            await a.close()
            await b.close()
        return clock.origin + past, entries

    past_at, [(_, kept), (received, clamped)] = asyncio.run(scenario())
    assert kept == pytest.approx(past_at, abs=1e-9)
    # Read off the clock as it enters, not ten seconds ahead.
    assert received <= clamped < received + 0.01


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
    entries = [(m.sender, 0.5 * i, _body(m)) for i, m in enumerate(messages)]
    if draw(st.booleans()):
        entries.append((0, 2.0, None))  # a stop rides along
    (chunk,) = encode_batch(entries)
    blob = bytearray(chunk[4:])
    if how == "cut":
        return how, bytes(blob[: draw(st.integers(0, len(blob) - 1))])
    # Framing is a few bytes among the bodies': aim a third of the flips
    # at the head (version, count, the first entry's pid, instant and
    # body length), a third at some entry's head, a third anywhere.
    heads = [5]
    for *_, body in entries[:-1]:
        heads.append(heads[-1] + 16 + len(body or b""))
    head = draw(st.sampled_from(heads))
    start, stop = draw(st.sampled_from(((0, 21), (head, head + 16), (0, len(blob)))))
    for bit in draw(st.lists(st.integers(8 * start, 8 * stop - 1), min_size=1, max_size=4)):
        blob[bit // 8] ^= 1 << (bit % 8)
    return how, bytes(blob)


@settings(max_examples=300, deadline=None)
@given(_mangled_batches())
def test_only_a_frame_error_escapes_decode_batch(mangled):
    how, blob = mangled
    try:
        entries = decode_batch(blob, TransactionTable())
    except FrameError as exc:
        assert exc.reason in ("torn", "refused")
        # A cut is torn whatever it cuts: a body's length is checked
        # against the blob before the body is decoded.
        assert how != "cut" or exc.reason == "torn"
    else:
        assert how != "cut"
        # Whatever decodes carries only instants a shard can enter.
        assert all(0.0 <= instant < math.inf for _, instant, _ in entries)


@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
@settings(max_examples=40, deadline=None)
@given(st.lists(_mangled_batches(), min_size=1, max_size=4))
def test_a_live_reader_serves_the_next_batch_after_each_mangled_one(mangled):
    async def scenario(directory):
        _, b = _mesh_pair(directory)
        heard = _Heard(b)
        await b.start()
        try:
            _, writer = await open_stream(b._addresses[1])
            writer.write(encode_hello(0))
            for i, (_how, blob) in enumerate(mangled):
                marker = ("next", i)
                (valid,) = encode_batch([(0, float(i), _body(marker))])
                writer.write(_blob(blob) + valid)
                async with asyncio.timeout(2):
                    while (0, float(i), marker) not in heard.entries:
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
# The transaction table: one object per transaction per process
# ----------------------------------------------------------------------
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
def test_an_announced_message_is_decoded_by_its_receiver_only(tmp_path):
    """A message crosses to each other process once: its receiver decodes
    it into an equal object and holds the proposal's transactions, and
    its sender, to which it never comes back, decodes nothing."""
    vote = make_vote(REGISTRY, REGISTRY.secret_key(0), 3, None)
    proposal = _proposal(0, _transactions(3))

    async def scenario():
        a, b, _heard_a, heard_b = await _listening_pair(tmp_path)
        try:
            for count, message in enumerate((vote, proposal), start=1):
                a.announce(0, 0.0, message)
                _, _, there = (await heard_b.until(count))[-1]
                assert there == message and there is not message
            assert not a._transactions._transactions
            assert len(b._transactions._transactions) == 3
        finally:
            await a.close()
            await b.close()

    asyncio.run(scenario())


def test_a_proposal_of_held_transactions_hashes_only_its_block(monkeypatch):
    txs = _transactions(5)
    first_body = _body(_proposal(1, _copies(txs)))
    second_body = _body(_proposal(2, _copies(txs)))
    table = TransactionTable()
    first = table.loads(first_body)
    calls = _counting_hashes(monkeypatch)
    second = table.loads(second_body)
    assert calls == ["block"]
    assert all(a is b for a, b in zip(second.block.payload, first.block.payload, strict=True))
    assert second == pickle.loads(second_body)


def test_the_transaction_table_stays_within_its_bound_under_a_flood():
    from repro.net.socket_transport import TRANSACTION_INTERN_CAPACITY

    flood = _transactions(TRANSACTION_INTERN_CAPACITY + 50, sender=3)
    table = TransactionTable()
    for view, start in enumerate(range(0, len(flood), 100), start=1):
        table.loads(_body(_proposal(1, flood[start : start + 100], view=view)))
        assert len(table._transactions) <= TRANSACTION_INTERN_CAPACITY
    assert len(table._transactions) == TRANSACTION_INTERN_CAPACITY
    # The oldest went first; an evicted transaction decodes again, equal.
    (again,) = table.loads(_body(_proposal(1, flood[:1], view=99))).block.payload
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
    table = TransactionTable()
    table.loads(_body(_proposal(1, _copies([tx]))))
    fields = (tx.sender, tx.nonce, tx.payload, tx.checksum)
    held = table.transaction(*fields)
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
                table.loads(body)
            assert table.transaction(*fields) is held
            assert {k: (type(v), v) for k, v in vars(held).items()} == {
                k: (type(v), v) for k, v in before.items()
            }
    rewritten = _body(_Rewritten(Block, (None, 1, 1, (), 0), {"block_id": "f0" * 32}))
    for load in (pickle.loads, table.loads):
        with pytest.raises(pickle.UnpicklingError, match="no pickled state"):
            load(rewritten)
    # NEWOBJ: a block that never ran its constructor, with no fields at
    # all, or (with a BUILD) a forged id.
    newobj = b"\x80\x02crepro.chain.block\nBlock\n)\x81"
    assert not hasattr(pickle.loads(newobj + b"."), "parent")
    forged = newobj + b"}" + _text("block_id") + _text("f0" * 32) + b"sb."
    for body in (newobj + b".", forged):
        with pytest.raises(pickle.UnpicklingError, match="NEWOBJ"):
            table.loads(body)


# A differential against plain ``pickle.loads``: exact and non-exact field
# types, one-byte-apart payloads and checksums.
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
@given(st.lists(_wire_messages(), min_size=1, max_size=16))
def test_the_transaction_table_decodes_what_plain_pickle_decodes(messages):
    table = TransactionTable()
    #: id -> (typed fields, first decode that handed it out).  Every
    #: decoded message stays in ``held``, so no id is recycled.
    seen: dict[int, tuple[tuple, int]] = {}
    held: list[object] = []
    for step, message in enumerate(messages):
        body = _body(message)
        decoded, plain = table.loads(body), pickle.loads(body)
        held.append(decoded)
        assert type(decoded) is type(plain) and decoded == plain
        assert decoded.content_key == plain.content_key
        if type(plain) is not ProposeMessage:
            continue
        for tx, twin in zip(decoded.block.payload, plain.block.payload, strict=True):
            assert _typed(tx) == _typed(twin) and tx.tx_id == twin.tx_id
            # One object is one content, exactly typed: nothing aliases.
            typed, first = seen.setdefault(id(tx), (_typed(tx), step))
            assert typed == _typed(tx)
            if not _exact(tx):  # never held, never shared with another body
                assert first == step
                assert all(held is not tx for held in table._transactions.values())


# ----------------------------------------------------------------------
# Listener and subscriber lifecycle on the socket fabric
# ----------------------------------------------------------------------
@pytest.mark.skipif(not supports_unix_sockets(), reason="needs AF_UNIX")
def test_a_raising_listener_does_not_stop_the_reader(tmp_path):
    async def scenario():
        a, b = _mesh_pair(tmp_path)
        got = []

        def fragile(pid, elapsed, message):
            got.append(message)
            if len(got) == 1:
                raise RuntimeError("consumer bug")

        b.listen(fragile)
        for transport in (a, b):
            await transport.start()
        await a.connect()
        try:
            a.announce(0, 0.0, "first")
            a.announce(0, 0.0, "second")
            await asyncio.sleep(0.01)
            a.announce(0, 0.0, "next batch")
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
        a, b, _heard_a, _heard_b = await _listening_pair(tmp_path)
        inbox_b = Collector(b, (2,))
        b.send(1, 2, "in flight")  # parked in a wheel slot
        b.unsubscribe(2)
        await a.close()
        await b.close()
        assert inbox_b.frames[2] == []
        assert b.wheel.pending == 0 and b.misrouted_count == 0
        assert Collector(b, (2,)).frames[2] == [(1, "in flight")]

    asyncio.run(scenario())
