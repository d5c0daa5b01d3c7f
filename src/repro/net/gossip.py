"""Gossip dissemination, computed: when each node first holds each message.

The paper assumes "an underlying peer-to-peer dissemination protocol
(e.g., a gossip protocol)" (§2.1) with two crucial properties exercised
here: messages reach everyone even if the original sender goes to sleep
mid-dissemination, and messages survive asynchronous periods (they are
delayed, not lost).  The model asks one thing of it: each process
eventually holds every message, within δ while the network is
synchronous.

Topology is a random k-regular overlay (complete graph for tiny n);
every node forwards each message once, at its first arrival, to all its
neighbours but the one it came from, which floods any connected graph
in ``diameter`` hops.

**The flood is a function.**  A shard does not replay that flood frame
by frame.  It settles the overlay's nodes in instant order, Dijkstra's
way, on one heap of computed frames (:meth:`GossipNetwork.catch_up`): a
message enters at a node — published there, or announced by another
process as published there — and each node it settles offers the
message to its neighbours under the hop law, quantized to the
fabric's slots: a node ``u`` first holding the message at loop instant
``T_u`` offers it to neighbour ``v``, and the frame arrives at

    ``ceil((T_u + d_uv) / slot_s) · slot_s``,

``d_uv`` being the link's draw for this message
(:class:`~repro.net.transport.LinkLatencyModel`) times the surge factor
of the round holding ``T_u`` (:meth:`~repro.runtime.clock.RoundClock.
round_at`: an instant on a round's edge is in the round that begins
there).  Under an attack script the proxy's
:meth:`~repro.net.proxy_transport.ProxyTransport.fate` first moves
``T_u`` to a partition's release, or drops the frame, and ``d_uv`` is
multiplied by the script's surge factor on the link as well: one law,
``draw × period factor × script factor``, both factors those of the
instant the frame starts crossing.  No delay is negative and a node
forwards exactly once, at its first arrival, so settling nodes in
instant order *is* the frame-by-frame flood's event order: every first
arrival lands in the slot full flooding would give it, though a surge
ending mid-flight is not FIFO.

**Every shard computes the whole flood.**  The draws, the surge factors
and ``fate`` are pure functions of the run seed, the link, the message
and the instant, so a shard needs nothing of another process but where
and when each message entered the flood.  It computes over every pid of
the overlay; a pid another process hosts is settled as a relay only —
no ``held`` bit, no ``delivered`` count, no admission, no audit — and
its own process files its arrivals.  A message leaves its origin shard
once per peer process, at publish, as an announcement (the entry pid,
the instant as seconds since the run's shared start, and the body:
:meth:`~repro.net.transport.Transport.announce`); the receiving shard
enters it at that pid and instant (an instant ahead of its own clock is
taken as now) and computes its own nodes' first arrivals from the same
draws.  A node's stop is announced the same way, with no body, and the
stopped pid then neither receives nor relays in any shard's flood.  An
announcement lowers only instants not settled yet: one that arrives
after its shard has settled past the entry's consequences changes
nothing already filed.

The shard settles a frame once its clock has reached the frame's
instant, and files the node's first arrival in its seen index then
(:class:`Arrivals`): whoever reads the clock for the shard catches the
flood up first — a publish, an announcement, and the shard's round loop
before a round's deliveries and before its receive phases.  A node's
receive phase is handed what the node holds by its instant
(:meth:`~repro.runtime.delivery.ShardDelivery.take`), however late the
host woke it.  No shard arms a timer for the flood.

**A calm flood is filed whole.**  Where nothing but the clock can look
inside a flood — no node is stopped, and ``t0``'s round has no attack
script or is in a calm phase of one, where ``fate`` returns every
instant as is, with factor 1, and audits nothing — a
message entering at ``pid`` at ``t0`` is not computed node by node
(:meth:`GossipNetwork._summarise`).  A hop moves a frame at most
``H = ceil((base + jitter) · f / slot_s) + 1`` slots past the slot its
forwarder's instant rounds up to, ``f`` being the surge factor of
``t0``'s round (the ``+ 1`` absorbs rounding at a slot's edge), so the
flood's last first arrival is no later than
``done = (ceil(t0 / slot_s) + ecc · H) · slot_s``, ``ecc`` being
``pid``'s eccentricity over the overlay (a BFS the first time a flood
enters there).  If
``done`` is in ``t0``'s round, and that round is no more than the
horizon past the message's, every instant of the flood is in one round
with one surge factor and none is stale: ``pid`` holds the message at
once, and while the clock is before the earliest second arrival,
``ceil((t0 + base · f) / slot_s) · slot_s``, nothing else has arrived.
A catch-up at or past ``done`` files every other node's first arrival
in one step; one before it, past the earliest second arrival, first
has ``pid`` offer the message on at ``t0``, as the flood computed node
by node did then, and the heap takes it from there.  So does another
entry of the message meanwhile, a node's stop, and a catch-up after the
seen index has forgotten the message (whose frames then land stale).
Either way, what a catch-up files — ``held``, ``delivered``,
``stale_dropped`` — is bit for bit what the flood computed node by node
files, and in a calm phase nothing else reads its instants.  A flood
entering a surged round whose hops outlast the round, or a round whose
script phase is :attr:`~repro.attacks.script.PhaseState.delivery_active`,
is computed node by node.

**A flood draws its links when a frame of it is computed.**  A message
enters undrawn; its draws are computed the first time the shard
computes a frame of its flood — a frame settled node by node, or a
flood filed whole that is opened — and kept for the rest of it, so a
flood filed whole and settled so draws nothing (where no frame goes
stale, ``draw_digests + summarised`` is the floods the shard entered).
Its drop coins, where a script's ``drop`` asks for them, are tossed
once while it is in flight.  Both are pure functions of the run seed
and the message, so when they are computed moves no instant.

Two more rules match the frame-by-frame flood at its edges:

* a **stopped** node (:meth:`GossipNode.stop`) neither receives nor
  relays;
* an instant in a round whose seen floor is above the message's round
  (or of a message the seen index has forgotten) is no arrival: the
  node drops the message, counted in ``stale_dropped``, and does not
  relay it.

Deduplication is **content-keyed**, exactly like the round simulator's
message bus (:mod:`repro.engine.bus`): the "seen" key is the message's
:attr:`~repro.sleepy.messages.Message.content_key` — a flat tuple of
fields its constructor type-checked, built per arrival, compared
exactly, with no encoding, no hash and no memo behind it — and never an
id read from the message (README, "Identifiers and where they are
computed"; a trusted id would let a junk message carrying a transplanted
one censor the honest original).  The link draws are keyed by the same
content (:func:`~repro.net.transport.draw_key`); nothing dedups by the
draw digest.  Gossip carries :class:`~repro.sleepy.messages.Message`
objects only: an entry with any other payload is ignored.

**Admission is per shard.**  A message is handed to the network's one
admission callback once, when it first enters the shard (published at
one of its nodes or announced by another process), after its entry is
computed; a deployment shard publishes it into its
:class:`~repro.engine.bus.MessageBus` there
(:class:`~repro.runtime.delivery.ShardDelivery`).

The seen index is also **bounded**: on a long-running service it would
otherwise retain one key per message forever.  Entries are
round-bucketed and evicted once their message round falls more than the
horizon behind the current round — η +
:data:`~repro.sleepy.horizon.SEEN_SLACK_ROUNDS`, below which no
protocol consumer can still use the message.  The current round comes
from the shard's phase loop, which advances the index once per round
(:meth:`SeenIndex.advance`), never from message fields, which are
attacker-controlled.  Messages already older than the horizon on
arrival are dropped outright (counted, never silently), which keeps an
evicted key from re-flooding forever.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Callable, Mapping, Sequence
from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple

from repro.net.transport import WORD, Transport, draw_key
from repro.sleepy.horizon import RoundBuckets
from repro.sleepy.messages import Message

if TYPE_CHECKING:  # import at runtime would cycle through repro.runtime
    from repro.net.proxy_transport import ProxyTransport
    from repro.runtime.clock import RoundClock

#: A network's consumer: called with a message and its dedup key when the
#: message first enters the shard.
AdmissionHandler = Callable[[Message, tuple], None]


def _random_regular_edges(degree: int, n: int, rng: random.Random) -> set[tuple[int, int]]:
    """Steger–Wormald pairing: the edge set of a random ``degree``-regular
    graph on ``n`` nodes (``n * degree`` even, ``0 < degree < n``).

    Draw for draw what ``networkx.random_regular_graph(degree, n, rng)``
    does with the same generator — overlays are part of a run's seeded
    identity, so the port keeps that function's shuffles, its retry
    rule and the quirk noted below (``tests/net/test_gossip.py`` compares
    the two wherever networkx is installed).
    """

    def suitable(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
        # Whether some pair of nodes with unmatched stubs is not an edge yet.
        if not leftover:
            return True
        for s1 in leftover:
            for s2 in leftover:
                if s1 == s2:
                    break
                if s1 > s2:
                    # Rebinds the outer node for the rest of this inner
                    # loop, as networkx's ``_suitable`` does: which dense
                    # attempts are retried depends on it.
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    while True:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            leftover: dict[int, int] = {}
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover[s1] = leftover.get(s1, 0) + 1
                    leftover[s2] = leftover.get(s2, 0) + 1
            if not suitable(edges, leftover):
                break  # this attempt cannot be completed: start over
            stubs = [node for node, count in leftover.items() for _ in range(count)]
        else:
            return edges


def _is_connected(neighbours: dict[int, list[int]]) -> bool:
    reached = {0}
    stack = [0]
    while stack:
        for peer in neighbours[stack.pop()]:
            if peer not in reached:
                reached.add(peer)
                stack.append(peer)
    return len(reached) == len(neighbours)


def regular_topology(n: int, degree: int, seed: int = 0) -> dict[int, tuple[int, ...]]:
    """A connected random ``degree``-regular overlay (complete if small).

    Falls back to the complete graph when a regular graph of the
    requested degree does not exist or would be smaller than useful.
    """
    if n <= degree + 1 or (n * degree) % 2 == 1:
        return {pid: tuple(q for q in range(n) if q != pid) for pid in range(n)}
    rng = random.Random(seed)
    for attempt in range(32):
        neighbours: dict[int, list[int]] = {pid: [] for pid in range(n)}
        for a, b in _random_regular_edges(degree, n, random.Random(rng.randrange(1 << 30))):
            neighbours[a].append(b)
            neighbours[b].append(a)
        if _is_connected(neighbours):
            return {pid: tuple(sorted(peers)) for pid, peers in neighbours.items()}
    raise RuntimeError("could not sample a connected regular overlay")


#: :attr:`Arrivals.drawn` until a frame of the message's flood is computed.
UNDRAWN = object()


class Arrivals:
    """One message's arrivals in one shard.

    :attr:`held` is a bitmask over the pids the shard hosts: bit ``pid``
    is set once the shard's clock has reached the node's first arrival
    (:meth:`GossipNetwork.catch_up`), from when on the node holds the
    message.  :attr:`relayed` is the same for the pids other processes
    host, which the shard settles as relays only.  :attr:`best` maps a
    pid not reached yet to the earliest instant a frame computed so far
    reaches it — its first arrival, unless an earlier frame is computed
    before the clock gets there, or a stale one.  :attr:`drawn` is the
    message's link draws
    (:meth:`~repro.net.transport.LinkLatencyModel.draw`): :data:`UNDRAWN`
    until the first frame of its flood is computed, then computed once
    per message per shard, so a flood filed whole and settled so draws
    nothing; ``None`` once the seen index has forgotten the message: a
    frame pending then is stale.  :attr:`coins` is the message's drop
    coins (:meth:`~repro.net.transport.LinkLatencyModel.coins`), tossed
    by the attack proxy the first time one of its frames needs one and
    kept while its flood is in flight, else ``None``.  :attr:`summary`
    is the message's flood while it is filed whole and not yet settled
    (:meth:`GossipNetwork._summarise`), else ``None``.
    """

    __slots__ = ("held", "relayed", "best", "drawn", "coins", "summary")

    def __init__(self) -> None:
        self.held = 0
        self.relayed = 0
        self.best: dict[int, float] = {}
        self.drawn: bytes | object | None = UNDRAWN
        self.coins: list[float] | None = None
        self.summary: Summary | None = None


class Summary(NamedTuple):
    """A flood filed whole, until it is settled or computed node by node
    (:meth:`GossipNetwork._summarise`)."""

    #: No first arrival of the flood is later than this instant.
    done: float
    #: The node it entered at, and when.
    entry: int
    t0: float
    #: The surge factor of ``t0``'s round.
    factor: float
    message: Message


class SeenIndex:
    """What a shard's nodes hold: one index per shard.

    ``arrivals`` maps a dedup key to its :class:`Arrivals`.  One entry
    per message per shard, one bucket list, one eviction sweep — not one
    of each per node.  Keys are filed by message round in a
    :class:`~repro.sleepy.horizon.RoundBuckets` and forgotten once that
    round falls below :attr:`floor`, ``horizon_rounds`` behind the round
    :meth:`advance` last set (module docstring).
    """

    __slots__ = ("arrivals", "horizon", "now", "floor", "_rounds")

    def __init__(self, horizon_rounds: int) -> None:
        if horizon_rounds < 0:
            raise ValueError("seen horizon must be non-negative")
        self.arrivals: dict[object, Arrivals] = {}
        self.horizon = horizon_rounds
        #: The shard's current round, and the oldest message round still kept.
        self.now = 0
        self.floor = -horizon_rounds
        self._rounds = RoundBuckets(self.floor)

    def __len__(self) -> int:
        return len(self.arrivals)

    def advance(self, now: int) -> None:
        """Enter round ``now``: forget every key filed below the new floor."""
        self.now, self.floor = now, now - self.horizon
        arrivals = self.arrivals
        for stale in self._rounds.release(self.floor):
            forgotten = arrivals.pop(stale, None)
            if forgotten is not None:
                forgotten.drawn = None

    def admit(self, key: object, message_round: int) -> None:
        """File a key the shard did not hold."""
        # Clamp attacker-controlled future round tags so a huge tag
        # cannot park its bucket beyond every future eviction.
        self._rounds.bucket(min(message_round, self.now)).append(key)


class GossipNode:
    """One hosted node's door into the flood.

    A message its node publishes enters the shard's flood here
    (:meth:`_ingest`).  ``stats`` counts its first arrivals
    (``delivered``), publishes of a message it held already or that a
    computed frame reaches no later (``duplicates``) and messages too old
    to use (``stale_dropped``).
    """

    def __init__(self, pid: int, network: GossipNetwork) -> None:
        self.pid = pid
        self._network = network
        self.stats = {"delivered": 0, "duplicates": 0, "stale_dropped": 0}

    def publish(self, message: Message) -> None:
        """Originate a message: it holds it now and the flood starts here."""
        self._ingest(message)

    def stop(self) -> None:
        """Stop receiving and relaying, in every shard's flood: what is due
        by now still lands, and frames still in flight to this node never
        do."""
        network = self._network
        network._stop(self.pid)
        network._announce(self.pid, None, None)

    def _ingest(self, message: object) -> None:
        """``message`` enters the flood at this node, now."""
        if isinstance(message, Message):
            network = self._network
            network._entry(self.pid, network.clock.now(), message)


class GossipNetwork:
    """The gossip overlay as one shard computes it.

    ``topology`` is the whole overlay, and the network computes the
    flood over all of it: it hosts the pids its fabric hosts
    (``transport.hosted``) and settles every other pid as a relay only,
    and numbers every directed edge of the overlay in the fabric's link
    model (:meth:`~repro.net.transport.LinkLatencyModel.enumerate`), the
    same numbering in every shard.  Construct it before the fabric
    starts listening: the network listens for its peers' announcements
    here, so none can precede its consumer.

    ``on_admit`` is the shard's one consumer, called once per message
    (module docstring).  ``seen`` is the shard's :class:`SeenIndex`,
    which its owner advances once per round.  ``clock`` is the shard's
    round clock and ``surge_factor(r)`` the latency multiplier of round
    ``r`` (:meth:`~repro.engine.conditions.NetworkConditions.surge_factor`).
    ``proxy``, under an attack script, is asked the
    :meth:`~repro.net.proxy_transport.ProxyTransport.fate` of every
    out-link of every node the flood settles, and whether a round is
    calm (:meth:`~repro.net.proxy_transport.ProxyTransport.calm`).
    """

    def __init__(
        self,
        transport: Transport,
        topology: Mapping[int, Sequence[int]],
        on_admit: AdmissionHandler,
        seen: SeenIndex,
        clock: RoundClock,
        surge_factor: Callable[[int], float],
        proxy: ProxyTransport | None = None,
    ) -> None:
        self.transport = transport
        self.seen = seen
        self.clock = clock
        self.on_admit = on_admit
        self._surge_factor = surge_factor
        #: Round -> its surge factor, as the flood asks for them.
        self._factors: dict[int, float] = {}
        self._fate = None if proxy is None else proxy.fate
        self._calm = None if proxy is None else proxy.calm
        links = transport.links
        links.enumerate(topology)
        hosted = transport.hosted
        #: The hop law's constants: base latency, a draw word's scale and
        #: the slot width.
        self._hop = (links.base, links.jitter / 2**32, transport.slot_s)
        #: Pid -> ``(neighbour, offset of the link's word in a draw)`` of
        #: each neighbour, for every pid of the overlay.
        self._links: dict[int, tuple[tuple[int, int], ...]] = {
            pid: tuple((peer, 4 * links.edges[(pid, peer)]) for peer in peers)
            for pid, peers in sorted(topology.items())
        }
        #: Computed frames not yet reached by the clock, as a heap of
        #: ``(instant, order, pid, source, arrivals, message)``.
        self._pending: list[tuple] = []
        self._order = itertools.count()
        #: Floods filed whole and not yet settled, as a heap of
        #: ``(earliest second arrival, order, arrivals)``.
        self._summaries: list[tuple] = []
        #: Pid -> its eccentricity over the overlay (−1: some pid is out of
        #: its reach), computed when a flood first enters there.
        self._eccentricity: dict[int, int] = {}
        #: The hosted pids, and the relays, as bitmasks.
        self._everyone = sum(1 << pid for pid in self._links if pid in hosted)
        self._relays = sum(1 << pid for pid in self._links if pid not in hosted)
        #: Floods filed whole (module docstring).
        self.summarised = 0
        #: Pids that neither receive nor relay any more, hosted or not.
        self.stopped: set[int] = set()
        self.nodes = {pid: GossipNode(pid, self) for pid in self._links if pid in hosted}
        self._stats = {pid: node.stats for pid, node in self.nodes.items()}
        transport.listen(self._enter)

    def _announce(self, pid: int, t: float | None, message: Message | None) -> None:
        """Tell the other processes, if any, of an entry (or a stop) at
        hosted ``pid`` at loop instant ``t`` (``None``: now)."""
        if self._relays:
            clock = self.clock
            elapsed = (clock.now() if t is None else t) - clock.origin
            self.transport.announce(pid, max(elapsed, 0.0), message)

    def _enter(self, pid: int, elapsed: float, message: object) -> None:
        """A peer process announces that ``message`` entered the flood at
        its ``pid``, ``elapsed`` seconds after the run's start (``None``:
        that ``pid`` stopped then).  An instant ahead of this shard's
        clock is taken as now."""
        clock = self.clock
        t = min(clock.origin + elapsed, clock.now())
        if message is None:
            self._stop(pid, t)
        elif isinstance(message, Message):
            self._entry(pid, t, message)

    def _entry(self, pid: int, t: float, message: Message) -> None:
        """``message`` enters the flood at ``pid`` at loop instant ``t``:
        published at a hosted node, or announced by the process hosting
        ``pid``.

        The entry lowers only instants not settled yet.  A hosted node
        counts an entry it cannot use (``stale_dropped``, ``duplicates``)
        and has one that enters announced to the other processes; a
        message new to the shard is admitted once its entry is computed.
        """
        node = self._stats.get(pid)
        seen = self.seen
        if message.round < seen.floor:
            # Older than anything the protocol can still consume: its
            # votes are expired and its proposal views pruned.  Dropping
            # (audited, never silent) also prevents a re-flood loop once
            # the key has been evicted.
            if node is not None:
                node["stale_dropped"] += 1
            return
        key = message.content_key
        arrivals = seen.arrivals.get(key)
        first = arrivals is None
        if first:
            arrivals = seen.arrivals[key] = Arrivals()
            seen.admit(key, message.round)
        elif (arrivals.held | arrivals.relayed) >> pid & 1:
            if node is not None:
                node["duplicates"] += 1
            return
        # The entry is pending at its instant, behind every computed frame
        # due before it: one catch-up settles them in order.  A flood
        # filed whole has its entry settled already.
        entered = (first and self._summarise(pid, t, arrivals, message)) or self._reach(
            pid, t, arrivals, message
        )
        if not entered and node is not None:
            node["duplicates"] += 1  # a computed frame reaches it no later
        self.catch_up()
        if entered and node is not None:
            self._announce(pid, t, message)
        if first:
            # Flood before handing over, so a consumer that raises costs
            # the shard its admission and not the flood's next hop.
            self.on_admit(message, key)

    def _stop(self, pid: int, t: float | None = None) -> None:
        """``pid`` stops at loop instant ``t`` (``None``: now): what is due
        by then still lands, and nothing computed from here on reaches it
        or leaves it."""
        if self._pending or self._summaries:
            self.catch_up(t)
        self._expand_summaries()
        self.stopped.add(pid)

    def _reach(self, pid: int, t: float, arrivals: Arrivals, message: Message) -> bool:
        """An entry reaches ``pid`` at ``t``: pending, unless ``pid`` is
        already reached no later."""
        if arrivals.summary is not None:
            self._expand(arrivals)
        best = arrivals.best
        if t >= best.get(pid, math.inf) or pid in self.stopped:
            return False
        best[pid] = t
        heappush(self._pending, (t, next(self._order), pid, -1, arrivals, message))
        return True

    def catch_up(self, until: float | None = None) -> float:
        """Settle every pending frame due by now (or by ``until``, if
        earlier), in instant order; the loop instant caught up to.

        A frame that is its pid's earliest files the pid's first arrival
        (module docstring) — a relay's only as settled — and offers the
        message on (:meth:`_offer`).  A flood filed whole is settled at
        once if the clock has passed its bound, and computed node by node
        from its entry if the clock is inside it.  Whoever reads the
        clock for the shard calls this first: a publish or an
        announcement, and the shard's round loop before a round's
        deliveries and receive phases.
        """
        now = self.clock.now()
        if until is not None and until < now:
            now = until
        summaries = self._summaries
        while summaries and summaries[0][0] <= now:
            arrivals = heappop(summaries)[2]
            summary = arrivals.summary
            if summary is None:
                continue  # expanded already
            if now < summary.done or arrivals.drawn is None:
                self._expand(arrivals)
                continue
            arrivals.summary = None
            arrivals.held = self._everyone
            arrivals.relayed = self._relays
            for pid, stats in self._stats.items():
                if pid != summary.entry:
                    stats["delivered"] += 1
            self.summarised += 1
        pending = self._pending
        if not pending or pending[0][0] > now:
            return now
        clock, factors, stats = self.clock, self._factors, self._stats
        # ``round_at`` inlined: ``floor((t - origin) / round_s + edge)``.
        origin, round_s, edge = clock.origin, clock.round_s, clock.edge_tolerance
        horizon, offer, floor, stopped = self.seen.horizon, self._offer, math.floor, self.stopped
        draw = self.transport.links.draw
        while pending and pending[0][0] <= now:
            t, _, pid, came_from, arrivals, message = heappop(pending)
            best = arrivals.best
            if best.get(pid) != t or pid in stopped:
                continue  # reached earlier, or stopped since it was computed
            drawn = arrivals.drawn
            r = floor((t - origin) / round_s + edge)
            node = stats.get(pid)
            if drawn is None or r > message.round + horizon:
                # The seen floor of ``r`` is above the message's round
                # (or the index has forgotten it since).
                if node is not None:
                    node["stale_dropped"] += 1
                continue
            del best[pid]
            if node is None:
                arrivals.relayed |= 1 << pid
            else:
                arrivals.held |= 1 << pid
                node["delivered"] += 1
            if drawn is UNDRAWN:
                drawn = arrivals.drawn = draw(draw_key(message))
            offer(pid, came_from, t, factors.get(r) or self._factor(r), arrivals, message, drawn)
            if not best:
                # Nothing of the flood is in flight.
                arrivals.best = {}  # a dict keeps the table it grew
                arrivals.coins = None
        return now

    def _offer(
        self,
        pid: int,
        came_from: int,
        t: float,
        factor: float,
        arrivals: Arrivals,
        message: Message,
        drawn: bytes,
    ) -> None:
        """``pid``, first holding ``message`` at ``t`` (from ``came_from``),
        offers it to its neighbours under the hop law, ``factor`` being
        the surge of the round holding ``t``: a neighbour not settled yet
        is reached by a pending frame."""
        fate, best = self._fate, arrivals.best
        settled = arrivals.held | arrivals.relayed
        base, scale, slot_s = self._hop
        stopped, pending = self.stopped, self._pending
        word, ceil = WORD.unpack_from, math.ceil
        for peer, at_word in self._links[pid]:
            if peer == came_from:
                continue  # where the message came from
            sent, surge = t, factor
            if fate is not None:
                # Full flooding offers every link but the source's: the
                # proxy audits the offer, held peer or not.
                crossing = fate(pid, peer, t, message, arrivals)
                if crossing is None:
                    continue
                sent, stretch = crossing
                if sent != t:
                    surge = self._factor(self.clock.round_at(sent))
                surge *= stretch
            if settled >> peer & 1:
                continue  # holds it already
            at = ceil((sent + (base + word(drawn, at_word)[0] * scale) * surge) / slot_s) * slot_s
            if at < best.get(peer, math.inf) and peer not in stopped:
                best[peer] = at
                heappush(pending, (at, next(self._order), peer, pid, arrivals, message))

    def _summarise(self, pid: int, t0: float, arrivals: Arrivals, message: Message) -> bool:
        """File ``message``'s flood, entering the shard at ``pid`` at
        ``t0``, whole if its bound allows (module docstring): ``pid``
        holds it (or relays it) now and every other node once the clock
        passes the bound.  Whether it was."""
        if self.stopped:
            return False
        clock = self.clock
        r = clock.round_at(t0)
        if r > message.round + self.seen.horizon:
            return False
        if self._calm is not None and not self._calm(r):
            return False
        base, _, slot_s = self._hop
        factor = self._factor(r)
        first = math.ceil((t0 + base * factor) / slot_s) * slot_s
        hops = self._eccentricity.get(pid)
        if hops is None:
            hops = self._eccentricity[pid] = self._hops_to_everyone(pid)
        if first <= t0 or hops < 0:
            return False
        if hops == 0:
            self.summarised += 1  # nobody else to reach
        else:
            hop = math.ceil((base + self.transport.links.jitter) * factor / slot_s) + 1
            done = (math.ceil(t0 / slot_s) + hops * hop) * slot_s
            if clock.round_at(done) != r:
                return False
            arrivals.summary = Summary(done, pid, t0, factor, message)
            heappush(self._summaries, (first, next(self._order), arrivals))
        node = self._stats.get(pid)
        if node is None:
            arrivals.relayed |= 1 << pid
        else:
            arrivals.held |= 1 << pid
            node["delivered"] += 1
        return True

    def _expand(self, arrivals: Arrivals) -> None:
        """Compute a flood filed whole node by node from here on: its
        entry offers the message on at its entry instant, as the flood
        computed node by node did then.

        No frame of it was computed before, so this draws its links.  A
        flood the seen index has forgotten keeps no draw (its frames are
        computed all the same, and dropped stale where they land)."""
        summary, arrivals.summary = arrivals.summary, None
        message = summary.message
        drawn = self.transport.links.draw(draw_key(message))
        if arrivals.drawn is not None:
            arrivals.drawn = drawn
        self._offer(summary.entry, -1, summary.t0, summary.factor, arrivals, message, drawn)

    def _expand_summaries(self) -> None:
        """Compute every flood filed whole node by node from here on."""
        summaries = self._summaries
        while summaries:
            arrivals = heappop(summaries)[2]
            if arrivals.summary is not None:
                self._expand(arrivals)

    def _hops_to_everyone(self, pid: int) -> int:
        """``pid``'s eccentricity in hops over the overlay, or −1 if some
        pid is out of its reach."""
        reached, frontier, hops = {pid}, [pid], 0
        while True:
            nearer, frontier = frontier, []
            for node in nearer:
                for peer, _ in self._links[node]:
                    if peer not in reached:
                        reached.add(peer)
                        frontier.append(peer)
            if not frontier:
                return hops if len(reached) == len(self._links) else -1
            hops += 1

    def _factor(self, r: int) -> float:
        """Round ``r``'s surge factor, asked of the schedule once."""
        factor = self._factors.get(r)
        if factor is None:
            factor = self._factors[r] = self._surge_factor(r)
        return factor

    def stop(self) -> None:
        """Stop every hosted node (teardown)."""
        for node in self.nodes.values():
            node.stop()

    def stats_totals(self) -> dict[str, int]:
        """Summed per-node dissemination counters, the shard's live seen
        keys, the link-draw and drop-coin digests its fabric computed and
        the floods it filed whole."""
        totals = {"delivered": 0, "duplicates": 0, "stale_dropped": 0}
        for node in self.nodes.values():
            for key in totals:
                totals[key] += node.stats[key]
        totals["seen_entries"] = len(self.seen)
        links = self.transport.links
        totals["draw_digests"] = links.digests
        totals["coin_digests"] = links.coin_digests
        totals["summarised"] = self.summarised
        return totals
