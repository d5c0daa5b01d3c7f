"""Adversarial proxy: attack scripts realised as edge weights of the flood.

:class:`ProxyTransport` stands in front of either point-to-point fabric
— :class:`~repro.net.transport.SimTransport` on the single-process
deployment, :class:`~repro.net.socket_transport.SocketTransport` on a
sharded one — and answers one question for the flood
(:mod:`repro.net.gossip`): :meth:`ProxyTransport.fate`, when does a
frame ``src → dst`` sent at loop instant ``t`` start crossing its link,
under the *delivery* effects of an
:class:`~repro.attacks.script.AttackScript`:

* **partition** / **withhold** — a frame crossing group boundaries (in
  a blackout: every frame) waits for the start of the first round whose
  phase stops blocking the link, then crosses it (delayed, not lost:
  the model's asynchrony);
* **surge** — a frame on a surged link crosses it after an extra fixed
  delay of ``(factor − 1) × base_latency_s`` (with the default factor
  that is Δ: a full round late);
* **drop** — a frame on a matching link is discarded under a coin keyed
  by the run seed, the link and the message
  (:meth:`~repro.net.transport.LinkLatencyModel.coins`: really lost;
  gossip's redundant paths are what keeps dissemination alive, which is
  exactly the claim a ``drop`` script stresses).

The phase holding in ``t``'s round decides
(:meth:`~repro.runtime.clock.RoundClock.round_at`), read from the same
resolved :class:`~repro.attacks.script.ScriptTimeline` the simulator's
:class:`~repro.attacks.adversary.ScriptedAdversary` interprets, so one
script means one thing on every substrate.  ``fate`` is a pure function
of its arguments, so every shard asks it alike: the flood calls it for
every out-link of every node it settles, hosted or a relay, and it
never holds a frame.  Every shard of a deployment starts its round
clock at one shared instant, so every proxy, on one process or many,
reads the same phase for the same instant.  The shard's round loop
still enters each round's phase (:meth:`enter_phase`), which is the
phase its sample reports.

Every interference is audited per phase (``delayed`` / ``dropped`` /
``partitioned`` counts of the out-links full flooding would offer) and
read, with the phase in force, into its shard's sample
(:meth:`~repro.runtime.shard.ShardRuntime.sample`), so a run can
*prove* its attack actually bit.  An out-link is audited by the shard
hosting its sender only: every shard computes the whole flood, and the
audits summed over the shards are the one-shard audit.  Coins are
tossed per link and per message, never per wire batch.  Announcements
pass straight through to the inner fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.transport import Transport, draw_key

if TYPE_CHECKING:  # import at runtime would cycle through repro.net
    from repro.attacks.script import ScriptTimeline
    from repro.runtime.clock import RoundClock
    from repro.sleepy.messages import Message

#: Audit counter names, in export order.
AUDIT_KEYS = ("partitioned", "delayed", "dropped")


class ProxyTransport:
    """Apply a script's delivery effects in front of an inner transport.

    Args:
        inner: the wrapped fabric (a :class:`~repro.net.transport.Transport`).
        timeline: the resolved script timeline to interpret.
        clock: the shard's round clock, mapping loop instants to rounds.
        base_latency_s: the fabric's base link latency; a surge of
            factor ``f`` adds ``(f − 1) × base_latency_s`` of delay.
    """

    def __init__(
        self,
        inner: Transport,
        timeline: ScriptTimeline,
        *,
        clock: RoundClock,
        base_latency_s: float,
    ) -> None:
        self.inner = inner
        self.timeline = timeline
        self.clock = clock
        self.base_latency_s = base_latency_s
        self._state = timeline.states[0]
        #: The message whose coins were drawn last, and its coins.
        self._coins: tuple[object, list[float]] = (None, [])
        #: Per-phase audit rows (one per timeline state, trailing
        #: quiescent phase included): phase index → counter dict.
        self.audit: list[dict[str, int]] = [
            {key: 0 for key in AUDIT_KEYS} for _ in timeline.states
        ]

    # ------------------------------------------------------------------
    # The phase
    # ------------------------------------------------------------------
    def enter_phase(self, index: int) -> None:
        """Record phase ``index`` as the one in force.

        Idempotent and monotone: a stale, repeated or out-of-range
        index is ignored.
        """
        if index <= self._state.index or index >= len(self.timeline.states):
            return
        self._state = self.timeline.states[index]

    @property
    def phase(self) -> int:
        """Index of the script phase in force."""
        return self._state.index

    # ------------------------------------------------------------------
    # The edge weight
    # ------------------------------------------------------------------
    def fate(self, src: int, dst: int, t: float, message: Message) -> float | None:
        """The loop instant a frame ``src → dst`` sent at ``t`` starts
        crossing its link, or ``None`` if it is dropped.

        Blocked: the start of the first later phase that does not block
        the link.  Dropped: ``None``.  Surged: ``t`` plus the surge's
        extra delay.  Otherwise ``t``.  Each outcome but the last is
        counted in the audit row of the phase holding ``t``, if this
        shard hosts ``src``.
        """
        clock = self.clock
        state = self.timeline.state_at(max(clock.round_at(t), 0))
        counters = self.audit[state.index] if src in self.inner.hosted else None
        if state.blocks(src, dst):
            if counters is not None:
                counters["partitioned"] += 1
            for later in self.timeline.states[state.index + 1 :]:
                if not later.blocks(src, dst):
                    return clock.instant(later.start)
        p = state.drop_probability(src, dst)
        if p > 0.0 and self._coin(src, dst, message) < p:
            if counters is not None:
                counters["dropped"] += 1
            return None
        if state.surged(src, dst):
            if counters is not None:
                counters["delayed"] += 1
            return t + (state.surge_factor - 1.0) * self.base_latency_s
        return t

    def _coin(self, src: int, dst: int, message: Message) -> float:
        links = self.inner.links
        drawn, coins = self._coins
        if drawn is not message:
            coins = links.coins(draw_key(message))
            self._coins = (message, coins)
        return coins[links.edges[(src, dst)]]

    # ------------------------------------------------------------------
    # The inner fabric's surface, untouched.  (Lifecycle, the
    # point-to-point surface and wire counters are not forwarded:
    # whoever built the inner transport holds it and asks it directly.)
    # ------------------------------------------------------------------
    @property
    def hosted(self) -> frozenset[int]:
        return self.inner.hosted

    @property
    def links(self):
        return self.inner.links

    @property
    def slot_s(self) -> float:
        return self.inner.slot_s

    def announce(self, pid: int, elapsed: float, message) -> None:
        """Announce on the inner fabric: an entry is not the proxy's."""
        self.inner.announce(pid, elapsed, message)

    def listen(self, handler) -> None:
        """Listen on the inner fabric."""
        self.inner.listen(handler)

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit_totals(self) -> dict[str, int]:
        """Counters summed over all phases."""
        return {key: sum(row[key] for row in self.audit) for key in AUDIT_KEYS}
