"""Adversarial proxy transport: attack scripts realised physically.

:class:`ProxyTransport` wraps either point-to-point fabric —
:class:`~repro.net.transport.SimTransport` on the single-process
deployment, :class:`~repro.net.socket_transport.SocketTransport` on a
sharded one — and applies the *delivery* effects of an
:class:`~repro.attacks.script.AttackScript` to every ``send``:

* **partition** / **withhold** — frames crossing group boundaries (in
  a blackout: every frame) are held, then flushed in send order the
  moment a later phase stops blocking the link (delayed, not lost: the
  model's asynchrony);
* **surge** — frames on surged links are forwarded after an extra fixed
  delay of ``(factor − 1) × base_latency_s`` on top of the modelled
  link latency (with the default factor that is Δ: a full round late);
* **drop** — frames on matching links are discarded under seeded
  per-link coins (really lost; gossip's redundant paths are what keeps
  dissemination alive, which is exactly the claim a ``drop`` script
  stresses).

The proxy interprets the same resolved
:class:`~repro.attacks.script.ScriptTimeline` the simulator's
:class:`~repro.attacks.adversary.ScriptedAdversary` interprets, so one
script means one thing on every substrate.  Phase changes have one
driver, the shard's round loop: on waking for round ``r``, before any
send, it calls :meth:`enter_phase` with ``timeline.state_at(r).index``
(:meth:`~repro.runtime.shard.ShardRuntime.drive`).  Every shard of a
deployment starts its round clock at one shared instant, so every
proxy, on one process or many, holds the phase of the round its sends
belong to, exactly as the simulator's adversary does.

Every interference is audited per phase (``delayed`` / ``dropped`` /
``partitioned`` frame counts) and read, with the phase in force and
the frames held, into its shard's sample
(:meth:`~repro.runtime.shard.ShardRuntime.sample`), so a run can
*prove* its attack actually bit.

The proxy sits **in front of** the fabric, so the batched wire path
underneath changes nothing about attack semantics: every frame gossip
builds passes through :meth:`send` individually, and only the survivors
reach the inner transport to be coalesced into frame v2 batch writes.
Drop coins are tossed per frame, partitions hold per frame, and surges
delay per frame — a batch on the wire never becomes the unit of
interference.  (A destination in ``send_many``'s ``skip`` mask — a
co-located node that already holds the message, see
:mod:`repro.net.gossip` — is not sent a frame: it tosses no coin and
cannot be held, and could never have been more than a duplicate; its
link still draws.)  A frame that survives the proxy may still be
superseded by the inner fabric (:mod:`repro.net.transport`): only by a
copy that already passed every coin and is parked for delivery.
Subscriptions pass straight through to the inner fabric: delivery is
not the proxy's to interfere with.
Surge re-injections ride the inner transport's delivery wheel
(``defer``), keeping the timer budget O(slots) even while an attack
delays a whole broadcast storm.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.net.transport import Transport

if TYPE_CHECKING:  # import at runtime would cycle through repro.net
    from repro.attacks.script import ScriptTimeline

#: Audit counter names, in export order.
AUDIT_KEYS = ("partitioned", "delayed", "dropped")


class ProxyTransport(Transport):
    """Apply a script's delivery effects in front of an inner transport.

    Args:
        inner: the wrapped fabric (a :class:`~repro.net.transport.Transport`).
        timeline: the resolved script timeline to interpret.
        seed: run seed for the drop-coin streams (per-link, content
            seeded — identical across processes, independent of send
            interleaving on other links).
        base_latency_s: the fabric's base link latency; a surge of
            factor ``f`` adds ``(f − 1) × base_latency_s`` of delay.
    """

    def __init__(
        self,
        inner: Transport,
        timeline: ScriptTimeline,
        *,
        seed: int,
        base_latency_s: float,
    ) -> None:
        self.inner = inner
        self.timeline = timeline
        self.base_latency_s = base_latency_s
        self._seed = seed
        self._state = timeline.states[0]
        self._held: list[tuple[int, int, object]] = []
        self._drop_rngs: dict[tuple[int, int], random.Random] = {}
        #: Per-phase audit rows (one per timeline state, trailing
        #: quiescent phase included): phase index → counter dict.
        self.audit: list[dict[str, int]] = [
            {key: 0 for key in AUDIT_KEYS} for _ in timeline.states
        ]

    # ------------------------------------------------------------------
    # The phase
    # ------------------------------------------------------------------
    def enter_phase(self, index: int) -> None:
        """Switch to phase ``index`` and flush frames it no longer blocks.

        Idempotent and monotone: a stale, repeated or out-of-range
        index is ignored.
        """
        if index <= self._state.index or index >= len(self.timeline.states):
            return
        self._state = self.timeline.states[index]
        still_held: list[tuple[int, int, object]] = []
        for src, dst, payload in self._held:
            if self._state.blocks(src, dst):
                still_held.append((src, dst, payload))
            else:
                self.inner.send(src, dst, payload)
        self._held = still_held

    # ------------------------------------------------------------------
    # The transport surface
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: object) -> None:
        """Forward, hold, delay, or drop one frame per the active phase."""
        state = self._state
        counters = self.audit[state.index]
        if state.blocks(src, dst):
            self._held.append((src, dst, payload))
            counters["partitioned"] += 1
            return
        p = state.drop_probability(src, dst)
        if p > 0.0 and self._drop_rng(src, dst).random() < p:
            counters["dropped"] += 1
            return
        if state.surged(src, dst):
            extra = (state.surge_factor - 1.0) * self.base_latency_s
            self.inner.defer(extra, self.inner.send, src, dst, payload)
            counters["delayed"] += 1
            return
        self.inner.send(src, dst, payload)

    def send_many(self, src: int, dsts, payload: object, skip: int = 0) -> None:
        """Decompose a fan-out into per-frame :meth:`send` calls.

        Never forwarded to the inner transport's bulk path: drop coins,
        partition checks, and surge delays are defined *per frame*, and
        they must stay that way even when the caller batches its sends.
        A pid in ``skip`` gets no frame — it tosses no coin and cannot
        be held — but its link still draws, through the inner fabric.
        """
        inner = self.inner
        for dst in dsts:
            if skip >> dst & 1:
                # Only the draw matters, not its value.
                inner.latency(src, dst)
            else:
                self.send(src, dst, payload)

    # The rest of the data surface is the inner fabric's, untouched.
    # (Lifecycle and wire counters are not forwarded: whoever built the
    # inner transport holds it and asks it directly.)
    def defer(self, delay_s: float, callback, *args) -> None:
        self.inner.defer(delay_s, callback, *args)

    def subscribe(self, pid: int, handler) -> None:
        self.inner.subscribe(pid, handler)

    def unsubscribe(self, pid: int) -> None:
        self.inner.unsubscribe(pid)

    def latency(self, src: int, dst: int) -> float:
        return self.inner.latency(src, dst)

    @property
    def sent_count(self) -> int:
        return self.inner.sent_count

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit_totals(self) -> dict[str, int]:
        """Counters summed over all phases."""
        return {key: sum(row[key] for row in self.audit) for key in AUDIT_KEYS}

    @property
    def held_count(self) -> int:
        """Frames currently held behind a partition."""
        return len(self._held)

    @property
    def phase(self) -> int:
        """Index of the script phase in force."""
        return self._state.index

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop_rng(self, src: int, dst: int) -> random.Random:
        rng = self._drop_rngs.get((src, dst))
        if rng is None:
            rng = self._drop_rngs[(src, dst)] = random.Random(
                f"proxy-drop:{self._seed}:{src}:{dst}"
            )
        return rng
