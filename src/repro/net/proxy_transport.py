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
script means one thing on every substrate.  Phase changes come from one
of two drivers: :meth:`schedule_phases` self-schedules them on the
event loop from the shared round clock (single process), or the
deployment coordinator broadcasts ``("attack_phase", index)`` control
frames and the worker calls :meth:`enter_phase` (multi-process) — the
transitions then land within socket latency of the same wall-clock
instant on every worker.

Every interference is audited per phase (``delayed`` / ``dropped`` /
``partitioned`` frame counts) and exported through the run's
:class:`~repro.runtime.metrics.MetricsHub`, so a run can *prove* its
attack actually bit.

The proxy sits **in front of** the fabric, so the batched wire path
underneath changes nothing about attack semantics: every frame gossip
builds passes through :meth:`send` individually, and only the survivors
reach the inner transport to be coalesced into frame v2 batch writes.
Drop coins are tossed per frame, partitions hold per frame, and surges
delay per frame — a batch on the wire never becomes the unit of
interference.  (A forward gossip never builds — to a co-located node
that already holds the digest, see :mod:`repro.net.gossip` — is not a
frame: it tosses no coin and cannot be held, and could never have been
more than a duplicate.)  Subscriptions pass straight through to the
inner fabric: delivery is not the proxy's to interfere with.
Surge re-injections ride the inner transport's delivery wheel
(``defer``), keeping the timer budget O(slots) even while an attack
delays a whole broadcast storm.
"""

from __future__ import annotations

import asyncio
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
        round_s: round length Δ in seconds (phase boundaries are round
            numbers; the clock maps them to instants).
        base_latency_s: the fabric's base link latency; a surge of
            factor ``f`` adds ``(f − 1) × base_latency_s`` of delay.
    """

    def __init__(
        self,
        inner: Transport,
        timeline: ScriptTimeline,
        *,
        seed: int,
        round_s: float,
        base_latency_s: float,
    ) -> None:
        self.inner = inner
        self.timeline = timeline
        self.round_s = round_s
        self.base_latency_s = base_latency_s
        self._seed = seed
        self._state = timeline.states[0]
        self._held: list[tuple[int, int, object]] = []
        self._drop_rngs: dict[tuple[int, int], random.Random] = {}
        self._timers: list[asyncio.TimerHandle] = []
        #: Per-phase audit rows (one per timeline state, trailing
        #: quiescent phase included): phase index → counter dict.
        self.audit: list[dict[str, int]] = [
            {key: 0 for key in AUDIT_KEYS} for _ in timeline.states
        ]

    # ------------------------------------------------------------------
    # Phase drivers
    # ------------------------------------------------------------------
    def schedule_phases(self) -> None:
        """Self-drive transitions from the loop clock (single process).

        Call once the inner transport is started/anchored: phase ``i``
        begins ``phase_starts()[i] × Δ`` seconds after the transport
        origin, which coincides with round-clock time zero.
        """
        loop = asyncio.get_running_loop()
        now = self.inner.now()
        for index, start_round in enumerate(self.timeline.phase_starts()):
            if index == 0:
                continue
            delay = max(0.0, start_round * self.round_s - now)
            self._timers.append(loop.call_later(delay, self.enter_phase, index))

    def cancel_timers(self) -> None:
        """Cancel any pending self-scheduled transitions."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()

    def enter_phase(self, index: int) -> None:
        """Switch to phase ``index`` and flush frames it no longer blocks.

        Idempotent and monotone: stale or repeated transitions (a late
        control frame after a self-scheduled switch) are ignored.
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

    def send_many(self, src: int, dsts, payload: object) -> None:
        """Decompose a fan-out into per-frame :meth:`send` calls.

        Never forwarded to the inner transport's bulk path: drop coins,
        partition checks, and surge delays are defined *per frame*, and
        they must stay that way even when the caller batches its sends.
        """
        for dst in dsts:
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

    def now(self) -> float:
        return self.inner.now()

    def latency(self, src: int, dst: int, at_s: float) -> float:
        return self.inner.latency(src, dst, at_s)

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

    def export_metrics(self, hub) -> None:
        """Publish the audit counters as gauges on a metrics hub."""
        for key, value in self.audit_totals().items():
            hub.gauge(f"attack_{key}_frames", value)
        hub.gauge("attack_held_frames", self.held_count)
        hub.gauge("attack_phase", self._state.index)

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
