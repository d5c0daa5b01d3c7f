"""Adversarial proxy: an attack script as the flood's link law.

:class:`ProxyTransport` answers one question for the flood
(:mod:`repro.net.gossip`): :meth:`ProxyTransport.fate`, when does a
frame ``src → dst`` sent at loop instant ``t`` start crossing its link,
and by what factor does the script stretch the link's draw then, under
the *delivery* effects of an :class:`~repro.attacks.script.AttackScript`:

* **partition** / **withhold** — a frame crossing group boundaries (in
  a blackout: every frame) waits for the start of the first round whose
  phase stops blocking the link, then crosses it (delayed, not lost:
  the model's asynchrony);
* **surge** — a frame crossing a surged link has the link's draw
  multiplied by the surge's factor, as a
  :class:`~repro.engine.conditions.NetworkConditions` period multiplies
  it by its own: one physical slowdown, realised one way;
* **drop** — a frame on a matching link is discarded under a coin keyed
  by the run seed, the link and the message
  (:meth:`~repro.net.transport.LinkLatencyModel.coins`: really lost;
  gossip's redundant paths are what keeps dissemination alive, which is
  exactly the claim a ``drop`` script stresses).

The phase holding in ``t``'s round decides
(:meth:`~repro.runtime.clock.RoundClock.round_at`), read from the same
resolved :class:`~repro.attacks.script.ScriptTimeline` the simulator's
:class:`~repro.attacks.adversary.ScriptedAdversary` interprets, so one
script means one thing on every substrate; the surge factor is that of
the phase holding the instant the frame starts crossing, and so is the
drop coin, so a frame a partition releases into a surged or lossy phase
crosses surged, or is dropped, as one sent in that phase would.  ``fate`` is a
pure function of its arguments, so every shard asks it alike: the flood
calls it for every out-link of every node it settles, hosted or a
relay, and it never holds a frame.  Every shard of a deployment starts
its round clock at one shared instant, so every proxy, on one process
or many, reads the same phase for the same instant.  A per-link op
names overlay hops: a deployment refuses a script naming any other
pair before it runs.

Every interference is audited per phase (``partitioned`` / ``dropped``
/ ``delayed``: out-links full flooding offers that the phase holding
``t`` blocks, drops, or crosses surged; a held frame's drop or surged
crossing is the releasing phase's) and read into its shard's
sample (:meth:`~repro.runtime.shard.ShardRuntime.sample`), so a run can
*prove* its attack actually bit.  An out-link is audited by the shard
hosting its sender only: every shard computes the whole flood, and the
audits summed over the shards are the one-shard audit.  Coins are
tossed per link and per message, never per wire batch, and computed
once per message per shard while its flood is in flight: ``fate`` keeps
them on the message's :class:`~repro.net.gossip.Arrivals`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.transport import LinkLatencyModel, draw_key

if TYPE_CHECKING:  # import at runtime would cycle through repro.net
    from repro.attacks.script import ScriptTimeline
    from repro.net.gossip import Arrivals
    from repro.runtime.clock import RoundClock
    from repro.sleepy.messages import Message

#: Audit counter names, in export order.
AUDIT_KEYS = ("partitioned", "delayed", "dropped")


class ProxyTransport:
    """A script's delivery effects as the flood's link law.

    Args:
        timeline: the resolved script timeline to interpret.
        clock: the shard's round clock, mapping loop instants to rounds.
        links: the run's link draws, whose enumeration keys the coins.
        hosted: the pids whose out-links this shard audits.
    """

    def __init__(
        self,
        timeline: ScriptTimeline,
        *,
        clock: RoundClock,
        links: LinkLatencyModel,
        hosted: frozenset[int],
    ) -> None:
        self.timeline = timeline
        self.clock = clock
        self.links = links
        self.hosted = hosted
        #: Per-phase audit rows (one per timeline state, trailing
        #: quiescent phase included): phase index → counter dict.
        self.audit: list[dict[str, int]] = [
            {key: 0 for key in AUDIT_KEYS} for _ in timeline.states
        ]

    def fate(
        self, src: int, dst: int, t: float, message: Message, arrivals: Arrivals
    ) -> tuple[float, float] | None:
        """``(instant, factor)``: the loop instant a frame ``src → dst``
        sent at ``t`` starts crossing its link, and the surge factor of
        the phase holding that instant on the link (1.0 where it surges
        none or other links); ``None`` if the frame is dropped.
        ``arrivals`` is the message's in this shard, which keeps its
        coins once tossed, so a flood tosses them at most once.

        Blocked: the start of the first later phase that does not block
        the link, else ``t``; then dropped under the coin of the phase
        holding that instant, so a frame a partition releases into a
        lossy phase is tossed as one sent there is.  A block is counted
        in the audit row of the phase holding ``t``; a drop and a surged
        crossing in that of the phase the frame starts crossing in (for
        a held frame, the releasing phase), if this shard hosts ``src``.
        """
        clock = self.clock
        state = self.timeline.state_at(max(clock.round_at(t), 0))
        hosted = src in self.hosted
        blocked = state.blocks(src, dst)
        if blocked:
            if hosted:
                self.audit[state.index]["partitioned"] += 1
            # The trailing quiescent phase blocks nothing.
            state = next(
                later
                for later in self.timeline.states[state.index + 1 :]
                if not later.blocks(src, dst)
            )
            t = clock.instant(state.start)
        p = state.drop_probability(src, dst)
        if p > 0.0 and self._coin(src, dst, message, arrivals) < p:
            if hosted:
                self.audit[state.index]["dropped"] += 1
            return None
        surged = state.surged(src, dst)
        if hosted and surged:
            self.audit[state.index]["delayed"] += 1
        return t, state.surge_factor if surged else 1.0

    def calm(self, r: int) -> bool:
        """Whether round ``r``'s phase leaves every link alone: no block,
        surge or drop, so :meth:`fate` returns every instant as is, with
        factor 1, and audits nothing."""
        return not self.timeline.state_at(max(r, 0)).delivery_active

    def _coin(self, src: int, dst: int, message: Message, arrivals: Arrivals) -> float:
        links = self.links
        coins = arrivals.coins
        if coins is None:
            coins = arrivals.coins = links.coins(draw_key(message))
        return coins[links.edges[(src, dst)]]

    def audit_totals(self) -> dict[str, int]:
        """Counters summed over all phases."""
        return {key: sum(row[key] for row in self.audit) for key in AUDIT_KEYS}
