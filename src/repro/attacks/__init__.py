"""Scheduled attacks as data: a declarative fault-injection DSL.

An :class:`~repro.attacks.script.AttackScript` is a list of *phases* —
``phase(rounds, *ops)`` records — whose composable ops (``partition``,
``heal``, ``surge``, ``drop``, ``withhold``, ``corrupt``, ``equivocate``,
``vote_for``, ``propose``, ``split_vote``, ``sleep``, ``wake``) describe
what the adversary and the network do to the run, round by round.
Scripts are plain frozen dataclasses: picklable,
:func:`~repro.engine.spec.stable_digest`-able, and executable on every
substrate —

* the round simulator interprets a script through
  :class:`~repro.attacks.adversary.ScriptedAdversary` (the existing
  ``Adversary``/``AdversaryContext`` seam), and
* the asyncio deployment realises the same script physically through the
  :class:`~repro.net.proxy_transport.ProxyTransport` per-link
  delay/drop/partition law, on one process or many: every shard's proxy
  reads the phase of each instant off its round clock, started at the
  one instant all shards share, with nothing sent between them.

:func:`~repro.attacks.script.apply_script` composes a script onto a
:class:`~repro.engine.spec.RunSpec`; :data:`~repro.attacks.library.ATTACKS`
names the canonical scripts the attack grid and CI sweep.
"""

from repro.attacks.adversary import ScriptedAdversary, ScriptSchedule
from repro.attacks.library import ATTACKS, get_script
from repro.attacks.script import (
    AttackScript,
    Phase,
    ScriptTimeline,
    apply_script,
    corrupt,
    drop,
    equivocate,
    heal,
    partition,
    phase,
    propose,
    sleep,
    split_vote,
    surge,
    vote_for,
    wake,
    withhold,
)

__all__ = [
    "ATTACKS",
    "AttackScript",
    "Phase",
    "ScriptSchedule",
    "ScriptTimeline",
    "ScriptedAdversary",
    "apply_script",
    "corrupt",
    "drop",
    "equivocate",
    "get_script",
    "heal",
    "partition",
    "phase",
    "propose",
    "sleep",
    "split_vote",
    "surge",
    "vote_for",
    "wake",
    "withhold",
]
