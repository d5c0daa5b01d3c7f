"""The sleepy round model (paper §2.1) as an executable substrate.

This package implements the system model the paper's protocols run in:

* :mod:`repro.sleepy.messages` — signed ``vote`` and ``propose``
  messages tagged with their sending round.
* :mod:`repro.sleepy.schedule` — awake/asleep schedules (who is in
  ``O_r`` each round), including churn-bounded random walks, spikes,
  and diurnal patterns.
* :mod:`repro.sleepy.adversary` — the adversary interface (growing
  corruption, arbitrary Byzantine messages, delivery control during
  asynchrony) and the random fuzzer; the scheduled strategies are attack
  scripts (:mod:`repro.attacks`).
* :mod:`repro.sleepy.simulator` — the round-by-round execution engine
  (send phase / receive phase) producing a :class:`~repro.sleepy.trace.Trace`;
  synchronous delivery plus adversary-controlled delivery in the
  asynchronous periods ``[ra+1, ra+π]`` that
  :class:`repro.engine.conditions.NetworkConditions` describes.
"""

from repro.sleepy.adversary import (
    Adversary,
    AdversaryContext,
    NullAdversary,
    RandomAdversary,
)
from repro.sleepy.messages import (
    Message,
    ProposeMessage,
    VerifiedBatch,
    VoteMessage,
    verify_message,
)
from repro.sleepy.process import Process, ProcessFactory
from repro.sleepy.schedule import (
    DiurnalSchedule,
    FullParticipation,
    RandomChurnSchedule,
    SleepSchedule,
    SpikeSchedule,
    TableSchedule,
)
from repro.sleepy.trace import DecisionEvent, RoundRecord, Trace


def __getattr__(name: str):
    # Lazy: the simulator sits on top of repro.engine (message bus,
    # shared model enforcement), which in turn imports this package's
    # leaf modules — importing it eagerly here would re-enter partially
    # initialised modules whenever a leaf is the import entry point.
    if name == "Simulation":
        from repro.sleepy.simulator import Simulation

        return Simulation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Adversary",
    "AdversaryContext",
    "DecisionEvent",
    "DiurnalSchedule",
    "FullParticipation",
    "Message",
    "NullAdversary",
    "Process",
    "ProcessFactory",
    "ProposeMessage",
    "RandomAdversary",
    "RandomChurnSchedule",
    "RoundRecord",
    "Simulation",
    "SleepSchedule",
    "SpikeSchedule",
    "TableSchedule",
    "Trace",
    "VerifiedBatch",
    "VoteMessage",
    "verify_message",
]
