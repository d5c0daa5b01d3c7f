"""The protocol layer: graded-agreement grading and Algorithm 1.

* :mod:`repro.protocols.graded_agreement` — the Figure 2 grading rule
  (prefix counting, parametric failure ratio β) as a one-shot function.
* :mod:`repro.protocols.tob_base` — the view-structured total-order
  broadcast state machine of Algorithm 1 with expiration period η
  (η = 0 is the original MMR protocol, which is *not* asynchrony
  resilient — see the E2 benchmark).
"""

from repro.protocols.graded_agreement import GAOutput, tally_votes
from repro.protocols.tob_base import SleepyTOBProcess, resilient_factory

__all__ = ["GAOutput", "SleepyTOBProcess", "resilient_factory", "tally_votes"]
