"""Graded agreement of Malkhi, Momose, and Ren (paper Figure 2).

One GA instance spans one round: in the send phase every awake process
multicasts ``[vote, Λ]``; in the receive phase each process tallies the
votes it received and outputs logs with grades:

* grade 1 — logs voted by more than ``(1 − β)·m`` of the ``m`` processes
  it heard from (``> 2m/3`` for the paper's β = 1/3);
* grade 0 — logs voted by more than ``β·m`` but at most ``(1 − β)·m``.

A vote for ``Λ'`` counts as a vote for every prefix ``Λ`` of ``Λ'``, and
two different vote messages from the same process are ignored
(equivocation discard).  Thresholds are evaluated with exact integer
arithmetic (``den·count > (den − num)·m``), never floats.

The counting lives in the chain layer as the incremental
:class:`~repro.chain.tally.PrefixTally`; *which* votes are counted — each
process's latest unexpired vote over a window of rounds, Figure 3 — is
:class:`repro.core.extended_ga.GradedAgreement`.  :func:`tally_votes` is
the one-shot form: one vote per process in, graded logs out.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from repro.chain.block import BlockId
from repro.chain.tally import DEFAULT_BETA, GAOutput, PrefixTally, check_beta
from repro.chain.tree import BlockTree

__all__ = ["DEFAULT_BETA", "GAOutput", "tally_votes"]


def tally_votes(
    tree: BlockTree,
    votes: Mapping[int, BlockId | None],
    beta: Fraction = DEFAULT_BETA,
) -> GAOutput:
    """Tally one vote per process and grade the voted logs.

    ``votes`` maps each process to the tip it voted for — the caller is
    responsible for vote selection (one per process, equivocations
    already discarded, unknown tips already excluded).  Every tip must
    be present in ``tree``.

    One-shot: builds a fresh :class:`~repro.chain.tally.PrefixTally`
    and grades it.  Callers that re-tally a slowly changing vote set
    every round should hold a tally and :meth:`~repro.chain.tally.
    PrefixTally.set_votes` the deltas instead.
    """
    check_beta(beta)
    return PrefixTally(tree, votes).grade(beta)
