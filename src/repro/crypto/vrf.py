"""Simulated verifiable random function (paper §2.1, "Cryptography").

Each process ``p`` can evaluate ``(ρ, π) ← VRF_p(µ)``: a deterministic
pseudorandom value ``ρ`` plus a proof ``π`` that anyone can verify
against ``p``'s public identity.  Algorithm 1 uses ``VRF_p(v)`` to rank
proposals in view ``v``.

The simulation derives ``ρ`` from a keyed hash of the input and maps it
into ``[0, 1)`` with 256 bits of precision; the proof is a second keyed
tag.  Determinism, uniqueness per ``(process, input)``, uniformity (in
the random-oracle sense) and public verifiability — the only properties
the protocol uses — all hold.

Verification rests on uniqueness: :func:`verify_vrf` compares a claim
with the one **canonical evaluation** of ``(pid, view)`` — under the seed
the registry holds, never anything derived from the claim — which the
registry memoises (LRU), so it is computed once per registry: by the
proposer's :func:`evaluate_vrf` if it holds the registered key, else by
the first verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import require_exact_types
from repro.crypto.signatures import KeyRegistry, SecretKey

_PRECISION = 1 << 256

#: Canonical evaluations a registry keeps per registered process (the
#: views between a proposal and its verification); chaff views evict.
VRF_MEMO_PER_PROCESS = 4


@dataclass(frozen=True)
class VRFOutput:
    """A VRF evaluation: pseudorandom ``value`` in [0, 1) plus ``proof``,
    well-typed by construction (and out of a pickle): equal means same."""

    value_num: int
    proof: str

    def __post_init__(self) -> None:
        require_exact_types(self, (("value_num", (int,)), ("proof", (str,))))

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def value(self) -> float:
        """The pseudorandom value as a float in [0, 1) (display only).

        Comparisons inside the protocol use ``value_num`` (exact 256-bit
        integer) so proposal ranking never depends on float rounding.
        """
        return self.value_num / _PRECISION


def _evaluate(registry: KeyRegistry, key: SecretKey, view: int) -> VRFOutput:
    raw = registry.sign(key, "vrf-value", view)
    proof = registry.sign(key, "vrf-proof", view)
    return VRFOutput(value_num=int(raw, 16) % _PRECISION, proof=proof)


def _canonical(registry: KeyRegistry, pid: int, view: int) -> VRFOutput:
    """The evaluation of ``VRF_pid(view)`` under the registered seed."""
    memo = registry.vrf_memo
    output = memo.get((pid, view))
    if output is None:
        output = memo[pid, view] = _evaluate(registry, registry.secret_key(pid), view)
        if len(memo) > VRF_MEMO_PER_PROCESS * registry.n:
            memo.popitem(last=False)
    else:
        memo.move_to_end((pid, view))
    return output


def evaluate_vrf(registry: KeyRegistry, key: SecretKey, view: int) -> VRFOutput:
    """Evaluate ``VRF_key(view)``.

    Only the holder of the secret key can produce a verifiable output;
    a wrong-seed key is evaluated as presented, outside the memo.
    """
    if type(view) is int and registry.is_registered(key):
        return _canonical(registry, key.pid, view)
    return _evaluate(registry, key, view)


def verify_vrf(registry: KeyRegistry, pid: int, view: int, output: VRFOutput) -> bool:
    """Verify that ``output`` is the canonical evaluation of ``VRF_pid(view)``."""
    if type(view) is not int or type(pid) is not int or not 0 <= pid < registry.n:
        return False
    return output == _canonical(registry, pid, view)


def sortition_value(output: VRFOutput) -> int:
    """Exact integer ranking key for proposer sortition (larger wins)."""
    return output.value_num
