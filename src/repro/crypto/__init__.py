"""Simulated cryptography (paper §2.1).

The paper assumes (a) unforgeable message signatures and (b) a
verifiable random function (VRF).  Both are simulated with keyed hashes:

* :mod:`repro.crypto.signatures` — a key registry hands each process a
  secret key; signatures are keyed SHA-256 tags verified against the
  registry.  The proofs only need *unforgeability* and
  *attributability*, which hold here by construction because adversary
  code is handed only the keys of corrupted processes.
* :mod:`repro.crypto.vrf` — deterministic keyed-hash VRF whose output is
  mapped to a rational in ``[0, 1)``; anyone can verify an evaluation
  against the claimed process and input.
"""

from repro.crypto.hashing import encode_fields, hash_fields, sha256_hex
from repro.crypto.signatures import KeyRegistry, SecretKey, Signature
from repro.crypto.vrf import VRFOutput, evaluate_vrf, verify_vrf

__all__ = [
    "KeyRegistry",
    "SecretKey",
    "Signature",
    "VRFOutput",
    "encode_fields",
    "evaluate_vrf",
    "hash_fields",
    "sha256_hex",
    "verify_vrf",
]
