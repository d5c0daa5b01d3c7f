"""Simulated signatures: sign/verify, attribution, unforgeability."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import encode_fields, sha256_hex
from repro.crypto.signatures import KeyRegistry, SecretKey, _keyed_states, _tag


def test_sign_verify_roundtrip(registry):
    key = registry.secret_key(3)
    sig = registry.sign(key, "vote", 7, None)
    assert registry.verify(3, sig, "vote", 7, None)


def test_verification_binds_to_signer(registry):
    key = registry.secret_key(3)
    sig = registry.sign(key, "vote", 7)
    assert not registry.verify(4, sig, "vote", 7)


def test_verification_binds_to_message(registry):
    key = registry.secret_key(3)
    sig = registry.sign(key, "vote", 7)
    assert not registry.verify(3, sig, "vote", 8)
    assert not registry.verify(3, sig, "propose", 7)


def test_garbage_signature_rejected(registry):
    assert not registry.verify(3, "00" * 32, "vote", 7)
    assert not registry.verify(99, "00" * 32, "vote", 7)  # unknown pid
    # A claimed signature is the sender's to choose: one ``compare_digest``
    # cannot take is rejected, by both doors, and costs nobody else's verdict.
    assert not registry.verify(3, "é" * 64, "vote", 7)
    good = registry.sign(registry.secret_key(3), "vote", 7)
    claims = [(3, "é" * 64, ("vote", 7)), (3, good, ("vote", 7)), (3, "", ("vote", 7))]
    assert registry.verify_batch(claims) == [False, True, False]


def test_keys_are_deterministic_per_run_seed():
    a = KeyRegistry(4, run_seed=1)
    b = KeyRegistry(4, run_seed=1)
    c = KeyRegistry(4, run_seed=2)
    assert a.secret_key(0) == b.secret_key(0)
    assert a.secret_key(0) != c.secret_key(0)
    assert a.secret_key(0) != a.secret_key(1)


def test_signatures_transfer_across_registry_instances():
    a = KeyRegistry(4, run_seed=1)
    b = KeyRegistry(4, run_seed=1)
    sig = a.sign(a.secret_key(2), "hello")
    assert b.verify(2, sig, "hello")


def test_unknown_pid_has_no_key(registry):
    with pytest.raises(ValueError, match="unknown process"):
        registry.secret_key(registry.n)


def test_registry_requires_processes():
    with pytest.raises(ValueError):
        KeyRegistry(0)


def test_secret_repr_does_not_leak_seed(registry):
    key = registry.secret_key(1)
    assert key.seed.hex() not in repr(key)


@given(seed=st.binary(max_size=48), message=st.binary(max_size=200))
def test_tag_is_the_two_keyed_hashes_it_always_was(seed, message):
    """The pre-fed states change the cost of a tag, not one byte of it:
    every signature, VRF value and proposer choice stays what the
    literal definition gives."""
    inner = bytes.fromhex(sha256_hex(encode_fields(b"inner", seed, message)))
    assert _tag(_keyed_states(seed), message) == sha256_hex(encode_fields(b"outer", seed, inner))


def test_states_are_keyed_by_the_seed_presented_not_by_pid(registry):
    """Holding the ``SecretKey`` is still the only way to sign: a key
    object naming pid 3 with another seed gets another seed's tag —
    also after the registry has memoised pid 3's real states."""
    real = registry.secret_key(3)
    signature = registry.sign(real, "vote", 7)
    assert registry.verify(3, signature, "vote", 7)
    for wrong_seed in (b"", b"guess", registry.secret_key(4).seed):
        forged = registry.sign(SecretKey(3, wrong_seed), "vote", 7)
        assert forged != signature
        assert not registry.verify(3, forged, "vote", 7)
    assert registry.sign(real, "vote", 7) == signature
