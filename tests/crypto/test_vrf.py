"""Simulated VRF: determinism, verifiability, uniformity, unforgeability."""

from repro.crypto.signatures import KeyRegistry, SecretKey
from repro.crypto.vrf import (
    VRF_MEMO_PER_PROCESS,
    VRFOutput,
    evaluate_vrf,
    sortition_value,
    verify_vrf,
)


def test_vrf_is_deterministic(registry):
    key = registry.secret_key(5)
    a = evaluate_vrf(registry, key, 3)
    b = evaluate_vrf(registry, key, 3)
    assert a == b


def test_vrf_varies_with_input_and_key(registry):
    key5, key6 = registry.secret_key(5), registry.secret_key(6)
    assert evaluate_vrf(registry, key5, 3) != evaluate_vrf(registry, key5, 4)
    assert evaluate_vrf(registry, key5, 3) != evaluate_vrf(registry, key6, 3)


def test_vrf_verifies(registry):
    key = registry.secret_key(5)
    output = evaluate_vrf(registry, key, 3)
    assert verify_vrf(registry, 5, 3, output)


def test_vrf_rejects_wrong_claims(registry):
    key = registry.secret_key(5)
    output = evaluate_vrf(registry, key, 3)
    assert not verify_vrf(registry, 6, 3, output)  # wrong process
    assert not verify_vrf(registry, 5, 4, output)  # wrong input
    forged_value = VRFOutput(value_num=output.value_num ^ 1, proof=output.proof)
    assert not verify_vrf(registry, 5, 3, forged_value)  # tampered value
    forged_proof = VRFOutput(value_num=output.value_num, proof="00" * 32)
    assert not verify_vrf(registry, 5, 3, forged_proof)  # tampered proof


def test_vrf_value_in_unit_interval(registry):
    for pid in range(8):
        output = evaluate_vrf(registry, registry.secret_key(pid), 1)
        assert 0.0 <= output.value < 1.0


def test_vrf_values_look_uniform():
    """Coarse uniformity: over many (pid, view) samples the mean is ~1/2.

    This is a smoke test of the random-oracle substitution, not a
    statistical acceptance test; bounds are deliberately loose.
    """
    registry = KeyRegistry(64, run_seed=11)
    values = [
        evaluate_vrf(registry, registry.secret_key(pid), view).value
        for pid in range(64)
        for view in range(8)
    ]
    mean = sum(values) / len(values)
    assert 0.45 < mean < 0.55
    assert min(values) < 0.1 and max(values) > 0.9


def test_sortition_ranking_is_exact(registry):
    a = evaluate_vrf(registry, registry.secret_key(0), 1)
    b = evaluate_vrf(registry, registry.secret_key(1), 1)
    assert (sortition_value(a) > sortition_value(b)) == (a.value_num > b.value_num)


# ----------------------------------------------------------------------
# One canonical evaluation per (pid, view), memoised on the registry
# ----------------------------------------------------------------------
def test_verify_rejects_everything_but_the_canonical_evaluation(registry):
    output = evaluate_vrf(registry, registry.secret_key(5), 3)
    assert verify_vrf(registry, 5, 3, output)
    assert not verify_vrf(registry, 5, 3, VRFOutput(output.value_num + 1, output.proof))
    assert not verify_vrf(registry, 5, 3, VRFOutput(output.value_num, output.proof[::-1]))
    assert not verify_vrf(registry, 5, 3, VRFOutput(output.value_num, "é" * 64))
    assert not verify_vrf(registry, 5, 3, None)
    # An unknown pid, and inputs that merely compare equal to a real one.
    for pid in (registry.n, -1, True, 5.0, None):
        assert not verify_vrf(registry, pid, 3, output)
    for view in (3.0, True, "3", None):
        assert not verify_vrf(registry, 5, view, output)
    assert list(registry.vrf_memo) == [(5, 3)]


def test_verification_reads_the_proposers_evaluation_and_signs_nothing(registry, monkeypatch):
    output = evaluate_vrf(registry, registry.secret_key(5), 3)
    monkeypatch.setattr(registry, "sign", None)  # any tag computation would raise
    assert verify_vrf(registry, 5, 3, output)
    assert evaluate_vrf(registry, registry.secret_key(5), 3) is output


def test_memo_stays_bounded_under_chaff_views_and_honest_views_still_verify(registry):
    capacity = VRF_MEMO_PER_PROCESS * registry.n
    honest = evaluate_vrf(registry, registry.secret_key(2), 7)
    chaff = VRFOutput(value_num=1, proof="00" * 32)
    for view in range(100, 100 + 10 * capacity):
        assert not verify_vrf(registry, 9, view, chaff)
        assert len(registry.vrf_memo) <= capacity
    assert (2, 7) not in registry.vrf_memo  # evicted, and merely evaluated again:
    assert verify_vrf(registry, 2, 7, honest)
    assert evaluate_vrf(registry, registry.secret_key(2), 7) == honest


def test_a_wrong_seed_key_neither_reads_nor_enters_the_memo(registry):
    honest = evaluate_vrf(registry, registry.secret_key(4), 1)
    impostor = SecretKey(pid=4, seed=b"not the registered seed")
    forged = evaluate_vrf(registry, impostor, 1)
    assert forged != honest and not verify_vrf(registry, 4, 1, forged)
    assert registry.vrf_memo[4, 1] is honest
    # Nor when the impostor comes first.
    forged = evaluate_vrf(registry, SecretKey(pid=6, seed=b"x"), 1)
    assert (6, 1) not in registry.vrf_memo
    assert not verify_vrf(registry, 6, 1, forged)
    assert verify_vrf(registry, 6, 1, evaluate_vrf(registry, registry.secret_key(6), 1))
    # A key for a pid the registry never registered is evaluated as presented.
    stranger = evaluate_vrf(registry, SecretKey(pid=registry.n + 3, seed=b"y"), 1)
    assert not verify_vrf(registry, registry.n + 3, 1, stranger)
