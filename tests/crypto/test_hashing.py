"""Canonical encoding: injectivity is what unforgeability rests on."""

import enum
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import encode_fields, hash_fields, sha256_hex


def test_field_types_are_tagged():
    # Values that collide under naive str() concatenation must not collide.
    assert encode_fields(1, 2) != encode_fields(12)
    assert encode_fields("12") != encode_fields(12)
    assert encode_fields(b"12") != encode_fields("12")
    assert encode_fields(None) != encode_fields(0)
    assert encode_fields("") != encode_fields(b"")
    assert encode_fields(("a", "b")) != encode_fields("ab")


def test_length_prefixing_prevents_concatenation_collisions():
    assert encode_fields("ab", "c") != encode_fields("a", "bc")
    assert encode_fields(b"ab", b"c") != encode_fields(b"a", b"bc")


def test_nested_tuples_encode_distinctly():
    assert encode_fields((1, (2, 3))) != encode_fields((1, 2, 3))
    assert encode_fields(((),)) != encode_fields(())


def test_negative_and_large_ints():
    assert encode_fields(-1) != encode_fields(255)
    assert encode_fields(2**300) != encode_fields(2**300 + 1)


def test_bool_rejected():
    with pytest.raises(TypeError, match="bool"):
        encode_fields(True)


def test_unsupported_type_rejected():
    with pytest.raises(TypeError, match="unsupported"):
        encode_fields([1, 2])  # type: ignore[arg-type]


def test_hash_fields_is_sha256_of_encoding():
    assert hash_fields(1, "a") == sha256_hex(encode_fields(1, "a"))
    assert len(hash_fields(1)) == 64


scalar = st.one_of(
    st.none(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.text(max_size=16),
    st.binary(max_size=16),
)
fields = st.lists(scalar, max_size=5).map(tuple)


@given(fields, fields)
def test_encoding_injective_on_random_field_tuples(a, b):
    if a != b:
        assert encode_fields(*a) != encode_fields(*b)
    else:
        assert encode_fields(*a) == encode_fields(*b)


# ----------------------------------------------------------------------
# The single-pass encoder against the recursive one it replaced
# ----------------------------------------------------------------------
def _oracle_encode_fields(*fields) -> bytes:
    """The encoder as it was before the single-pass rewrite, verbatim."""
    out = bytearray()
    out += b"T"
    out += len(fields).to_bytes(4, "big")
    for field in fields:
        out += _oracle_encode_one(field)
    return bytes(out)


def _oracle_encode_one(field) -> bytes:
    if field is None:
        return b"N"
    if isinstance(field, bool):
        raise TypeError("bool is not encodable; encode an explicit int or str")
    if isinstance(field, int):
        length = max(1, (field.bit_length() + 8) // 8)
        payload = field.to_bytes(length, "big", signed=True)
        return b"I" + len(payload).to_bytes(4, "big") + payload
    if isinstance(field, str):
        payload = field.encode("utf-8")
        return b"S" + len(payload).to_bytes(4, "big") + payload
    if isinstance(field, bytes):
        return b"B" + len(field).to_bytes(4, "big") + field
    if isinstance(field, tuple):
        inner = bytearray()
        inner += b"T"
        inner += len(field).to_bytes(4, "big")
        for item in field:
            inner += _oracle_encode_one(item)
        return bytes(inner)
    raise TypeError(f"unsupported field type for canonical encoding: {type(field)!r}")


_BOUNDARY_INTS = [
    sign * (2 ** (8 * k) + delta) for k in range(9) for delta in (-1, 0, 1) for sign in (1, -1)
] + [10**30, -(10**30), 0]
_STRINGS = ["", "a", "vote", "ab" * 32, "é", "日本語", "\x00", "🦀" * 3]


def _random_field(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6 if depth < 3 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice(_BOUNDARY_INTS) if rng.random() < 0.5 else rng.randrange(-(2**70), 2**70)
    if kind == 2:
        return rng.choice(_STRINGS)
    if kind == 3:
        return rng.randbytes(rng.choice((0, 0, 1, 8, 64)))
    if kind == 4:
        return ()
    return tuple(_random_field(rng, depth + 1) for _ in range(rng.randrange(5)))


def test_single_pass_encoder_matches_the_recursive_oracle():
    rng = random.Random(20240612)
    for _ in range(20_000):
        fields = tuple(_random_field(rng) for _ in range(rng.randrange(7)))
        assert encode_fields(*fields) == _oracle_encode_fields(*fields), fields


class _Kind(enum.IntEnum):
    VOTE = 7


class _Name(str):
    pass


class _Blob(bytes):
    pass


class _Pair(tuple):
    pass


def test_subclasses_encode_as_their_base_type():
    for value, plain in (
        (_Kind.VOTE, 7),
        (_Name("tip"), "tip"),
        (_Blob(b"\x00\x01"), b"\x00\x01"),
        (_Pair((1, "a")), (1, "a")),
    ):
        assert encode_fields(value) == _oracle_encode_fields(value) == encode_fields(plain)
        assert encode_fields("x", (value, None)) == encode_fields("x", (plain, None))


def test_bool_rejected_at_any_depth():
    for fields in ((True,), (1, False), ((1, (True,)),), (_Pair((False,)),)):
        with pytest.raises(TypeError, match="bool"):
            encode_fields(*fields)


def test_golden_hashes_pin_the_id_space():
    # Computed with the recursive encoder; every id in golden traces,
    # attack digests and benchmark decision digests hangs off these.
    assert (
        hash_fields("tx", 7, (3 << 32) | 2, b"\x00" * 8, "ab" * 32)
        == "ccad7da4837c2bb86c3fcec799f8dc7e32224ace09b2aa7210c2331f4ea200c2"
    )
    assert (
        hash_fields("block", None, -1, 0, 0, ())
        == "c83a4aa32839e62ed0fa95286c0377279bd083bcca465ced06a1a785080e990e"
    )
    assert (
        hash_fields(
            "verified", "VoteMessage", 3, ("vote", 3, 17, None), "cd" * 32, -(2**64), "é"
        )
        == "f89915af9d6d0cd22aad5394f508e152f0395625c34d3bdff4bd12779a527ab6"
    )
