"""Canonical hashing helpers shared by the whole repository.

All identifiers (block ids, message ids, signatures, VRF outputs) are
derived from SHA-256 over a *canonical encoding* of heterogeneous fields.
The encoding is injective: every field is length-prefixed and tagged with
its type, so distinct field tuples can never produce the same byte
string.  This matters because the simulated signatures and VRFs inherit
their unforgeability argument from the injectivity of this encoding.

The same few values recur in almost every encoding — the kind labels,
block ids, rounds and pids of a run's votes and proposals — so the
encoder keeps the encoded piece (tag, length, payload) of each exact
``str`` and exact ``int`` it meets in one bounded memo per type
(:data:`PIECES_KEPT` pieces of at most :data:`PIECE_BYTES_KEPT` bytes
each, emptied when full) and holds the head of every short tuple
precomputed.  The memo is consulted only after the exact-type
dispatch, so it is keyed by values of one type: ``True``, ``1.0`` and
an ``IntEnum`` member never reach the ``int`` memo even though they
compare equal to ``1``; ``bool`` and ``float`` are refused and
subclasses are encoded by the slow path as always.  A hit and a miss
produce the same bytes, so the memo changes cost, never an id.
"""

from __future__ import annotations

import hashlib
import struct

_TAG_NONE = b"N"
_TAG_INT = b"I"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_TUPLE = b"T"

Encodable = None | int | str | bytes | tuple

#: Tag byte and big-endian u32 length of one field, packed in one call.
_pack_head = struct.Struct(">cI").pack

#: Entries each piece memo holds before it is emptied.
PIECES_KEPT = 512
#: Longest piece a memo keeps (a block id's is 69 bytes).
PIECE_BYTES_KEPT = 128
#: Exact ``str`` / exact ``int`` value -> its encoded piece.
_str_pieces: dict[str, bytes] = {}
_int_pieces: dict[int, bytes] = {}
#: The head of a tuple of each length below this (a protocol signs at most 16).
_SHORT_TUPLE = 32
_TUPLE_HEADS = tuple(_pack_head(_TAG_TUPLE, length) for length in range(_SHORT_TUPLE))


def encode_fields(*fields: Encodable) -> bytes:
    """Return the canonical, injective byte encoding of ``fields``.

    Supports ``None``, ``int`` (arbitrary size, signed), ``str``,
    ``bytes`` and arbitrarily nested tuples of these.
    """
    parts: list[bytes] = []
    _emit_tuple(fields, parts.append)
    return b"".join(parts)


def bytes_head(length: int) -> bytes:
    """What :func:`encode_fields` emits before a ``bytes`` field's ``length`` bytes."""
    return _pack_head(_TAG_BYTES, length)


def _emit_tuple(items: tuple, append) -> None:
    # The one pass: dispatch on the exact type of each field, append its
    # pieces to the caller's list (joined once at the end), recurse only
    # into nested tuples.  Everything else — subclasses of the supported
    # types, and ``bool``, which must raise — takes ``_encode_one``, so
    # the two paths cannot disagree on what is encodable.  The memo
    # lookups come after the dispatch: a key equal to ``1`` but of
    # another type never reaches ``_int_pieces``.
    length = len(items)
    append(_TUPLE_HEADS[length] if length < _SHORT_TUPLE else _pack_head(_TAG_TUPLE, length))
    for field in items:
        kind = type(field)
        if kind is str:
            piece = _str_pieces.get(field)
            append(piece if piece is not None else _str_piece(field))
        elif kind is int:
            piece = _int_pieces.get(field)
            append(piece if piece is not None else _int_piece(field))
        elif kind is tuple:
            _emit_tuple(field, append)
        elif field is None:
            append(_TAG_NONE)
        elif kind is bytes:
            append(_pack_head(_TAG_BYTES, len(field)))
            append(field)
        else:
            append(_encode_one(field))


def _str_piece(field: str) -> bytes:
    payload = field.encode("utf-8")
    return _keep(_str_pieces, field, _pack_head(_TAG_STR, len(payload)) + payload)


def _int_piece(field: int) -> bytes:
    payload = field.to_bytes((field.bit_length() + 8) // 8, "big", signed=True)
    return _keep(_int_pieces, field, _pack_head(_TAG_INT, len(payload)) + payload)


def _keep(memo: dict, field: str | int, piece: bytes) -> bytes:
    # A long value is encoded, never kept: the bound is on bytes too.
    if len(piece) <= PIECE_BYTES_KEPT:
        if len(memo) >= PIECES_KEPT:
            memo.clear()
        memo[field] = piece
    return piece


def _encode_one(field: Encodable) -> bytes:
    """The slow path: ``isinstance`` dispatch, one ``bytes`` per field."""
    if field is None:
        return _TAG_NONE
    if isinstance(field, bool):
        # Reject silently-int-like bools: they are almost always a bug in
        # a caller that meant to encode a real field.
        raise TypeError("bool is not encodable; encode an explicit int or str")
    if isinstance(field, int):
        length = max(1, (field.bit_length() + 8) // 8)
        payload = field.to_bytes(length, "big", signed=True)
        return _TAG_INT + len(payload).to_bytes(4, "big") + payload
    if isinstance(field, str):
        payload = field.encode("utf-8")
        return _TAG_STR + len(payload).to_bytes(4, "big") + payload
    if isinstance(field, bytes):
        return _TAG_BYTES + len(field).to_bytes(4, "big") + field
    if isinstance(field, tuple):
        return encode_fields(*field)
    raise TypeError(f"unsupported field type for canonical encoding: {type(field)!r}")


def require_exact_types(obj: object, spec: tuple[tuple[str, tuple[type, ...]], ...]) -> None:
    """Raise :class:`TypeError` unless each named attribute of ``obj`` has
    *exactly* one of its listed types (``5 == 5.0 == True`` in a tuple, so
    field tuples compare as content only between exact encoder types)."""
    for name, kinds in spec:
        got = type(getattr(obj, name))
        if got not in kinds:
            wanted = " | ".join(kind.__name__ for kind in kinds)
            owner = type(obj).__name__
            raise TypeError(f"{owner}.{name} must be exactly {wanted}, not {got.__name__}")


def sha256_hex(data: bytes) -> str:
    """SHA-256 of ``data`` as a 64-character hex string."""
    return hashlib.sha256(data).hexdigest()


def hash_fields(*fields: Encodable) -> str:
    """Hash a tuple of fields under the canonical encoding."""
    return sha256_hex(encode_fields(*fields))
