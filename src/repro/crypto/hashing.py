"""Canonical hashing helpers shared by the whole repository.

All identifiers (block ids, message ids, signatures, VRF outputs) are
derived from SHA-256 over a *canonical encoding* of heterogeneous fields.
The encoding is injective: every field is length-prefixed and tagged with
its type, so distinct field tuples can never produce the same byte
string.  This matters because the simulated signatures and VRFs inherit
their unforgeability argument from the injectivity of this encoding.
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


def encode_fields(*fields: Encodable) -> bytes:
    """Return the canonical, injective byte encoding of ``fields``.

    Supports ``None``, ``int`` (arbitrary size, signed), ``str``,
    ``bytes`` and arbitrarily nested tuples of these.
    """
    parts: list[bytes] = []
    _emit_tuple(fields, parts.append)
    return b"".join(parts)


def bytes_field(data: bytes) -> bytes:
    """One ``bytes`` field exactly as :func:`encode_fields` emits it."""
    return _pack_head(_TAG_BYTES, len(data)) + data


def _emit_tuple(items: tuple, append) -> None:
    # The one pass: dispatch on the exact type of each field, append its
    # pieces to the caller's list (joined once at the end), recurse only
    # into nested tuples.  Everything else — subclasses of the supported
    # types, and ``bool``, which must raise — takes ``_encode_one``, so
    # the two paths cannot disagree on what is encodable.
    append(_pack_head(_TAG_TUPLE, len(items)))
    for field in items:
        kind = type(field)
        if kind is str:
            payload = field.encode("utf-8")
            append(_pack_head(_TAG_STR, len(payload)))
            append(payload)
        elif kind is int:
            payload = field.to_bytes((field.bit_length() + 8) // 8, "big", signed=True)
            append(_pack_head(_TAG_INT, len(payload)))
            append(payload)
        elif kind is tuple:
            _emit_tuple(field, append)
        elif field is None:
            append(_TAG_NONE)
        elif kind is bytes:
            append(_pack_head(_TAG_BYTES, len(field)))
            append(field)
        else:
            append(_encode_one(field))


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
