"""Encoded-file and report formats.

Encoded file layout (all integers little-endian):

    magic   "RARC"                      4 bytes
    version 1                           1 byte
    code    0 = msrr, 1 = mbrr          1 byte
    n, u, k, dbar                       2 bytes each
    field kind  0 = gf256, 1 = prime    1 byte
    field modulus (poly mask or p)      2 bytes
    body     stripes x (n * alpha) symbols, node-major within a stripe,
             each symbol at the field's serialized width
    trailer  original payload byte length, 8 bytes

Reports are line-oriented ``record=<kind> key=value ...`` text.  Rational
values always carry an explicit denominator (``25/18``) so re-parsing
reproduces them exactly; 3-decimal renderings are presentation-only
strings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import FormatError, ParameterError
from .field import FieldSpec, field_from_descriptor
from .params import MBRR, MSRR, SystemParams

MAGIC = b"RARC"
FORMAT_VERSION = 1
_CODE_IDS = {MSRR: 0, MBRR: 1}
_CODE_NAMES = {v: k for k, v in _CODE_IDS.items()}
_FIELD_IDS = {"gf256": 0, "prime": 1}
_FIELD_NAMES = {v: k for k, v in _FIELD_IDS.items()}
_HEADER = struct.Struct("<4sBBHHHHBH")
_TRAILER = struct.Struct("<Q")


@dataclass
class EncodedFile:
    """Parsed in-memory form of an encoded file."""

    code_type: str
    params: SystemParams
    field: FieldSpec  # the field the file was parsed or encoded with
    body: np.ndarray  # (stripes, n * alpha)
    payload_len: int

    @property
    def alpha(self) -> int:
        return 1 if self.code_type == MSRR else self.params.dbar

    @property
    def stripes(self) -> int:
        return self.body.shape[0]


def serialize_encoded(ef: EncodedFile) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        _CODE_IDS[ef.code_type],
        ef.params.n,
        ef.params.u,
        ef.params.k,
        ef.params.dbar,
        _FIELD_IDS[ef.field.kind],
        ef.field.modulus,
    )
    width = "<u1" if ef.field.symbol_width == 1 else "<u2"
    body = np.ascontiguousarray(ef.body, dtype=width)
    return b"".join((header, body, _TRAILER.pack(ef.payload_len)))


def parse_encoded(data: bytes) -> EncodedFile:
    if len(data) < _HEADER.size + _TRAILER.size:
        raise FormatError("file shorter than header plus trailer")
    magic, version, code_id, n, u, k, dbar, field_id, modulus = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    if code_id not in _CODE_NAMES:
        raise FormatError(f"unknown code type {code_id}")
    if field_id not in _FIELD_NAMES:
        raise FormatError(f"unknown field kind {field_id}")
    try:
        params = SystemParams(n=n, u=u, k=k, dbar=dbar)
    except ParameterError as exc:
        raise FormatError(f"invalid header parameters: {exc}") from exc
    code_type = _CODE_NAMES[code_id]
    try:
        field = field_from_descriptor(_FIELD_NAMES[field_id], modulus, u)
    except ParameterError as exc:
        raise FormatError(f"invalid field descriptor: {exc}") from exc
    alpha = 1 if code_type == MSRR else dbar
    if code_type == MBRR and dbar < 1:
        raise FormatError("array-code file with dbar=0")
    (payload_len,) = _TRAILER.unpack_from(data, len(data) - _TRAILER.size)
    body_len = len(data) - _HEADER.size - _TRAILER.size
    width = field.symbol_width
    record = n * alpha * width
    if record == 0 or body_len % record != 0:
        raise FormatError("body length is not a whole number of stripes")
    dtype = "<u1" if width == 1 else "<u2"
    body = np.frombuffer(data, dtype, body_len // width, _HEADER.size).reshape(-1, n * alpha)
    if body.size and int(body.max()) >= field.q:
        raise FormatError("body symbol out of field range")
    return EncodedFile(
        code_type=code_type,
        params=params,
        field=field,
        body=body,
        payload_len=payload_len,
    )


# -- payload <-> symbol packing ----------------------------------------------


def payload_to_symbols(field: FieldSpec, payload: bytes) -> np.ndarray:
    """Reversible injection of bytes into field symbols.

    GF(256) and primes above 256 take one byte per symbol.  For primes
    below 256 the symbol p-1 escapes: a byte b >= p-1 becomes the pair
    (p-1, b-(p-1)), which requires p >= 131 so the second symbol fits.
    """
    q = field.q
    data = np.frombuffer(payload, dtype=np.uint8)
    if q >= 256:
        return data.astype(field.np_dtype)
    if q < 131:
        raise ParameterError(
            f"prime field p={q} is too small for byte packing (needs p >= 131)"
        )
    escape = q - 1
    # Every byte b becomes the pair (escape, b - escape*[b >= escape]); the
    # escape half is kept only where b >= escape.
    keep = np.ones((data.size, 2), dtype=bool)
    np.greater_equal(data, escape, out=keep[:, 0])
    pairs = np.empty((data.size, 2), dtype=np.uint8)
    pairs[:, 0] = escape
    np.subtract(data, keep[:, 0] * np.uint8(escape), out=pairs[:, 1])
    return pairs.reshape(-1).take(np.flatnonzero(keep))


def symbols_to_payload(
    field: FieldSpec, symbols: np.ndarray, payload_len: int, *, stripe: int
) -> bytes:
    """Inverse of ``payload_to_symbols``.  A stream that no payload packs to
    raises ``FormatError``.

    The symbols after the payload's last byte are stripe padding: they
    must be all zero and fewer than ``stripe``, the data symbols per
    stripe, as ``rarc encode`` writes them, or they raise ``FormatError``.
    """
    q = field.q
    symbols = np.asarray(symbols).reshape(-1)
    if q >= 256:
        head = symbols[:payload_len]
        if head.size < payload_len:
            raise FormatError(
                f"payload truncated: expected {payload_len} bytes, got {head.size}"
            )
        if head.size and (head.min() < 0 or head.max() > 0xFF):
            raise FormatError("symbol is not a byte")
        _check_padding(symbols[payload_len:], stripe)
        return head.astype(np.uint8).tobytes()
    escape = q - 1
    # A symbol right after an escape is the second half of a pair.  Read
    # this way, the stream parses as written up to its first escape that
    # is followed by another escape, which the checks below reject.
    start = np.ones(symbols.size, dtype=bool)
    np.not_equal(symbols[:-1], escape, out=start[1:])
    starts = np.flatnonzero(start)[:payload_len]
    lead = symbols.take(starts)
    escaped = lead == escape
    if escaped.size and escaped[-1] and starts[-1] + 1 == symbols.size:
        raise FormatError("escape symbol ends the symbol stream")
    # The symbol after every lead, zeroed where the lead is not an escape;
    # the index array is shifted in place, and the one index past the end
    # (a plain last symbol) is clipped and then zeroed.
    starts += 1
    tail = symbols.take(starts, mode="clip") * escaped
    if (tail == escape).any():
        raise FormatError("escape symbol followed by another escape")
    if lead.size and (lead.min() < 0 or lead.max() > escape):
        raise FormatError("symbol out of field range")
    if tail.size and (tail.min() < 0 or tail.max() > 0xFF - escape):
        raise FormatError("escape pair does not encode a byte")
    if lead.size < payload_len:
        raise FormatError(
            f"payload truncated: expected {payload_len} bytes, got {lead.size}"
        )
    # ``starts`` now points one past each lead, and a pair ends one further
    end = int(starts[-1]) + int(escaped[-1]) if payload_len else 0
    _check_padding(symbols[end:], stripe)
    return (lead + tail).astype(np.uint8).tobytes()


def _check_padding(padding: np.ndarray, stripe: int) -> None:
    if padding.size >= stripe:
        raise FormatError(
            f"{padding.size} symbols follow the payload, a stripe of {stripe} or more"
        )
    if padding.any():
        raise FormatError("stripe padding after the payload is not zero")


# -- structured-text reports ----------------------------------------------------


def format_thousandths(value) -> str:
    """Exact 3-decimal rendering of a rational, half away from zero."""
    fr = Fraction(value)
    sign = "-" if fr < 0 else ""
    fr = abs(fr)
    num = fr.numerator * 1000
    q, r = divmod(num, fr.denominator)
    if 2 * r >= fr.denominator:
        q += 1
    return f"{sign}{q // 1000}.{q % 1000:03d}"


def _encode_value(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    text = str(value)
    if not text or any(ch.isspace() for ch in text) or "=" in text:
        raise FormatError(f"value {value!r} does not fit the record grammar")
    return text


def render_records(records: Iterable[tuple[str, Mapping]], notes: Iterable[str] = ()) -> str:
    lines = []
    for note in notes:
        lines.append(f"# {note}")
    for kind, fields in records:
        parts = [f"record={kind}"]
        for key, value in fields.items():
            parts.append(f"{key}={_encode_value(value)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def _decode_value(text: str):
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den))
        except ValueError:
            return text
    if "." in text:
        return text  # decimal renderings stay presentation strings
    try:
        return int(text)
    except ValueError:
        return text


def parse_report(text: str) -> list[tuple[str, dict]]:
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if not tokens[0].startswith("record="):
            raise FormatError(f"malformed report line: {line!r}")
        kind = tokens[0][len("record=") :]
        fields = {}
        for token in tokens[1:]:
            key, eq, value = token.partition("=")
            if not eq:
                raise FormatError(f"malformed report token: {token!r}")
            fields[key] = _decode_value(value)
        records.append((kind, fields))
    return records
