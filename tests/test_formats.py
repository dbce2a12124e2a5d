import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarc.errors import FormatError, ParameterError
from rarc.field import Gf256Field, PrimeField, make_field
from rarc.formats import (
    EncodedFile,
    format_thousandths,
    parse_encoded,
    parse_report,
    payload_to_symbols,
    render_records,
    serialize_encoded,
    symbols_to_payload,
)
from rarc.params import SystemParams

RNG = random.Random(223)


def sample_encoded(code_type="msrr", field_kind="gf256"):
    params = SystemParams(n=50, u=5, k=44, dbar=4)
    if field_kind == "gf256":
        field = make_field(50, 5, "gf256")
    else:
        field = make_field(50, 5, "prime")
    alpha = 1 if code_type == "msrr" else params.dbar
    body = np.array(
        [[RNG.randrange(field.q) for _ in range(50 * alpha)] for _ in range(3)],
        dtype=field.np_dtype,
    )
    return EncodedFile(
        code_type=code_type,
        params=params,
        field=field,
        body=body,
        payload_len=100,
    )


# ---------------------------------------------------------------------------
# encoded-file round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code_type", ["msrr", "mbrr"])
@pytest.mark.parametrize("field_kind", ["gf256", "prime"])
def test_encoded_file_round_trip(code_type, field_kind):
    ef = sample_encoded(code_type, field_kind)
    parsed = parse_encoded(serialize_encoded(ef))
    assert parsed.code_type == ef.code_type
    assert parsed.params == ef.params
    assert parsed.field.kind == ef.field.kind
    assert parsed.field.modulus == ef.field.modulus
    assert parsed.payload_len == ef.payload_len
    assert np.array_equal(parsed.body, ef.body)
    assert parsed.alpha == ef.alpha
    assert parsed.stripes == 3


def test_corrupt_magic_rejected():
    blob = bytearray(serialize_encoded(sample_encoded()))
    blob[0] ^= 0xFF
    with pytest.raises(FormatError):
        parse_encoded(bytes(blob))


def test_unknown_version_rejected():
    blob = bytearray(serialize_encoded(sample_encoded()))
    blob[4] = 99
    with pytest.raises(FormatError):
        parse_encoded(bytes(blob))


def test_truncated_body_rejected():
    blob = serialize_encoded(sample_encoded())
    with pytest.raises(FormatError):
        parse_encoded(blob[:-3])  # no longer a whole number of stripes


def test_too_short_file_rejected():
    with pytest.raises(FormatError):
        parse_encoded(b"RARC")


def test_invalid_header_params_rejected():
    ef = sample_encoded()
    blob = bytearray(serialize_encoded(ef))
    blob[10] = 0  # k low byte -> k = 0... actually offset: recompute below
    # corrupt the k field (offset 4+1+1+2+2 = 10, little-endian u16)
    blob[10:12] = (0).to_bytes(2, "little")
    with pytest.raises(FormatError):
        parse_encoded(bytes(blob))


def test_out_of_range_symbol_rejected():
    ef = sample_encoded(field_kind="prime")  # p = 251 < 256
    body = ef.body.copy()
    body[0, 0] = 255
    bad = EncodedFile(
        code_type=ef.code_type,
        params=ef.params,
        field=ef.field,
        body=body,
        payload_len=ef.payload_len,
    )
    with pytest.raises(FormatError):
        parse_encoded(serialize_encoded(bad))


def test_symbol_serialization_round_trip():
    rng = random.Random(3)
    for field, params in (
        (make_field(50, 5, "gf256"), SystemParams(n=10, u=5, k=8, dbar=1)),
        (make_field(300, 2, "prime"), SystemParams(n=6, u=2, k=4, dbar=1)),
    ):
        body = np.array([rng.randrange(field.q) for _ in range(60)], dtype=field.np_dtype)
        ef = EncodedFile("msrr", params, field, body.reshape(-1, params.n), 7)
        blob = serialize_encoded(ef)
        assert len(blob) == 17 + 60 * field.symbol_width + 8
        assert np.array_equal(parse_encoded(blob).body, ef.body)


def test_serialization_is_little_endian():
    f = make_field(300, 2, "prime")  # p = 307: two bytes per symbol
    body = np.zeros((1, 6), dtype=f.np_dtype)
    body[0, 0] = 258
    ef = EncodedFile("msrr", SystemParams(n=6, u=2, k=4, dbar=1), f, body, 0)
    assert serialize_encoded(ef)[17:19] == b"\x02\x01"


# ---------------------------------------------------------------------------
# payload packing
# ---------------------------------------------------------------------------


def test_gf256_packing_is_identity():
    f = make_field(50, 5, "gf256")
    payload = bytes(range(256))
    symbols = payload_to_symbols(f, payload)
    assert symbols.tolist() == list(range(256))
    assert symbols_to_payload(f, symbols, 256, stripe=1) == payload


def test_wide_prime_packing_is_byte_per_symbol():
    f = make_field(300, 2, "prime")  # p = 307 > 256
    payload = bytes(range(256))
    symbols = payload_to_symbols(f, payload)
    assert symbols.tolist() == list(range(256))
    assert symbols_to_payload(f, symbols, 256, stripe=1) == payload


def test_small_prime_escape_covers_every_byte():
    f = make_field(130, 2, "prime")  # p = 131
    payload = bytes(range(256))
    symbols = payload_to_symbols(f, payload)
    assert all(0 <= s < f.q for s in symbols)
    # bytes below the escape stay single symbols, the rest become pairs
    assert len(symbols) == 130 + 2 * 126
    assert symbols_to_payload(f, symbols, 256, stripe=1) == payload


def test_small_prime_packing_with_padding_round_trip():
    f = make_field(130, 2, "prime")
    payload = bytes(RNG.randrange(256) for _ in range(999))
    symbols = payload_to_symbols(f, payload).tolist() + [0] * 57  # stripe padding
    assert symbols_to_payload(f, symbols, len(payload), stripe=58) == payload


def test_tiny_prime_field_refuses_payloads():
    f = make_field(6, 2, "prime")  # p = 7 cannot carry bytes
    with pytest.raises(ParameterError):
        payload_to_symbols(f, b"hi")


def test_truncated_symbol_stream_detected():
    f = make_field(50, 5, "gf256")
    with pytest.raises(FormatError):
        symbols_to_payload(f, [1, 2, 3], 10, stripe=1)


GF131 = PrimeField(131, 2)  # escape symbol 130: pairs carry 0..125
GF307 = PrimeField(307, 2)


def test_escape_ending_the_payload_is_rejected():
    with pytest.raises(FormatError):
        symbols_to_payload(GF131, [1, 2, 130], 3, stripe=1)
    # past the payload's last byte it is nonzero stripe padding
    with pytest.raises(FormatError, match="not zero"):
        symbols_to_payload(GF131, [1, 2, 130], 2, stripe=2)


def test_escape_followed_by_escape_is_rejected():
    with pytest.raises(FormatError):
        symbols_to_payload(GF131, [5, 130, 130, 0], 2, stripe=2)
    assert symbols_to_payload(GF131, [5, 130, 0, 0, 0], 2, stripe=3) == b"\x05\x82"
    # past the payload's last byte two escapes are nonzero stripe padding
    with pytest.raises(FormatError, match="not zero"):
        symbols_to_payload(GF131, [5, 130, 0, 130, 130], 2, stripe=3)
    # p = 11 packs no payload, but a crafted file can still name it; there
    # the pair (10, 10) would be a byte
    with pytest.raises(FormatError):
        symbols_to_payload(PrimeField(11, 2), [10, 10, 3], 1, stripe=2)


def test_escape_pair_above_a_byte_is_rejected():
    assert symbols_to_payload(GF131, [130, 125], 1, stripe=1) == b"\xff"
    with pytest.raises(FormatError):
        symbols_to_payload(GF131, [130, 126], 1, stripe=1)


@pytest.mark.parametrize("field", [make_field(50, 5, "gf256"), GF131])
def test_stripe_padding_must_be_zero_and_shorter_than_a_stripe(field):
    payload = bytes([7, 9, 200])  # 200 packs as an escape pair over GF(131)
    symbols = payload_to_symbols(field, payload).tolist()
    assert symbols_to_payload(field, symbols + [0] * 4, 3, stripe=5) == payload
    assert symbols_to_payload(field, symbols, 3, stripe=5) == payload
    for padding in ([0] * 5, [0, 0, 1, 0]):
        with pytest.raises(FormatError):
            symbols_to_payload(field, symbols + padding, 3, stripe=5)
    # a length one byte short leaves the payload's last byte as padding
    with pytest.raises(FormatError, match="not zero"):
        symbols_to_payload(field, symbols + [0], 2, stripe=5)
    # and a zero length leaves every symbol
    with pytest.raises(FormatError, match="a stripe of 5 or more"):
        symbols_to_payload(field, [0] * 5, 0, stripe=5)
    assert symbols_to_payload(field, [0] * 4, 0, stripe=5) == b""


def test_symbol_outside_the_field_is_rejected():
    for bad in (131, 200, -1):
        with pytest.raises(FormatError):
            symbols_to_payload(GF131, [4, bad], 2, stripe=1)


def test_wide_prime_symbol_above_a_byte_is_rejected():
    with pytest.raises(FormatError):
        symbols_to_payload(GF307, np.array([7, 300, 0], dtype=np.uint16), 2, stripe=2)
    assert symbols_to_payload(GF307, np.array([7, 255, 0], dtype=np.uint16), 2, stripe=2) == b"\x07\xff"
    # past the payload's last byte it is nonzero stripe padding
    with pytest.raises(FormatError, match="not zero"):
        symbols_to_payload(GF307, np.array([7, 255, 300], dtype=np.uint16), 2, stripe=2)


# every field the packer serves: bytes, the two escape primes, two-byte symbols
PACKING_FIELDS = [Gf256Field(5), GF131, PrimeField(137, 4), GF307]


def reference_pack(q: int, payload: bytes) -> list[int]:
    """Scalar packer: one symbol per byte, or (q-1, b-(q-1)) for a byte
    b >= q-1 when q < 256."""
    if q >= 256:
        return list(payload)
    escape = q - 1
    out = []
    for b in payload:
        out.extend([b] if b < escape else [escape, b - escape])
    return out


def reference_unpack(q: int, symbols: list[int], payload_len: int, stripe: int) -> bytes:
    """Scalar inverse of ``reference_pack``; raises FormatError on any
    stream no payload packs to, up to the payload's last byte, and on any
    padding after it that is not fewer than ``stripe`` zeros."""
    escape = q - 1 if q < 256 else None
    out = bytearray()
    it = iter(symbols)
    while len(out) < payload_len:
        s = next(it, None)
        if s is None:
            raise FormatError("payload truncated")
        if s == escape:
            t = next(it, None)
            if t is None or t == escape or escape + t > 0xFF:
                raise FormatError("bad escape pair")
            out.append(escape + t)
        elif s >= min(q, 256):
            raise FormatError("symbol is neither a byte nor in the field")
        else:
            out.append(s)
    padding = list(it)
    if len(padding) >= stripe or any(padding):
        raise FormatError("bad stripe padding")
    return bytes(out)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PACKING_FIELDS), st.binary(max_size=400), st.integers(0, 40))
def test_packing_round_trips_and_matches_reference(field, payload, padding):
    symbols = payload_to_symbols(field, payload)
    assert symbols.dtype == field.np_dtype
    assert symbols.tolist() == reference_pack(field.q, payload)
    padded = np.concatenate([symbols, np.zeros(padding, dtype=field.np_dtype)])
    assert symbols_to_payload(field, padded, len(payload), stripe=padding + 1) == payload


@st.composite
def symbol_stream(draw):
    field = draw(st.sampled_from(PACKING_FIELDS + [PrimeField(11, 2)]))
    # lean on the escape symbol and the largest bytes, where streams break
    edges = [s for s in (field.q - 1, 0, 125, 126, 255) if s < field.q]
    symbol = st.one_of(st.sampled_from(edges), st.integers(0, field.q - 1))
    symbols = draw(st.lists(symbol, max_size=30))
    return field, symbols, draw(st.integers(0, len(symbols) + 2)), draw(st.integers(1, 8))


@settings(max_examples=400, deadline=None)
@given(symbol_stream())
def test_unpacking_matches_reference_on_arbitrary_streams(case):
    field, symbols, payload_len, stripe = case
    stream = np.array(symbols, dtype=field.np_dtype)
    try:
        expected = reference_unpack(field.q, symbols, payload_len, stripe)
    except FormatError:
        with pytest.raises(FormatError):
            symbols_to_payload(field, stream, payload_len, stripe=stripe)
    else:
        assert symbols_to_payload(field, stream, payload_len, stripe=stripe) == expected


LONG = 100_000


@pytest.mark.parametrize("q", [131, 137])
@pytest.mark.parametrize("kind", ["every byte escaped", "no byte escaped", "random"])
def test_packing_at_scale_matches_reference(q, kind):
    field = PrimeField(q, 2)
    rng = random.Random(f"{q}:{kind}")
    if kind == "every byte escaped":
        payload = b"\xff" * LONG
    elif kind == "no byte escaped":
        payload = bytes(rng.randrange(q - 1) for _ in range(LONG))
    else:
        payload = rng.randbytes(LONG)
    symbols = payload_to_symbols(field, payload)
    assert symbols.dtype == field.np_dtype
    expected = reference_pack(q, payload)
    assert symbols.tolist() == expected
    padded = np.concatenate([symbols, np.zeros(57, dtype=field.np_dtype)])
    assert reference_unpack(q, expected + [0] * 57, LONG, 58) == payload
    assert symbols_to_payload(field, padded, LONG, stripe=58) == payload


@pytest.mark.parametrize("q", [131, 137])
@pytest.mark.parametrize("fault", ["trailing escape", "escape then escape", "truncated"])
def test_malformed_end_of_a_long_stream_is_rejected(q, fault):
    field = PrimeField(q, 2)
    escape = q - 1
    symbols = reference_pack(q, random.Random(q).randbytes(LONG))
    tail = {"trailing escape": [escape], "escape then escape": [escape, escape, 0], "truncated": []}
    stream = symbols + tail[fault]
    with pytest.raises(FormatError):
        reference_unpack(q, stream, LONG + 1, 58)
    with pytest.raises(FormatError):
        symbols_to_payload(field, np.array(stream, dtype=field.np_dtype), LONG + 1, stripe=58)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_round_trips_exact_rationals():
    records = [
        (
            "table-row",
            {
                "nbar": 10,
                "code": "msrr",
                "storage": Fraction(25, 18),
                "storage_dec": "1.389",
                "bandwidth": Fraction(0, 1),
            },
        ),
        ("traffic", {"cross_rack_symbols": 4, "helpers": "0,1,2,4"}),
    ]
    text = render_records(records, notes=["one skipped cell"])
    parsed = parse_report(text)
    assert parsed[0][0] == "table-row"
    assert parsed[0][1]["storage"] == Fraction(25, 18)
    assert parsed[0][1]["storage_dec"] == "1.389"  # decimals stay strings
    assert parsed[0][1]["bandwidth"] == Fraction(0, 1)
    assert parsed[0][1]["nbar"] == 10
    assert parsed[1][1]["cross_rack_symbols"] == 4
    assert parsed[1][1]["helpers"] == "0,1,2,4"
    assert "# one skipped cell" in text


def test_report_rejects_malformed_lines():
    with pytest.raises(FormatError):
        parse_report("storage=1/2\n")
    with pytest.raises(FormatError):
        parse_report("record=x badtoken\n")


def test_report_rejects_unencodable_values():
    with pytest.raises(FormatError):
        render_records([("x", {"v": "has space"})])


# ---------------------------------------------------------------------------
# 3-decimal rendering
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fraction,text",
    [
        (Fraction(25, 18), "1.389"),
        (Fraction(5, 4), "1.250"),
        (Fraction(200, 157), "1.274"),
        (Fraction(100, 81), "1.235"),
        (Fraction(50, 44), "1.136"),
        (Fraction(4, 1), "4.000"),
        (Fraction(0, 1), "0.000"),
        (Fraction(1, 2000), "0.001"),  # exact half rounds away from zero
        (Fraction(17, 8), "2.125"),
    ],
)
def test_format_thousandths(fraction, text):
    assert format_thousandths(fraction) == text
