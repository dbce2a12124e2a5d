"""One stripe through the codes' fixed maps against the per-call routes
they replaced, and the input checks of the entry points that take symbols.

``encode_stripes`` on a one-column block and ``reconstruct`` apply the
same fixed maps as whole files; ``codec_oracle`` keeps the per-symbol
routes they replaced.  Both must agree on every message and node set, and
a corrupted node must fail both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarc.errors import ParameterError, SingularSystemError, VerificationError
from rarc.field import Gf256Field, PrimeField
from rarc.mbrr import MbrrCode, cell_layout
from rarc.msrr import MsrrCode
from rarc.params import SystemParams
from rarc.sim import Cluster

import codec_oracle as oracle
from field_oracle import oracle as field_oracle

GF256 = Gf256Field(5)
GF13 = PrimeField(13, 4)

ORACLE_PARAMS = [
    (SystemParams(n=50, u=5, k=44, dbar=4), GF256),
    (SystemParams(n=132, u=4, k=120, dbar=4), PrimeField(137, 4)),
    (SystemParams(n=12, u=4, k=8, dbar=1), GF13),
    (SystemParams(n=12, u=4, k=8, dbar=0), GF13),
]
MSRR_CODES = [MsrrCode.build(p, f) for p, f in ORACLE_PARAMS]
MBRR_CODES = [MbrrCode.build(p, f) for p, f in ORACLE_PARAMS if p.dbar >= 1]
FAILURES = (VerificationError, SingularSystemError)


def symbols(code, count):
    q = code.field.q
    return st.lists(
        st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1)),
        min_size=count,
        max_size=count,
    )


@st.composite
def node_set(draw, code):
    """At least k distinct nodes in random order, and maybe one to damage."""
    p = code.params
    size = draw(st.integers(p.k, p.n))
    nodes = draw(st.permutations(range(p.n)))[:size]
    damaged = draw(st.one_of(st.none(), st.sampled_from(nodes)))
    return nodes, damaged


def outcome(route, *args):
    try:
        return route(*args)
    except FAILURES as exc:
        return type(exc)


def assert_same_outcome(got, expected):
    if expected in FAILURES:
        assert got is VerificationError
    else:
        assert got == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_msrr_scalar_routes_equal_oracle(data):
    code = data.draw(st.sampled_from(MSRR_CODES))
    message = data.draw(symbols(code, code.B))
    codeword = oracle.encode_column(code, message)
    assert codeword == oracle.msrr_encode(code, message)
    nodes, damaged = data.draw(node_set(code))
    supplied = [(i, codeword[i]) for i in nodes]
    if damaged is not None:
        delta = data.draw(st.integers(1, code.field.q - 1))
        supplied = [(i, field_oracle(code.field).add(s, delta) if i == damaged else s) for i, s in supplied]
    got = outcome(code.reconstruct, supplied)
    assert_same_outcome(got, outcome(oracle.msrr_reconstruct, code, supplied))
    if damaged is None:
        assert got == message


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mbrr_scalar_routes_equal_oracle(data):
    code = data.draw(st.sampled_from(MBRR_CODES))
    p = code.params
    message = data.draw(symbols(code, code.B))
    M = oracle.pack_message(p, message)
    C = oracle.code_matrix(code, message)
    assert C.tolist() == oracle.mbrr_encode(code, M).to_rows()
    nodes, damaged = data.draw(node_set(code))
    supplied = [(i, C[:, i].tolist()) for i in nodes]
    if damaged is not None:
        row = data.draw(st.integers(0, p.dbar - 1))
        delta = data.draw(st.integers(1, code.field.q - 1))
        col = C[:, damaged].tolist()
        col[row] = field_oracle(code.field).add(col[row], delta)
        supplied = [(i, col if i == damaged else c) for i, c in supplied]
    got = outcome(code.reconstruct, supplied)
    assert_same_outcome(got, outcome(oracle.mbrr_reconstruct, code, supplied))
    if damaged is None:
        assert got == message


# u0 > 0 at dbar = 1, and at dbar = kbar, where exactly k given nodes erase
# |T| columns and no check row is left over
CHECK_ROW_CODES = MSRR_CODES + [
    MsrrCode.build(SystemParams(n=12, u=4, k=10, dbar=2), GF13),
    MsrrCode.build(SystemParams(n=12, u=4, k=9, dbar=1), GF13),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_msrr_block_reconstruct_equals_oracle_stripe_by_stripe(data):
    code = data.draw(st.sampled_from(CHECK_ROW_CODES))
    F = code.field
    stripes = data.draw(st.integers(1, 3))
    messages = [data.draw(symbols(code, code.B)) for _ in range(stripes)]
    body = code.encode_stripes(F.symbol_array(messages).T).copy()
    nodes, damaged = data.draw(node_set(code))
    if damaged is not None:
        stripe = data.draw(st.integers(0, stripes - 1))
        delta = data.draw(st.integers(1, F.q - 1))
        body[damaged, stripe] = field_oracle(F).add(body[damaged, stripe], delta)
    expected = [
        outcome(oracle.msrr_reconstruct, code, [(i, int(body[i, s])) for i in nodes])
        for s in range(stripes)
    ]
    got = outcome(lambda: code.reconstruct_stripes(nodes, body[nodes]).T.tolist())
    if any(e in FAILURES for e in expected):
        assert got is VerificationError
    else:
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mbrr_block_reconstruct_equals_oracle_stripe_by_stripe(data):
    code = data.draw(st.sampled_from(MBRR_CODES))
    p, F = code.params, code.field
    # past k / dbar stripes the decode composes its map, below it applies
    # the fill to the rows
    stripes = data.draw(st.sampled_from([1, 2, 3, p.k // p.dbar + 1]))
    messages = [data.draw(symbols(code, code.B)) for _ in range(stripes)]
    body = code.encode_stripes(F.symbol_array(messages).T).reshape(p.n, p.dbar, stripes).copy()
    nodes, damaged = data.draw(node_set(code))
    stripe = data.draw(st.integers(0, stripes - 1))
    if damaged is not None:
        row = data.draw(st.integers(0, p.dbar - 1))
        delta = data.draw(st.integers(1, F.q - 1))
        body[damaged, row, stripe] = field_oracle(F).add(body[damaged, row, stripe], delta)
    expected = [
        outcome(oracle.mbrr_reconstruct, code, [(i, body[i, :, s].tolist()) for i in nodes])
        for s in range(stripes)
    ]
    rows = body[nodes].reshape(-1, stripes)
    got = outcome(lambda: code.reconstruct_stripes(nodes, rows).T.tolist())
    if any(e in FAILURES for e in expected):
        assert got is VerificationError
    else:
        assert got == expected
    # past k nodes the given ones are a code of distance >= 2, so one flip is
    # always caught, and by the extra nodes before the message structure
    if damaged is not None and len(nodes) > p.k:
        with pytest.raises(VerificationError, match=f"inconsistent, first at stripe {stripe}$"):
            code.reconstruct_stripes(nodes, rows)


def test_mbrr_encode_of_an_unstructured_matrix_is_m_times_lambda():
    code = MBRR_CODES[2]
    p = code.params
    M = np.array([(3 * j + 1) % code.field.q for j in range(p.dbar * p.k)]).reshape(p.dbar, p.k)
    C = code.field.np_matmul(code.powers, M.T).T  # the powers the generator is built from
    assert C.tolist() == oracle.mbrr_encode(code, M).to_rows()


def test_message_layout_is_built_once_and_immutable():
    p = SystemParams(n=50, u=5, k=44, dbar=4)
    layout = cell_layout(p)
    assert cell_layout(SystemParams(n=50, u=5, k=44, dbar=4)) is layout
    arrays = (layout.block, layout.data, layout.filled, layout.source, layout.zero)
    assert all(isinstance(arr, np.ndarray) and not arr.flags.writeable for arr in arrays)


# ---------------------------------------------------------------------------
# out-of-range symbols
# ---------------------------------------------------------------------------

SMALL = [
    (SystemParams(n=10, u=5, k=8, dbar=1), GF256),
    (SystemParams(n=12, u=4, k=8, dbar=1), GF13),
]
# (field, value): too large for a byte, negative, and a GF(13) value that
# used to be stored unreduced
BAD = [(GF256, 300), (GF256, -1), (GF13, 16)]


def entry_points(code, bad):
    """Every entry point that takes symbols as a list, fed one out-of-range
    symbol."""
    p = code.params
    if code.code_type == "msrr":
        yield lambda: code.reconstruct([(0, bad)] + [(i, 0) for i in range(1, p.n)])
    else:
        column, damaged = [0] * p.dbar, [bad] + [0] * (p.dbar - 1)
        yield lambda: code.reconstruct([(0, damaged)] + [(i, column) for i in range(1, p.n)])
    yield lambda: Cluster(code).store([bad] + [0] * (code.B - 1))


@pytest.mark.parametrize("field,bad", BAD, ids=["gf256-300", "gf256-minus-1", "gf13-16"])
@pytest.mark.parametrize("code_type", [MsrrCode, MbrrCode])
def test_scalar_entry_points_reject_out_of_range_symbols(field, bad, code_type):
    p = next(p for p, f in SMALL if f is field)
    code = code_type.build(p, field)
    calls = list(entry_points(code, bad))
    assert len(calls) == 2
    for call in calls:
        with pytest.raises(ParameterError, match="symbols must be integers"):
            call()
