import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarc import bulk
from rarc import mbrr as mbrr_module
from rarc.errors import ParameterError, VerificationError
from rarc.field import (
    _GF256_NARROW,
    Gf256Field,
    PrimeField,
    field_from_descriptor,
    make_field,
)
from rarc.mbrr import MbrrCode
from rarc.msrr import MsrrCode
from rarc.params import MBRR, MSRR, SystemParams
from rarc.sim import Cluster, RepairPolicy

import repair_oracle as oracle
from field_oracle import oracle as field_oracle
from codec_oracle import (
    generator,
    lagrange_leading_weights,
    mbrr_encode,
    msrr_encode,
    pack_message,
)

RNG = random.Random(307)


def msrr_code(n=6, u=2, k=4, dbar=1, preference="prime"):
    return MsrrCode.build(SystemParams(n=n, u=u, k=k, dbar=dbar), make_field(n, u, preference))


def mbrr_code(n=8, u=2, k=5, dbar=1, preference="prime"):
    return MbrrCode.build(SystemParams(n=n, u=u, k=k, dbar=dbar), make_field(n, u, preference))


def random_block(code, stripes):
    return np.array(
        [[RNG.randrange(code.field.q) for _ in range(stripes)] for _ in range(code.B)],
        dtype=code.field.np_dtype,
    )


# ---------------------------------------------------------------------------
# scalar/batch two-path agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory", [lambda: msrr_code(), lambda: msrr_code(10, 5, 9, 1, "gf256")]
)
def test_msrr_batch_encode_matches_scalar(factory):
    code = factory()
    data = random_block(code, 9)
    body = code.encode_stripes(data)
    for s in range(9):
        assert body[:, s].tolist() == msrr_encode(code, data[:, s].tolist())


def test_msrr_batch_reconstruct_matches_scalar():
    code = msrr_code(8, 2, 5, 1)
    data = random_block(code, 6)
    body = code.encode_stripes(data)
    for nodes in itertools.combinations(range(8), 5):
        got = code.reconstruct_stripes(list(nodes), body[list(nodes), :])
        assert np.array_equal(got, data)


def test_msrr_batch_reconstruct_uses_extra_rows():
    code = msrr_code()
    data = random_block(code, 4)
    body = code.encode_stripes(data)
    got = code.reconstruct_stripes(list(range(6)), body)
    assert np.array_equal(got, data)


def test_msrr_batch_reconstruct_detects_corruption():
    code = msrr_code()
    data = random_block(code, 4)
    body = code.encode_stripes(data).copy()
    body[0, 2] = field_oracle(code.field).add(body[0, 2], 1)
    with pytest.raises(VerificationError):
        code.reconstruct_stripes(list(range(6)), body)


def test_msrr_batch_repair_every_node_and_helper():
    code = msrr_code()
    p = code.params
    data = random_block(code, 5)
    body = code.encode_stripes(data)
    for idx in range(p.n):
        e_star, g_star = p.node_pair(idx)
        for helper in [e for e in range(p.nbar) if e != e_star]:
            got, _, _ = bulk.repair_stripes(code, (e_star, g_star), [helper], body)
            assert np.array_equal(got[0], body[idx])


def test_msrr_batch_repair_local_only():
    code = msrr_code(6, 3, 4, 0)
    data = random_block(code, 5)
    body = code.encode_stripes(data)
    got, _, _ = bulk.repair_stripes(code, (1, 2), [], body)
    assert np.array_equal(got[0], body[5])


def unit(j, m):
    return [int(i == j) for i in range(m)]


def oracle_maps(code, failed, helper_racks):
    """The helper rows and the rebuild matrix, read off the per-call oracle
    derivations one unit vector at a time."""
    p = code.params
    a = code.alpha
    e_star, g_star = failed
    slots = [g for g in range(p.u) if g != g_star]
    helper_rows = []
    for h in helper_racks:
        row = []
        for j in range(p.u * a):
            stored = unit(j, p.u * a)
            if code.code_type == MSRR:
                row.append(oracle.msrr_helper_response(code, h, stored))
            else:
                columns = [stored[g * a : (g + 1) * a] for g in range(p.u)]
                row.append(oracle.mbrr_helper_response(code, h, e_star, columns))
        helper_rows.append(row)
    width = len(slots) * a
    probes = []
    for j in range(width + len(helper_racks)):
        x = unit(j, width + len(helper_racks))
        helpers = list(zip(helper_racks, x[width:]))
        if code.code_type == MSRR:
            probes.append([oracle.msrr_repair(code, failed, x[:width], helpers)])
        else:
            local = [(g, x[s * a : (s + 1) * a]) for s, g in enumerate(slots)]
            probes.append(oracle.mbrr_repair(code, failed, local, helpers))
    rebuild = [[col[i] for col in probes] for i in range(a)]
    return helper_rows, rebuild


MAP_CODES = [
    cls.build(SystemParams(n=n, u=u, k=k, dbar=d), make_field(n, u, pref))
    for n, u, k, d, pref in [
        (132, 4, 120, 4, "prime"),  # GF(137), the prime file code
        (50, 5, 44, 4, "gf256"),  # the GF(256) file code
        (50, 5, 44, 1, "gf256"),  # dbar = 1
        (50, 5, 44, 0, "gf256"),  # dbar = 0, minimum storage only
        (12, 3, 9, 3, "gf256"),  # dbar = nbar - 1
        (12, 4, 9, 1, "prime"),  # GF(13), dbar = 1
        (12, 4, 9, 2, "prime"),  # dbar = nbar - 1
        (12, 4, 9, 0, "prime"),  # dbar = 0
        (6, 2, 4, 1, "prime"),  # GF(7), even u
        (102, 51, 60, 1, "gf256"),  # u * 1 = 1 in GF(256), far from 51
    ]
    for cls in (MsrrCode, MbrrCode)
    if d >= 1 or cls is MsrrCode
]


@st.composite
def repair_case(draw, code):
    p = code.params
    failed = p.node_pair(draw(st.integers(0, p.n - 1)))
    others = [e for e in range(p.nbar) if e != failed[0]]
    helpers = draw(st.permutations(others))[: p.dbar]
    return failed, helpers


@settings(max_examples=25, deadline=None)
@given(st.tuples(*(repair_case(code) for code in MAP_CODES)))
def test_repair_maps_equal_oracle_probes(cases):
    for code, (failed, helpers) in zip(MAP_CODES, cases):
        helper, rebuild = code.repair_maps(failed, helpers)
        assert (helper.tolist(), rebuild.tolist()) == oracle_maps(code, failed, helpers)


@pytest.mark.parametrize(
    "code", [c for c in MAP_CODES if c.code_type == MBRR], ids=lambda c: repr(c.params)
)
def test_leading_weights_equal_oracle_per_point_weights(code):
    u = code.params.u
    for e, row in enumerate(code.leading_weights.tolist()):
        assert row == lagrange_leading_weights(code.field, code.lam[e * u : (e + 1) * u])


@pytest.mark.parametrize(
    "helpers",
    [[1], [1, 2, 3], [1, 1], [1, 1, 2], [0, 2], [1, 5], [1, -1]],
    ids=["too-few", "too-many", "duplicate", "duplicate-padded", "failed-rack", "past-end",
         "negative"],
)
def test_batch_repair_rejects_bad_helper_sets(helpers):
    # n=10, u=2, dbar=2: racks 0..4, the failed node sits in rack 0
    p = SystemParams(n=10, u=2, k=7, dbar=2)
    field = make_field(10, 2, "prime")
    for code in (MsrrCode.build(p, field), MbrrCode.build(p, field)):
        body = np.zeros((p.n * code.alpha, 3), dtype=field.np_dtype)
        with pytest.raises(ParameterError):
            bulk.repair_stripes(code, (0, 1), helpers, body)


APPLIER_CODES = [
    cls.build(SystemParams(n=n, u=u, k=k, dbar=d), make_field(n, u, pref))
    for n, u, k, d, pref in [
        (50, 5, 44, 4, "gf256"),
        (132, 4, 120, 4, "prime"),  # GF(137)
        (12, 4, 8, 0, "prime"),  # GF(13)
        (12, 4, 8, 1, "prime"),
        (12, 4, 8, 2, "prime"),
    ]
    for cls in (MsrrCode, MbrrCode)
    if d >= 1 or cls is MsrrCode
]


@st.composite
def applier_case(draw, code):
    failed, helpers = draw(repair_case(code))
    data = draw(st.lists(st.integers(0, code.field.q - 1), min_size=code.B, max_size=code.B))
    return failed, helpers, data


def scalar_repair(code, failed, helpers, stored):
    """The failed node through the per-call oracle: one response per helper
    rack, then the rebuild from the u - 1 local nodes; returns the rebuilt
    symbols and the (intra, cross) symbols that moved."""
    p = code.params
    e_star, g_star = failed

    def node(e, g):
        idx = p.node_index(e, g)
        return stored[idx * code.alpha : (idx + 1) * code.alpha]

    if code.code_type == MSRR:
        responses = [
            (h, oracle.msrr_helper_response(code, h, [node(h, g)[0] for g in range(p.u)]))
            for h in helpers
        ]
        local = [node(e_star, g)[0] for g in range(p.u) if g != g_star]
        rebuilt = [oracle.msrr_repair(code, failed, local, responses)]
        moved = len(local)
    else:
        responses = [
            (h, oracle.mbrr_helper_response(code, h, e_star, [node(h, g) for g in range(p.u)]))
            for h in helpers
        ]
        local = [(g, node(e_star, g)) for g in range(p.u) if g != g_star]
        rebuilt = oracle.mbrr_repair(code, failed, local, responses)
        moved = sum(len(col) for _, col in local)
    return rebuilt, moved, len(responses)


@settings(max_examples=20, deadline=None)
@given(st.tuples(*(applier_case(code) for code in APPLIER_CODES)))
def test_cluster_scalar_and_batch_appliers_agree(cases):
    for code, (failed, helpers, data) in zip(APPLIER_CODES, cases):
        p = code.params
        idx = p.node_index(*failed)
        cluster = Cluster(code).store(data)
        stored = [sym for i in range(p.n) for sym in cluster.node_data(i)]
        truth = cluster.node_data(idx)

        cluster.fail_node(failed)
        log = cluster.run_repair(RepairPolicy.explicit(helpers))
        column = np.array(stored, dtype=code.field.np_dtype).reshape(-1, 1)
        column[idx * code.alpha : (idx + 1) * code.alpha] = 0  # never read
        batch, local, responses = bulk.repair_stripes(code, failed, helpers, column)
        scalar, intra, cross = scalar_repair(code, failed, helpers, stored)

        assert cluster.node_data(idx) == batch[:, 0].tolist() == scalar == truth
        assert list(log.helper_racks) == helpers
        assert (log.intra_rack_symbols, log.cross_rack_symbols) == (local.size, responses.size)
        assert (intra, cross) == (local.size, responses.size)
        assert (intra, cross) == ((p.u - 1) * code.alpha, p.dbar)


@pytest.mark.parametrize("code", APPLIER_CODES[:2], ids=["msrr", "mbrr"])
def test_cluster_repair_is_two_products(code):
    F = code.field
    products = []
    kernel = type(F).np_matmul

    def counted(self, a, b):
        products.append((np.shape(a), np.shape(b)))
        return kernel(self, a, b)

    cluster = Cluster(code).store([1] * code.B)
    cluster.fail_node((3, 2))
    with mock.patch.object(type(F), "np_matmul", counted):
        cluster.run_repair(RepairPolicy.explicit([1, 5, 7, 9]))
    p, a = code.params, code.alpha
    reach = p.dbar * p.u * a  # the rows of all helper racks
    inputs = (p.u - 1) * a + p.dbar  # the local rows, then the responses
    # every response in one block-diagonal product, then the rebuild
    assert products == [((p.dbar, reach), (reach, 1)), ((a, inputs), (inputs, 1))]


# ---------------------------------------------------------------------------
# per-process caches
# ---------------------------------------------------------------------------


def test_fields_are_built_once_per_descriptor():
    gf = make_field(50, 5, "gf256")
    assert make_field(50, 5, "auto") is gf
    assert field_from_descriptor("gf256", gf.modulus, 5) is gf
    prime = make_field(50, 5, "prime")
    assert prime is not gf and prime.kind == "prime" and prime.q == 61
    assert field_from_descriptor("prime", 61, 5) is prime
    assert make_field(50, 5, "prime") is prime
    assert make_field(60, 5, "prime") is prime  # the same smallest prime, 61
    assert make_field(50, 2, "prime") is not prime  # another rack size


def test_codes_are_built_once_per_type_params_and_field():
    p = SystemParams(n=50, u=5, k=44, dbar=4)
    gf, prime = make_field(50, 5, "gf256"), make_field(50, 5, "prime")
    for code_type, cls in ((MSRR, MsrrCode), (MBRR, MbrrCode)):
        code = bulk.build_code(code_type, p, gf)
        assert isinstance(code, cls)
        assert bulk.build_code(code_type, SystemParams(n=50, u=5, k=44, dbar=4), gf) is code
        other = bulk.build_code(code_type, p, prime)
        assert other is not code and other.field is prime
    assert bulk.build_code(MSRR, p, gf) is not bulk.build_code(MBRR, p, gf)


def test_cached_arrays_are_read_only():
    p = SystemParams(n=50, u=5, k=44, dbar=4)
    field = make_field(50, 5, "gf256")
    msrr = bulk.build_code(MSRR, p, field)
    mbrr = bulk.build_code(MBRR, p, field)
    narrow = list(mbrr.dense_map)
    assert mbrr.dense_map[1] is narrow[1]
    gather, weights, twiddle = mbrr.rack_maps
    assert msrr.parity_rows is msrr.parity_rows and mbrr.rack_maps[0] is gather
    systematic = [msrr.checks, msrr.info_set, msrr.parity_set, msrr.parity_rows]
    for arr in narrow + systematic + [gather, twiddle, field._mul_table] + weights:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_mbrr_batch_encode_matches_scalar():
    for code in (mbrr_code(), mbrr_code(10, 2, 7, 2), mbrr_code(10, 5, 8, 1, "gf256")):
        p = code.params
        data = random_block(code, 7)
        body = code.encode_stripes(data)
        for s in range(7):
            C = mbrr_encode(code, pack_message(p, data[:, s].tolist()))
            flat = [C.at(i, node) for node in range(p.n) for i in range(p.dbar)]
            assert [int(v) for v in body[:, s]] == flat


def test_mbrr_batch_reconstruct_matches_scalar():
    code = mbrr_code(10, 2, 7, 2)
    p = code.params
    data = random_block(code, 6)
    body = code.encode_stripes(data)
    for nodes in itertools.combinations(range(p.n), p.k):
        rows = body[[idx * p.dbar + i for idx in nodes for i in range(p.dbar)], :]
        got = code.reconstruct_stripes(list(nodes), rows)
        assert np.array_equal(got, data)


def test_mbrr_batch_reconstruct_checks_extras_and_structure():
    code = mbrr_code(10, 2, 7, 2)
    p = code.params
    data = random_block(code, 4)
    body = code.encode_stripes(data).copy()
    got = code.reconstruct_stripes(list(range(p.n)), body)
    assert np.array_equal(got, data)
    body[-1, 1] = field_oracle(code.field).add(body[-1, 1], 2)
    with pytest.raises(VerificationError):
        code.reconstruct_stripes(list(range(p.n)), body)


def test_mbrr_batch_repair_every_node_and_helper_set():
    code = mbrr_code(10, 2, 7, 2)
    p = code.params
    data = random_block(code, 5)
    body = code.encode_stripes(data)
    for idx in range(p.n):
        e_star, g_star = p.node_pair(idx)
        others = [e for e in range(p.nbar) if e != e_star]
        for helpers in itertools.combinations(others, p.dbar):
            got, _, _ = bulk.repair_stripes(code, (e_star, g_star), list(helpers), body)
            assert np.array_equal(got, body[idx * p.dbar : (idx + 1) * p.dbar, :])


ORACLE_PARAMS = [
    (SystemParams(n=10, u=5, k=8, dbar=1), Gf256Field(5)),
    (SystemParams(n=12, u=4, k=9, dbar=2), PrimeField(137, 4)),
]
ORACLE_CODES = [
    code for p, f in ORACLE_PARAMS for code in (MsrrCode.build(p, f), MbrrCode.build(p, f))
]


@st.composite
def encode_case(draw):
    code = draw(st.sampled_from(ORACLE_CODES))
    stripes = draw(st.integers(0, 6))
    symbol = st.one_of(st.sampled_from([0, 1]), st.integers(0, code.field.q - 1))
    flat = draw(st.lists(symbol, min_size=code.B * stripes, max_size=code.B * stripes))
    return code, np.array(flat, dtype=code.field.np_dtype).reshape(code.B, stripes)


@settings(max_examples=60, deadline=None)
@given(encode_case())
def test_bulk_encode_columns_match_scalar_encode(case):
    code, data = case
    p = code.params
    body = code.encode_stripes(data)
    assert body.shape[1] == data.shape[1]
    for s in range(data.shape[1]):
        stripe = [int(v) for v in data[:, s]]
        if isinstance(code, MsrrCode):
            expected = msrr_encode(code, stripe)
        else:
            C = mbrr_encode(code, pack_message(p, stripe))
            expected = [C.at(i, node) for node in range(p.n) for i in range(p.dbar)]
        assert body[:, s].tolist() == expected


# ---------------------------------------------------------------------------
# encode routes: the oracle's generator product is the oracle for both
# ---------------------------------------------------------------------------

# the two production shapes, then GF(13) shapes with u0 > 0 at dbar = 1
# and at dbar = kbar, where no boundary column of M is structurally zero
ROUTE_PARAMS = [
    (SystemParams(n=50, u=5, k=44, dbar=4), Gf256Field(5)),
    (SystemParams(n=132, u=4, k=120, dbar=4), PrimeField(137, 4)),
    (SystemParams(n=12, u=4, k=10, dbar=2), PrimeField(13, 4)),
    (SystemParams(n=12, u=4, k=9, dbar=1), PrimeField(13, 4)),
]
ROUTE_CODES = [
    bulk.build_code(code_type, p, f) for p, f in ROUTE_PARAMS for code_type in (MSRR, MBRR)
]


def route_widths(code):
    """0, 1, the widest block MBRR encodes with one product and one stripe
    more, or any width up to 80."""
    split = mbrr_module._DENSE_STRIPES
    return st.one_of(st.sampled_from([0, 1, split, split + 1]), st.integers(2, 80))


def kernel_widths(code):
    """Stripe counts on both sides of the GF(256) kernel split for each
    encode product: the parity rows (MSRR, one column per stripe), the rack
    maps W_r (dbar columns per stripe) and the twiddle E (nbar * dbar), with
    the widths past the split up to the next multiple of 8, which the
    bit-sliced kernel reads in place."""
    p = code.params
    per_stripe = [1] if code.code_type == MSRR else [p.dbar, p.nbar * p.dbar]
    widths = set()
    for c in per_stripe:
        split = _GF256_NARROW // c
        widths.update(range(split, split + 9))
    return sorted(widths)


# a code and a width drawn for it
ROUTE_CASES = st.sampled_from(ROUTE_CODES).flatmap(
    lambda code: st.tuples(st.just(code), route_widths(code))
)


def route_block(code, width, seed, extremes, transposed):
    """A (B x width) data block: uniform symbols, or only 0, 1 and q - 1;
    laid out stripe-major (a transposed view, as ``rarc encode`` passes
    it) or row-major."""
    rng = np.random.default_rng(seed)
    q = code.field.q
    if extremes:
        values = rng.choice(np.array([0, 1, q - 1]), size=(width, code.B))
    else:
        values = rng.integers(0, q, size=(width, code.B))
    block = values.astype(code.field.np_dtype).T
    return block if transposed else np.ascontiguousarray(block)


@settings(max_examples=60, deadline=None)
@given(
    ROUTE_CASES,
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
def test_encode_routes_equal_the_generator_product(case, seed, extremes, transposed):
    code, width = case
    data = route_block(code, width, seed, extremes, transposed)
    got = code.encode_stripes(data)
    assert got.dtype == code.field.np_dtype
    assert got.shape == (code.params.n * code.alpha, width)
    assert np.array_equal(got, code.field.np_matmul(generator(code), data))


ROUTE_IDS = [f"{c.code_type}-n{c.params.n}-k{c.params.k}-d{c.params.dbar}" for c in ROUTE_CODES]


@pytest.mark.parametrize("code", ROUTE_CODES, ids=ROUTE_IDS)
def test_encode_split_widths_equal_the_generator_product(code):
    # the fixed widths the strategy above samples and the kernel split's
    # widths, for every code
    split = mbrr_module._DENSE_STRIPES
    for width in (0, 1, split, split + 1, *kernel_widths(code)):
        for transposed in (False, True):
            data = route_block(code, width, width, False, transposed)
            assert np.array_equal(
                code.encode_stripes(data), code.field.np_matmul(generator(code), data)
            )


ROUTE_MBRR = [c for c in ROUTE_CODES if c.code_type == MBRR]


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize(
    "code", ROUTE_MBRR, ids=[f"n{c.params.n}-k{c.params.k}-d{c.params.dbar}" for c in ROUTE_MBRR]
)
def test_mbrr_encode_passes_match_one_pass(code, block):
    # a budget one byte short of block + 1 stripes of code symbols gives
    # passes of block stripes; 65 and 71 stripes end with a partial pass
    # for every block size, 70 fills its last pass of 7 exactly
    p = code.params
    budget = (block + 1) * p.n * p.dbar * code.field.symbol_width - 1
    for width in (65, 70, 71):
        data = route_block(code, width, width, False, True)
        with mock.patch.object(mbrr_module, "_ENCODE_BYTES", budget):
            passes = code.encode_stripes(data)
        assert np.array_equal(passes, code.field.np_matmul(generator(code), data))


# the production shape over GF(256), uint8 symbols, and a small shape over
# GF(257), whose symbols take uint16
PASS_CODES = [
    bulk.build_code(MBRR, SystemParams(n=50, u=5, k=44, dbar=4), Gf256Field(5)),
    bulk.build_code(MBRR, SystemParams(n=12, u=4, k=10, dbar=2), PrimeField(257, 4)),
]


@pytest.mark.parametrize(
    "code,dtype", zip(PASS_CODES, [np.uint8, np.uint16]), ids=["gf256", "gf257"]
)
def test_mbrr_encode_across_the_pass_boundary(code, dtype):
    # one pass holds _ENCODE_BYTES of code symbols: 5,242 stripes at
    # (50,5,44,4) over GF(256), 21,845 at (12,4,10,2) over GF(257)
    p = code.params
    step = mbrr_module._ENCODE_BYTES // (p.n * p.dbar * code.field.symbol_width)
    assert code.field.np_dtype == dtype
    for width in (step - 1, step, step + 1, 2 * step + 3):
        data = route_block(code, width, width, False, True)
        assert np.array_equal(code.encode_stripes(data), code.field.np_matmul(generator(code), data))
