import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarc import field as field_module
from rarc.errors import ParameterError
from rarc.field import (
    _GF256_NARROW,
    GF256_MODULUS,
    Gf256Field,
    PrimeField,
    eval_points,
    field_from_descriptor,
    make_field,
    rack_points,
    smallest_prime_field,
)

from field_oracle import clmul, oracle, order, smallest_primitive


def scan_smallest_prime(n, u):
    # independent oracle: walk the integers, trial-divide, check u | (p-1)
    p = n + 1
    while True:
        if p > 1 and all(p % d for d in range(2, p)) and (p - 1) % u == 0:
            return p
        p += 1


# ---------------------------------------------------------------------------
# make_field
# ---------------------------------------------------------------------------


def test_make_field_gf256_for_rack_of_five():
    f = make_field(50, 5, "gf256")
    assert f.kind == "gf256"
    assert f.q == 256
    assert (f.q - 1) % f.u == 0


@pytest.mark.parametrize("n,u,expected", [(6, 2, 7), (6, 3, 7), (12, 4, 13), (10, 2, 11)])
def test_make_field_prime_scans_upward(n, u, expected):
    assert scan_smallest_prime(n, u) == expected
    f = make_field(n, u, "prime")
    assert f.kind == "prime"
    assert f.q == expected
    assert f.q > n and (f.q - 1) % u == 0


def test_make_field_auto_prefers_gf256_when_legal():
    assert make_field(50, 5, "auto").kind == "gf256"
    # 2 does not divide 255, so auto must fall back to a prime
    assert make_field(6, 2, "auto").kind == "prime"


def test_make_field_rejections():
    with pytest.raises(ParameterError):
        make_field(6, 2, "gf256")  # u does not divide 255
    with pytest.raises(ParameterError):
        make_field(260, 5, "gf256")  # too many nodes for one byte
    with pytest.raises(ParameterError):
        make_field(6, 1, "auto")  # single-node racks are rejected
    with pytest.raises(ParameterError):
        make_field(7, 2, "auto")  # u must divide n
    with pytest.raises(ParameterError):
        make_field(1, 2, "auto")
    with pytest.raises(ParameterError):
        make_field(6, 2, "sporadic")
    # symbols are uint16: p = 65537 would wrap the symbol 65536 to 0
    for n in (65522, 10**12):
        with pytest.raises(ParameterError, match=rf"no prime p > {n} .* is at most 65536"):
            make_field(n, 2, "prime")
    for p in (65537, 1_000_003):
        with pytest.raises(ParameterError, match=f"prime field size {p} exceeds 65536"):
            PrimeField(p, 2)


def test_smallest_prime_matches_scan_oracle():
    for n, u in [(6, 2), (6, 3), (30, 5), (100, 4), (130, 2), (300, 2)]:
        assert smallest_prime_field(n, u) == scan_smallest_prime(n, u)


# ---------------------------------------------------------------------------
# primitive elements and eta
# ---------------------------------------------------------------------------


def test_find_primitive_small_primes():
    assert make_field(6, 2, "prime").xi == 3  # p = 7
    assert make_field(10, 2, "prime").xi == 2  # p = 11


def test_find_primitive_is_smallest_by_brute_force():
    for f in (make_field(12, 3, "prime"), make_field(6, 2, "prime")):
        orders = {a: order(oracle(f), a) for a in range(1, f.q)}
        smallest = min(a for a, o in orders.items() if o == f.q - 1)
        assert f.xi == smallest


def test_gf256_canonical_generator_is_verified_primitive():
    f = Gf256Field(5)
    assert f.modulus == GF256_MODULUS
    assert f.xi == 2
    assert order(oracle(f), f.xi) == 255


def test_derive_eta_examples():
    f = make_field(6, 2, "prime")  # p=7, xi=3
    assert f.eta == 6  # 3^3 mod 7
    f3 = make_field(6, 3, "prime")
    assert f3.eta == 2  # 3^2 mod 7
    assert f.np_exp(f.q - 1) == 1  # xi**((q-1)/u) at u = 1


def test_eta_order_checked_over_divisors():
    for f in (make_field(6, 2, "prime"), make_field(50, 5, "gf256"), make_field(12, 3, "prime")):
        O = oracle(f)
        assert order(O, f.eta) == f.u
        for m in range(1, f.u):
            assert O.pow(f.eta, m) != 1
        assert O.pow(f.eta, f.u) == 1


def test_derive_eta_requires_divisibility():
    with pytest.raises(ParameterError, match="u=4 does not divide q-1=6"):
        PrimeField(7, 4)
    with pytest.raises(ParameterError, match="u=2 does not divide q-1=255"):
        Gf256Field(2)


# one field of each kind with every table checked entry by entry: p = 55441
# has the largest least primitive root below 2**16, 38, and 65521 is the
# largest prime the uint16 symbols hold
TABLE_FIELDS = [Gf256Field(5)] + [PrimeField(p, 2) for p in (7, 13, 137, 55441, 65521)]


@pytest.mark.parametrize("f", TABLE_FIELDS, ids=lambda f: str(f.q))
def test_field_tables_exhaustive(f):
    O = oracle(f)
    order_ = f.q - 1
    nonzero = np.arange(1, f.q)
    # log inverts exp, whose period is exactly q - 1: its q - 1 entries are
    # the nonzero elements, each once, and each is xi times the one before
    assert f.log[f.exp].tolist() == list(range(order_))
    assert sorted(f.exp.tolist()) == nonzero.tolist()
    assert f.exp.tolist() == [O.pow(f.xi, i) for i in range(order_)]
    assert f.np_exp(np.arange(-order_, 2 * order_)).tolist() == f.exp.tolist() * 3
    assert f.xi == smallest_primitive(O)
    assert f.eta == O.pow(f.xi, order_ // f.u)
    assert not f.exp.flags.writeable and not f.log.flags.writeable
    inverses = f.np_inv(nonzero)
    assert [O.mul(a, b) for a, b in zip(nonzero.tolist(), inverses.tolist())] == [1] * order_
    for zero in (0, np.array([3, 0, 1])):
        with pytest.raises(ZeroDivisionError):
            f.np_inv(zero)
    if f.q <= 256:
        a, b = np.divmod(np.arange(f.q * f.q), f.q)  # every pair
    else:
        edges = [0, 1, 2, f.q - 2, f.q - 1]
        a, b = np.random.default_rng(f.q).integers(0, f.q, (2, 4096))
        a, b = np.concatenate([a, np.repeat(edges, 5)]), np.concatenate([b, np.tile(edges, 5)])
    a, b = a.astype(f.np_dtype), b.astype(f.np_dtype)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.np_add(a, b).tolist() == [O.add(x, y) for x, y in pairs]
    assert f.np_mul(a, b).tolist() == [O.mul(x, y) for x, y in pairs]
    assert f.np_neg(a).tolist() == [O.neg(x) for x, _ in pairs]
    assert f.np_mul(inverses, nonzero).tolist() == [1] * order_


# ---------------------------------------------------------------------------
# evaluation points
# ---------------------------------------------------------------------------


def test_eval_points_hand_values():
    f = make_field(6, 2, "prime")  # xi=3, eta=6 over p=7
    lam = eval_points(f, 3)
    assert lam[0] == 1  # xi^0 * eta^0
    assert lam[3] == 4  # xi^1 * eta^1 = 18 mod 7
    assert lam.tolist() == [1, 6, 3, 4, 2, 5]
    assert not lam.flags.writeable
    assert rack_points(f, 3).tolist() == [1, 2, 4]  # xi^(e*u) = 9**e mod 7


def test_eval_points_distinct_and_nonzero():
    for f, nbar in [(make_field(6, 2, "prime"), 3), (make_field(50, 5, "gf256"), 10)]:
        lam = eval_points(f, nbar).tolist()
        assert len(lam) == nbar * f.u
        assert 0 not in lam
        assert len(set(lam)) == len(lam)
    # one rack more than (q - 1)/u repeats a point
    for f, nbar in [(make_field(6, 2, "prime"), 4), (make_field(50, 5, "gf256"), 52)]:
        eval_points(f, nbar - 1)
        with pytest.raises(ParameterError, match="evaluation points collide"):
            eval_points(f, nbar)


def test_rack_power_identity():
    # lam^u depends only on the rack index
    for f, nbar in [(make_field(6, 3, "prime"), 2), (make_field(20, 5, "gf256"), 4)]:
        O = oracle(f)
        lam = eval_points(f, nbar)
        for e in range(nbar):
            expected = O.pow(f.xi, e * f.u)
            assert rack_points(f, nbar)[e] == expected
            for g in range(f.u):
                assert O.pow(lam[e * f.u + g], f.u) == expected


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------


def test_prime_field_axioms_exhaustive():
    f = make_field(6, 2, "prime")  # p = 7: small enough for every triple
    a, b, c = (x.ravel().astype(f.np_dtype) for x in np.indices((f.q,) * 3))
    add, mul, neg = f.np_add, f.np_mul, f.np_neg
    assert (add(a, 0) == a).all() and (mul(a, 1) == a).all()
    assert not add(a, neg(a)).any()
    assert (add(a, b) == add(b, a)).all() and (mul(a, b) == mul(b, a)).all()
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    nonzero = np.arange(1, f.q)
    assert (mul(nonzero, f.np_inv(nonzero)) == 1).all()


def test_gf256_axioms_random_and_inverses_exhaustive():
    f = make_field(50, 5, "gf256")
    a, b, c = np.random.default_rng(7).integers(0, 256, (3, 500)).astype(np.uint8)
    add, mul = f.np_add, f.np_mul
    assert (add(add(a, b), c) == add(a, add(b, c))).all()
    assert (mul(mul(a, b), c) == mul(a, mul(b, c))).all()
    assert (mul(a, add(b, c)) == add(mul(a, b), mul(a, c))).all()
    nonzero = np.arange(1, 256)
    assert (mul(nonzero, f.np_inv(nonzero)) == 1).all()
    with pytest.raises(ZeroDivisionError):
        f.np_inv(0)


def test_pow_matches_repeated_multiplication():
    for f in (make_field(6, 2, "prime"), make_field(50, 5, "gf256")):
        rng = random.Random(11)
        for _ in range(50):
            e = rng.randrange(-60, 60)
            acc = 1
            for _ in range(e % (f.q - 1)):
                acc = oracle(f).mul(acc, f.xi)
            assert f.np_exp(e) == acc
        assert f.np_exp(np.array([0, f.q - 1, 1 - f.q])).tolist() == [1, 1, 1]


# ---------------------------------------------------------------------------
# serialization and batch kernels
# ---------------------------------------------------------------------------


def test_symbol_width_rule():
    assert make_field(50, 5, "gf256").symbol_width == 1
    assert make_field(6, 2, "prime").symbol_width == 1  # p = 7 fits a byte
    assert make_field(300, 2, "prime").symbol_width == 2  # p = 307


def test_field_from_descriptor_round_trip():
    for f in (make_field(50, 5, "gf256"), make_field(6, 2, "prime")):
        g = field_from_descriptor(f.kind, f.modulus, f.u)
        assert (g.kind, g.q, g.xi, g.eta) == (f.kind, f.q, f.xi, f.eta)
    with pytest.raises(ParameterError):
        field_from_descriptor("gf256", 0x11B, 5)


def test_np_kernels_match_scalar_ops():
    rng = random.Random(13)
    for f in (make_field(50, 5, "gf256"), make_field(10, 2, "prime"), make_field(300, 2, "prime")):
        O = oracle(f)
        m, k, n = 4, 5, 6
        A = [[rng.randrange(f.q) for _ in range(k)] for _ in range(m)]
        B = [[rng.randrange(f.q) for _ in range(n)] for _ in range(k)]
        got = f.np_matmul(np.array(A, dtype=f.np_dtype), np.array(B, dtype=f.np_dtype))
        for i in range(m):
            for j in range(n):
                acc = 0
                for t in range(k):
                    acc = O.add(acc, O.mul(A[i][t], B[t][j]))
                assert int(got[i, j]) == acc
        a = np.array([rng.randrange(f.q) for _ in range(20)], dtype=f.np_dtype)
        b = np.array([rng.randrange(f.q) for _ in range(20)], dtype=f.np_dtype)
        assert [int(v) for v in f.np_add(a, b)] == [O.add(x, y) for x, y in zip(a, b)]
        assert [int(v) for v in f.np_mul(a, b)] == [O.mul(x, y) for x, y in zip(a, b)]
        assert [int(v) for v in f.np_neg(a)] == [O.neg(x) for x in a]


# GF(256), the two escape-path primes of byte packing, and a two-byte prime
KERNEL_FIELDS = [Gf256Field(5), PrimeField(131, 2), PrimeField(137, 4), PrimeField(307, 2)]


# GF(256) multiplies up to _GF256_NARROW columns by table gathers and
# wider ones in uint64 words: _GF256_NARROW + 8 columns are read in place,
# _GF256_NARROW + 1 are padded
WIDTHS = st.one_of(
    st.integers(0, 7), st.sampled_from([_GF256_NARROW, _GF256_NARROW + 1, _GF256_NARROW + 8])
)


@st.composite
def matmul_case(draw, fields=KERNEL_FIELDS, widths=WIDTHS):
    f = draw(st.sampled_from(fields))
    m, k, n = draw(st.integers(0, 6)), draw(st.integers(0, 8)), draw(widths)
    # 0 and 1 are the entries the GF(256) kernel special-cases
    entry = st.one_of(st.sampled_from([0, 1]), st.integers(0, f.q - 1))

    def matrix(rows, cols):
        if rows * cols > 1024:
            # more entries than Hypothesis draws for one list: seeded symbols
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            return rng.integers(0, f.q, (rows, cols)).astype(f.np_dtype)
        flat = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat, dtype=f.np_dtype).reshape(rows, cols)

    a, b = matrix(m, k), matrix(k, n)
    if m and draw(st.booleans()):
        a[draw(st.integers(0, m - 1)), :] = 0
    if k and draw(st.booleans()):
        a[:, draw(st.integers(0, k - 1))] = 0
    return f, a, b


@settings(max_examples=200, deadline=None)
@given(matmul_case())
def test_np_matmul_matches_scalar_triple_loop(case):
    f, a, b = case
    O = oracle(f)
    m, k = a.shape
    n = b.shape[1]
    expected = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for t in range(k):
                expected[i][j] = O.add(expected[i][j], O.mul(int(a[i, t]), int(b[t, j])))
    got = f.np_matmul(a, b)
    assert got.shape == (m, n)
    assert got.dtype == f.np_dtype
    assert got.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(matmul_case(KERNEL_FIELDS[:1], st.integers(0, 7)), st.integers(1, 40))
def test_gf256_gather_in_row_blocks_matches_wide_kernel(case, gather):
    f, a, b = case
    # padding b past _GF256_NARROW columns sends it through the wide kernel;
    # a gather budget below the inner axis times the width splits the columns
    walked = f.np_matmul(a, np.concatenate([b, np.zeros((b.shape[0], _GF256_NARROW), np.uint8)], 1))
    with mock.patch.object(field_module, "_GF256_GATHER", gather):
        got = f.np_matmul(a, b)
    assert got.tolist() == walked[:, : b.shape[1]].tolist()


def test_gf256_gather_bounds_its_temporaries_at_a_long_inner_axis():
    # one row of 2,048 x _GF256_NARROW products would take tens of MB of
    # index and product temporaries; blocks of columns keep each pass
    # within _GF256_GATHER products, 11 bytes each
    f = KERNEL_FIELDS[0]
    rng = np.random.default_rng(2048)
    a = rng.integers(0, 256, (3, 2048), dtype=np.uint8)
    b = rng.integers(0, 256, (2048, _GF256_NARROW), dtype=np.uint8)
    tracemalloc.start()
    try:
        got = f._gather_matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 11 * field_module._GF256_GATHER + got.nbytes
    assert got.tolist() == f._bitsliced_matmul(a, b).tolist()


@pytest.mark.parametrize("width", [256, 259])
def test_gf256_wide_kernel_every_product(width):
    # 256 columns are read as uint64 words in place, 259 through the padded copy
    f = KERNEL_FIELDS[0]
    row = np.arange(width) % 256
    got = f.np_matmul(np.arange(256, dtype=np.uint8)[:, None], row.astype(np.uint8)[None, :])
    assert got.tolist() == f._mul_table[:, row].tolist()
    assert got.tolist() == [[clmul(c, int(x)) for x in row] for c in range(256)]


@pytest.mark.parametrize("layout", ["column slice", "transposed"])
@pytest.mark.parametrize("top", [2, 256])
def test_gf256_wide_kernel_strided_rows_and_bit_entries(layout, top):
    # a non-contiguous b of a width divisible by 8 still takes the padded
    # copy; entries of a below 2 leave the kernel no doubling step to run
    f = KERNEL_FIELDS[0]
    rng = np.random.default_rng(top)
    m, k, n = 5, 6, _GF256_NARROW + 16
    a = rng.integers(0, top, (m, k), dtype=np.uint8)
    if layout == "column slice":
        b = rng.integers(0, 256, (k, n + 8), dtype=np.uint8)[:, 3 : n + 3]
    else:
        b = rng.integers(0, 256, (n, k), dtype=np.uint8).T
    assert not b.flags.c_contiguous
    O = oracle(f)
    expected = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for t in range(k):
                expected[i][j] = O.add(expected[i][j], O.mul(int(a[i, t]), int(b[t, j])))
    assert f.np_matmul(a, b).tolist() == expected


# (p, inner dimension): at p = 137 float32 holds the sum of 907 =
# 2**24 // 136**2 products of p-1 exactly, and 908 take float64; at p = 307
# the boundary is 179; at p = 65521 one product (p-1)**2 > 2**24 already
# takes float64
@pytest.mark.parametrize(
    "p,inner", [(137, 907), (137, 908), (137, 1815), (307, 179), (307, 180), (65521, 2)]
)
@pytest.mark.parametrize("odd", [False, True])
def test_prime_matmul_exact_at_the_float32_boundary(p, inner, odd):
    # Every entry p-1 makes every partial sum as large as it can get.
    # Those sums are all divisible by 4, which float32 holds up to 2**26,
    # so ``odd`` also swaps one product for (p-2)**2: an odd sum above 2**24
    # that float32 cannot hold.
    f = PrimeField(p, 2)
    m, n = 2, 3
    a = np.full((m, inner), p - 1, dtype=f.np_dtype)
    b = np.full((inner, n), p - 1, dtype=f.np_dtype)
    if odd:
        a[:, 0] = p - 2
        b[0, :] = p - 2
    expected = [
        [sum(int(a[i, t]) * int(b[t, j]) for t in range(inner)) % p for j in range(n)]
        for i in range(m)
    ]
    got = f.np_matmul(a, b)
    assert got.dtype == f.np_dtype
    assert got.tolist() == expected
