import itertools
import random

import pytest

from rarc.errors import ParameterError, SingularSystemError, VerificationError
from rarc.field import make_field
from rarc.msrr import MsrrCode, check_exponents
from rarc.params import SystemParams, cutset_bound, msrr_point

from codec_oracle import check_matrix, rank


def build(n, u, k, dbar, preference="prime", **kwargs):
    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
    return MsrrCode.build(p, make_field(n, u, preference), **kwargs)


def random_message(code, rng):
    return [rng.randrange(code.field.q) for _ in range(code.B)]


# ---------------------------------------------------------------------------
# check-exponent set
# ---------------------------------------------------------------------------


def test_exponent_set_hand_instance():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    assert check_exponents(p) == [0, 1, 2]  # [0,1] plus strides {0,2}


def test_exponent_set_table_scale():
    p = SystemParams(n=50, u=5, k=44, dbar=4)
    t = check_exponents(p)
    # enumerate the definition independently
    expected = sorted(set(range(50 - 44)) | {5 * i for i in range(10 - 4)})
    assert t == expected
    assert len(t) == 50 - 40  # n - B


def test_exponent_set_all_racks_helping():
    # dbar = nbar - 1 = kbar collapses the stride block into the low block
    p = SystemParams(n=8, u=2, k=6, dbar=3)
    assert check_exponents(p) == [0, 1]
    assert len(check_exponents(p)) == 8 - (6 - 3 + 3)


# ---------------------------------------------------------------------------
# build and information set
# ---------------------------------------------------------------------------


def literal_information_greedy(F, H):
    """Reference: walk columns left to right, move a column to the
    information set whenever the remaining pool keeps full row rank."""
    pool = list(range(H.cols))
    info = []
    for c in range(H.cols):
        trial = [x for x in pool if x != c]
        if rank(F, H.take_columns(trial)) == H.rows:
            info.append(c)
            pool = trial
    return info, pool


@pytest.mark.parametrize(
    "n,u,k,dbar,preference",
    [
        (6, 2, 4, 1, "prime"),
        (6, 3, 4, 0, "prime"),
        (8, 2, 6, 3, "prime"),
        (10, 5, 9, 1, "gf256"),
        (12, 3, 8, 2, "prime"),
    ],
)
def test_information_set_matches_literal_greedy(n, u, k, dbar, preference):
    code = build(n, u, k, dbar, preference)
    info, pool = literal_information_greedy(code.field, check_matrix(code))
    assert code.info_set == info
    assert code.parity_set == pool


def test_build_validates_field_compatibility():
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    with pytest.raises(ParameterError):
        MsrrCode.build(p, make_field(12, 3, "prime"))  # wrong rack size
    with pytest.raises(ParameterError):
        MsrrCode.build(SystemParams(n=12, u=2, k=10, dbar=1), make_field(6, 2, "prime"))


def test_parity_submatrix_invertible():
    code = build(6, 2, 4, 1)
    parity = check_matrix(code).take_columns(code.parity_set)
    assert rank(code.field, parity) == len(code.parity_set)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_zero_message_gives_zero_codeword():
    code = build(6, 2, 4, 1)
    assert code.encode([0] * code.B) == [0] * 6


def test_encode_satisfies_every_check():
    rng = random.Random(31)
    for code in (build(6, 2, 4, 1), build(10, 5, 9, 1, "gf256")):
        for _ in range(25):
            assert code.parity_ok(code.encode(random_message(code, rng)))


def test_encode_is_systematic_and_linear():
    rng = random.Random(37)
    code = build(6, 2, 4, 1)
    m1, m2 = random_message(code, rng), random_message(code, rng)
    c1, c2 = code.encode(m1), code.encode(m2)
    for pos, sym in zip(code.info_set, m1):
        assert c1[pos] == sym
    msum = [code.field.add(a, b) for a, b in zip(m1, m2)]
    assert code.encode(msum) == [code.field.add(a, b) for a, b in zip(c1, c2)]


def test_encode_rejects_wrong_length():
    code = build(6, 2, 4, 1)
    with pytest.raises(ParameterError):
        code.encode([0] * (code.B + 1))


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_round_trip_and_full_supply():
    rng = random.Random(41)
    code = build(6, 2, 4, 1)
    m = random_message(code, rng)
    cw = code.encode(m)
    assert code.reconstruct(list(enumerate(cw))) == m  # all n symbols
    assert code.reconstruct([(i, cw[i]) for i in (0, 1, 4, 5)]) == m


def test_reconstruct_every_k_subset():
    rng = random.Random(43)
    code = build(6, 2, 4, 1)
    for _ in range(10):
        m = random_message(code, rng)
        cw = code.encode(m)
        for subset in itertools.combinations(range(6), 4):
            assert code.reconstruct([(i, cw[i]) for i in subset]) == m


def test_reconstruct_needs_k_symbols():
    code = build(6, 2, 4, 1)
    cw = code.encode([1, 2, 3])
    with pytest.raises(ParameterError):
        code.reconstruct([(i, cw[i]) for i in range(3)])
    with pytest.raises(ParameterError):
        code.reconstruct([(0, 1), (0, 1), (2, 3), (4, 5)])
    with pytest.raises(ParameterError):
        code.reconstruct([(9, 1), (1, 1), (2, 3), (4, 5)])


def test_reconstruct_flags_inconsistent_symbols():
    code = build(6, 2, 4, 1)
    cw = code.encode([1, 2, 3])
    bad = list(enumerate(cw))
    bad[0] = (0, code.field.add(cw[0], 1))
    with pytest.raises((SingularSystemError, VerificationError)):
        code.reconstruct(bad)


# ---------------------------------------------------------------------------
# helper responses and the rack-sum code
# ---------------------------------------------------------------------------


def test_helper_response_examples():
    code = build(6, 2, 4, 1)
    assert code.helper_response(0, [0, 0]) == 0
    assert code.helper_response(1, [3, 5]) == 1  # 3 + 5 mod 7


def test_rack_sums_satisfy_stride_checks():
    rng = random.Random(47)
    code = build(8, 2, 5, 1)
    F = code.field
    p = code.params
    for _ in range(20):
        cw = code.encode(random_message(code, rng))
        sums = [
            code.helper_response(e, cw[e * p.u : (e + 1) * p.u]) for e in range(p.nbar)
        ]
        for i in range(p.nbar - p.dbar):
            acc = 0
            for e in range(p.nbar):
                acc = F.add(acc, F.mul(F.pow(code.rack_points[e], i), sums[e]))
            assert acc == 0


def test_helper_response_requires_full_rack():
    code = build(6, 2, 4, 1)
    with pytest.raises(ParameterError):
        code.helper_response(0, [1])


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_zero_codeword():
    code = build(6, 2, 4, 1)
    assert code.repair((0, 0), [0], [(1, 0)]) == 0


def test_repair_exhaustive_small_instance():
    rng = random.Random(53)
    code = build(6, 2, 4, 1)
    p = code.params
    for _ in range(10):
        cw = code.encode(random_message(code, rng))
        for idx in range(p.n):
            e_star, g_star = p.node_pair(idx)
            local = [cw[p.node_index(e_star, g)] for g in range(p.u) if g != g_star]
            for helper_set in itertools.combinations(
                [e for e in range(p.nbar) if e != e_star], p.dbar
            ):
                helpers = [
                    (h, code.helper_response(h, cw[h * p.u : (h + 1) * p.u]))
                    for h in helper_set
                ]
                assert code.repair((e_star, g_star), local, helpers) == cw[idx]


def test_repair_helper_sets_agree():
    rng = random.Random(59)
    code = build(8, 2, 5, 1)
    p = code.params
    cw = code.encode(random_message(code, rng))
    local = [cw[1]]
    results = set()
    for h in range(1, p.nbar):
        s = code.helper_response(h, cw[h * p.u : (h + 1) * p.u])
        results.add(code.repair((0, 0), local, [(h, s)]))
    assert results == {cw[0]}


def test_repair_with_every_other_rack_helping():
    rng = random.Random(61)
    code = build(8, 2, 6, 3)  # dbar = nbar - 1: the single maximal helper set
    p = code.params
    cw = code.encode(random_message(code, rng))
    helpers = [
        (h, code.helper_response(h, cw[h * p.u : (h + 1) * p.u])) for h in (1, 2, 3)
    ]
    assert code.repair((0, 1), [cw[0]], helpers) == cw[1]


def test_repair_validations():
    code = build(6, 2, 4, 1)
    with pytest.raises(ParameterError):
        code.repair((0, 0), [1], [(0, 2)])  # failed rack helping itself
    with pytest.raises(ParameterError):
        code.repair((0, 0), [1], [(1, 2), (2, 3)])  # too many helpers
    with pytest.raises(ParameterError):
        code.repair((0, 0), [1, 2], [(1, 2)])  # wrong local count
    with pytest.raises(ParameterError):
        build(6, 2, 4, 0).repair((0, 0), [1], [])  # dbar=0 must use repair_local


# ---------------------------------------------------------------------------
# local-only repair (dbar = 0)
# ---------------------------------------------------------------------------


def test_repair_local_hand_value():
    code = build(6, 3, 4, 0)
    assert code.repair_local((0, 2), [1, 2]) == 4  # -(1+2) mod 7


def test_repair_local_exhaustive():
    rng = random.Random(67)
    code = build(6, 3, 4, 0)
    p = code.params
    for _ in range(20):
        cw = code.encode(random_message(code, rng))
        for idx in range(p.n):
            e_star, g_star = p.node_pair(idx)
            local = [cw[p.node_index(e_star, g)] for g in range(p.u) if g != g_star]
            assert code.repair_local((e_star, g_star), local) == cw[idx]


def test_repair_local_requires_no_helpers():
    with pytest.raises(ParameterError):
        build(6, 2, 4, 1).repair_local((0, 0), [1])


# ---------------------------------------------------------------------------
# minimum distance and the step-down constructor flag
# ---------------------------------------------------------------------------


def test_minimum_distance_local_code():
    # u does not divide k: distance meets n - k + 1 exactly
    assert build(6, 3, 4, 0).minimum_distance() == 3


def test_minimum_distance_step_down_reaches_better_bound():
    # u | k: building with k - 1 keeps the dimension but gains one distance
    code = build(6, 2, 4, 0, step_down_aligned_k=True)
    assert code.params.k == 3
    assert code.B == 2  # dimension unchanged by the step-down
    assert code.minimum_distance() == 4  # n - k + 2 for the original k


def test_minimum_distance_never_below_singleton_gap():
    assert build(6, 2, 4, 1).minimum_distance() >= 3  # n - k + 1


def test_step_down_flag_guards():
    with pytest.raises(ParameterError):
        build(6, 2, 4, 1, step_down_aligned_k=True)  # dbar != 0
    with pytest.raises(ParameterError):
        build(6, 3, 4, 0, step_down_aligned_k=True)  # u does not divide k


def test_minimum_distance_guard_refuses_large_instances():
    with pytest.raises(ParameterError):
        build(50, 5, 44, 4, "gf256").minimum_distance()


# ---------------------------------------------------------------------------
# ties to the bound
# ---------------------------------------------------------------------------


def test_dimension_achieves_cutset_bound():
    for n, u, k, dbar in [(6, 2, 4, 1), (8, 2, 5, 1), (12, 3, 8, 2), (6, 3, 4, 0)]:
        code = build(n, u, k, dbar)
        point = msrr_point(code.params)
        assert code.B == cutset_bound(code.params, point.alpha, point.beta)


def test_codeword_symbol_layout_is_rack_major():
    code = build(6, 2, 4, 1)
    # the degree-1 check row is exactly the (e, g)-ordered point family, so
    # codeword position e*u + g belongs to node (e, g)
    assert 1 in code.T
    assert code.checks[code.T.index(1)].tolist() == code.lam
    rng = random.Random(71)
    cw = code.encode(random_message(code, rng))
    acc = 0
    for lam_c, sym in zip(code.lam, cw):
        acc = code.field.add(acc, code.field.mul(lam_c, sym))
    assert acc == 0
