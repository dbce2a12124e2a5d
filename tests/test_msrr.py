import itertools
import random

import numpy as np
import pytest

from rarc import bulk
from rarc.errors import ParameterError, SingularSystemError, VerificationError
from rarc.field import make_field
from rarc.msrr import MsrrCode, check_exponents
from rarc.params import SystemParams, cutset_bound, msrr_point
from rarc.sim import Cluster, RepairPolicy

from codec_oracle import check_matrix, minimum_distance, rank
from codec_oracle import encode_column as encode
from field_oracle import oracle


def build(n, u, k, dbar, preference="prime"):
    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
    return MsrrCode.build(p, make_field(n, u, preference))


def random_message(code, rng):
    return [rng.randrange(code.field.q) for _ in range(code.B)]


def cluster_repair(code, codeword, failed, helpers):
    """The symbol a Cluster holding ``codeword`` as one stripe rebuilds."""
    cluster = Cluster(code, code.field.symbol_array(codeword).reshape(-1, 1))
    cluster.fail_node(failed)
    cluster.run_repair(RepairPolicy.explicit(helpers))
    return cluster.node_data(failed)[0]


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
    assert code.info_set.tolist() == info
    assert code.parity_set.tolist() == pool


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
    assert encode(code, [0] * code.B) == [0] * 6


def test_encode_satisfies_every_check():
    rng = random.Random(31)
    for code in (build(6, 2, 4, 1), build(10, 5, 9, 1, "gf256")):
        data = code.field.symbol_array([random_message(code, rng) for _ in range(25)]).T
        assert not code.field.np_matmul(code.checks, code.encode_stripes(data)).any()


def test_encode_is_systematic_and_linear():
    rng = random.Random(37)
    code = build(6, 2, 4, 1)
    m1, m2 = random_message(code, rng), random_message(code, rng)
    c1, c2 = encode(code, m1), encode(code, m2)
    for pos, sym in zip(code.info_set, m1):
        assert c1[pos] == sym
    O = oracle(code.field)
    msum = [O.add(a, b) for a, b in zip(m1, m2)]
    assert encode(code, msum) == [O.add(a, b) for a, b in zip(c1, c2)]


def test_encode_rejects_wrong_length():
    code = build(6, 2, 4, 1)
    with pytest.raises(ParameterError):
        code.encode_stripes(np.zeros((code.B + 1, 1), dtype=code.field.np_dtype))


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_round_trip_and_full_supply():
    rng = random.Random(41)
    code = build(6, 2, 4, 1)
    m = random_message(code, rng)
    cw = encode(code, m)
    assert code.reconstruct(list(enumerate(cw))) == m  # all n symbols
    assert code.reconstruct([(i, cw[i]) for i in (0, 1, 4, 5)]) == m


def test_reconstruct_every_k_subset():
    rng = random.Random(43)
    code = build(6, 2, 4, 1)
    for _ in range(10):
        m = random_message(code, rng)
        cw = encode(code, m)
        for subset in itertools.combinations(range(6), 4):
            assert code.reconstruct([(i, cw[i]) for i in subset]) == m


def test_reconstruct_needs_k_symbols():
    code = build(6, 2, 4, 1)
    cw = encode(code, [1, 2, 3])
    with pytest.raises(ParameterError):
        code.reconstruct([(i, cw[i]) for i in range(3)])
    with pytest.raises(ParameterError):
        code.reconstruct([(0, 1), (0, 1), (2, 3), (4, 5)])
    with pytest.raises(ParameterError):
        code.reconstruct([(9, 1), (1, 1), (2, 3), (4, 5)])


def test_reconstruct_flags_inconsistent_symbols():
    code = build(6, 2, 4, 1)
    cw = encode(code, [1, 2, 3])
    bad = list(enumerate(cw))
    bad[0] = (0, oracle(code.field).add(cw[0], 1))
    with pytest.raises((SingularSystemError, VerificationError)):
        code.reconstruct(bad)


# ---------------------------------------------------------------------------
# helper responses and the rack-sum code
# ---------------------------------------------------------------------------


def test_helper_response_examples():
    code = build(6, 2, 4, 1)
    body = code.field.symbol_array([[1], [2], [0], [0], [3], [5]])
    assert bulk.repair_stripes(code, (0, 0), [1], body)[2].tolist() == [[0]]
    assert bulk.repair_stripes(code, (0, 0), [2], body)[2].tolist() == [[1]]  # 3 + 5 mod 7


def test_rack_sums_satisfy_stride_checks():
    rng = random.Random(47)
    code = build(8, 2, 5, 1)
    F = code.field
    p = code.params
    body = code.encode_stripes(F.symbol_array([random_message(code, rng) for _ in range(20)]).T)
    # rack e's response to a repair in the next rack, for all 20 stripes
    sums = [
        bulk.repair_stripes(code, ((e + 1) % p.nbar, 0), [e], body)[2][0] for e in range(p.nbar)
    ]
    for i in range(p.nbar - p.dbar):
        acc = np.zeros(20, dtype=F.np_dtype)
        for e in range(p.nbar):
            acc = F.np_add(acc, F.np_mul(oracle(F).pow(code.rack_points[e], i), sums[e]))
        assert not acc.any()


def test_helper_response_requires_full_rack():
    code = build(6, 2, 4, 1)
    with pytest.raises(ParameterError):
        Cluster(code, np.zeros((5, 1), dtype=code.field.np_dtype))  # a node's row missing


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_zero_codeword():
    code = build(6, 2, 4, 1)
    assert cluster_repair(code, [0] * 6, (0, 0), [1]) == 0


def test_repair_exhaustive_small_instance():
    rng = random.Random(53)
    code = build(6, 2, 4, 1)
    p = code.params
    for _ in range(10):
        cw = encode(code, random_message(code, rng))
        for idx in range(p.n):
            e_star, g_star = p.node_pair(idx)
            for helper_set in itertools.combinations(
                [e for e in range(p.nbar) if e != e_star], p.dbar
            ):
                assert cluster_repair(code, cw, (e_star, g_star), helper_set) == cw[idx]


def test_repair_helper_sets_agree():
    rng = random.Random(59)
    code = build(8, 2, 5, 1)
    p = code.params
    cw = encode(code, random_message(code, rng))
    results = set()
    for h in range(1, p.nbar):
        results.add(cluster_repair(code, cw, (0, 0), [h]))
    assert results == {cw[0]}


def test_repair_with_every_other_rack_helping():
    rng = random.Random(61)
    code = build(8, 2, 6, 3)  # dbar = nbar - 1: the single maximal helper set
    p = code.params
    cw = encode(code, random_message(code, rng))
    assert cluster_repair(code, cw, (0, 1), [1, 2, 3]) == cw[1]


def test_rebuild_row_with_every_other_rack_helping_is_all_minus_one():
    # at dbar = nbar - 1 the one stride-u check is exponent 0, the sum of all
    # symbols: the failed symbol is minus every local symbol and helper rack sum
    code = build(12, 4, 9, 2)  # GF(13), nbar = 3
    for failed, helpers in [((0, 1), [1, 2]), ((2, 3), [1, 0])]:
        helper, rebuild = code.repair_maps(failed, helpers)
        assert helper.tolist() == [[1] * 4] * 2
        assert rebuild.tolist() == [[12] * 5]


def test_repair_validations():
    code = build(6, 2, 4, 1)
    cw = [1, 2, 3, 4, 5, 6]
    with pytest.raises(ParameterError):
        cluster_repair(code, cw, (0, 0), [0])  # failed rack helping itself
    with pytest.raises(ParameterError):
        cluster_repair(code, cw, (0, 0), [1, 2])  # too many helpers
    with pytest.raises(ParameterError):
        cluster_repair(code, cw[:5], (0, 0), [1])  # a local row missing
    with pytest.raises(ParameterError):
        cluster_repair(build(6, 2, 4, 0), cw, (0, 0), [1])  # dbar=0 takes no helper rack


# ---------------------------------------------------------------------------
# local-only repair (dbar = 0)
# ---------------------------------------------------------------------------


def test_repair_local_hand_value():
    code = build(6, 3, 4, 0)
    assert cluster_repair(code, [1, 2, 0, 0, 0, 0], (0, 2), []) == 4  # -(1+2) mod 7


def test_repair_local_exhaustive():
    rng = random.Random(67)
    code = build(6, 3, 4, 0)
    p = code.params
    for _ in range(20):
        cw = encode(code, random_message(code, rng))
        for idx in range(p.n):
            e_star, g_star = p.node_pair(idx)
            assert cluster_repair(code, cw, (e_star, g_star), []) == cw[idx]


def test_repair_local_requires_no_helpers():
    with pytest.raises(ParameterError):
        cluster_repair(build(6, 2, 4, 1), [0] * 6, (0, 0), [])  # dbar=1 needs a helper rack


# ---------------------------------------------------------------------------
# minimum distance and the step-down to k - 1
# ---------------------------------------------------------------------------


def test_minimum_distance_local_code():
    # u does not divide k: distance meets n - k + 1 exactly
    assert minimum_distance(build(6, 3, 4, 0)) == 3


def test_minimum_distance_step_down_reaches_better_bound():
    # u | k: building with k - 1 keeps the dimension but gains one distance
    code = build(6, 2, 3, 0)
    assert code.B == build(6, 2, 4, 0).B == 2  # dimension unchanged by the step-down
    assert minimum_distance(code) == 4  # n - k + 2 for the original k


def test_minimum_distance_never_below_singleton_gap():
    assert minimum_distance(build(6, 2, 4, 1)) >= 3  # n - k + 1


def test_minimum_distance_guard_refuses_large_instances():
    with pytest.raises(ParameterError):
        minimum_distance(build(50, 5, 44, 4, "gf256"))


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
    assert code.checks[code.T.index(1)].tolist() == code.lam.tolist()
    rng = random.Random(71)
    cw = encode(code, random_message(code, rng))
    O, acc = oracle(code.field), 0
    for lam_c, sym in zip(code.lam, cw):
        acc = O.add(acc, O.mul(lam_c, sym))
    assert acc == 0
