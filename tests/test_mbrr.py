import itertools
import random

import numpy as np
import pytest

from rarc import bulk, mbrr
from rarc.errors import ParameterError, VerificationError
from rarc.field import PrimeField, make_field
from rarc.linalg import vandermonde_inverse
from rarc.mbrr import MbrrCode, cell_layout, j1_columns, message_size
from rarc.params import SystemParams, cutset_bound, mbrr_point
from rarc.sim import Cluster, RepairPolicy

from codec_oracle import (
    Matrix,
    code_matrix,
    leading_vector_from_storage,
    local_polys,
    mat_mul,
    mbr_codeword_check,
    pack_message,
    poly_eval,
    symmetric_block,
    unpack_message,
)
from field_oracle import oracle


def build(n, u, k, dbar, preference="prime"):
    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
    return MbrrCode.build(p, make_field(n, u, preference))


# the production shapes the benchmark and the CLI examples run
PRODUCTION = (build(50, 5, 44, 4, "gf256"), build(132, 4, 120, 4))


def random_data(code, rng):
    return [rng.randrange(code.field.q) for _ in range(code.B)]


def encode_random(code, rng):
    data = random_data(code, rng)
    M = pack_message(code.params, data)
    return data, M, code_matrix(code, data)


def stored_columns(code, C, rack):
    p = code.params
    return [C[:, p.node_index(rack, g)].tolist() for g in range(p.u)]


def response(code, C, helper, failed_rack):
    """Rack ``helper``'s one symbol for a repair in ``failed_rack``."""
    p = code.params
    others = [e for e in range(p.nbar) if e not in (helper, failed_rack)]
    racks = [helper] + others[: p.dbar - 1]
    return int(bulk.repair_stripes(code, (failed_rack, 0), racks, C.T.reshape(-1, 1))[2][0, 0])


# ---------------------------------------------------------------------------
# message packing
# ---------------------------------------------------------------------------


def test_column_split():
    p = SystemParams(n=10, u=2, k=7, dbar=2)
    assert j1_columns(p) == [1, 3, 5]
    rest = cell_layout(p).data[p.dbar * (p.dbar + 1) // 2 :] // p.dbar
    assert rest.tolist() == [0, 0, 2, 2, 4, 4, 6, 6]


def test_pack_zero_data_gives_zero_matrix():
    p = SystemParams(n=8, u=2, k=5, dbar=1)
    M = pack_message(p, [0] * message_size(p))
    assert all(v == 0 for v in M.ravel())


def test_single_helper_block_is_scalar():
    p = SystemParams(n=8, u=2, k=5, dbar=1)
    assert message_size(p) == (5 - 2) * 1 + 1
    M = pack_message(p, list(range(1, message_size(p) + 1)))
    assert symmetric_block(p, M).tolist() == [[1]]


def test_pack_unpack_round_trip():
    rng = random.Random(73)
    for n, u, k, dbar, preference in [
        (8, 2, 5, 1, "prime"),
        (10, 2, 7, 2, "prime"),
        (12, 3, 8, 2, "prime"),
        (12, 2, 8, 3, "prime"),
        (50, 5, 44, 4, "gf256"),
        (132, 4, 120, 4, "prime"),
    ]:
        p = SystemParams(n=n, u=u, k=k, dbar=dbar)
        f = make_field(n, u, preference)
        data = [rng.randrange(f.q) for _ in range(message_size(p))]
        assert unpack_message(p, pack_message(p, data)) == data


def test_pack_structure_matches_contract():
    p = SystemParams(n=12, u=2, k=8, dbar=3)  # kbar=4 > dbar: zero tail exists
    data = list(range(1, message_size(p) + 1))
    M = pack_message(p, data)
    S = symmetric_block(p, M)
    for i in range(p.dbar):
        for j in range(p.dbar):
            assert S[i, j] == S[j, i]
    # boundary columns past the block are structurally zero
    for col in j1_columns(p)[p.dbar :]:
        assert all(M[i, col] == 0 for i in range(p.dbar))
    # first upper-triangle symbol lands at S[0][0]
    assert S[0, 0] == data[0]


def test_pack_validations():
    p = SystemParams(n=8, u=2, k=5, dbar=1)
    with pytest.raises(ParameterError):
        pack_message(p, [0] * (message_size(p) + 1))
    with pytest.raises(ParameterError):
        cell_layout(SystemParams(n=8, u=2, k=5, dbar=0))
    with pytest.raises(ParameterError):
        symmetric_block(p, [[0] * p.k] * (p.dbar + 1))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_zero_matrix():
    code = build(8, 2, 5, 1)
    C = code_matrix(code, [0] * code.B)
    assert all(v == 0 for v in C.ravel())


def test_encode_single_row_hand_instance():
    # dbar=1, k=2: the stored symbol is m0 + m1 * lam at every node
    code = build(4, 2, 2, 1)
    p, f = code.params, oracle(code.field)
    data = [4, 2]
    M = pack_message(p, data)
    # layout: boundary column 1 holds the block, column 0 the remaining symbol
    assert M.tolist() == [[2, 4]]
    C = code_matrix(code, data)
    for idx in range(p.n):
        lam = code.lam[idx]
        assert C[0, idx] == f.add(2, f.mul(4, lam))


def test_encode_matches_polynomial_evaluation():
    rng = random.Random(79)
    for code in (build(8, 2, 5, 1), build(10, 2, 7, 2), build(10, 5, 8, 1, "gf256")):
        _data, M, C = encode_random(code, rng)
        p, f = code.params, oracle(code.field)
        for idx in range(p.n):
            lam = code.lam[idx]
            for i in range(p.dbar):
                assert C[i, idx] == poly_eval(f, M[i].tolist(), lam)


def test_node_column_has_dbar_symbols():
    rng = random.Random(83)
    code = build(10, 2, 7, 2)
    data, _, _ = encode_random(code, rng)
    assert len(Cluster(code).store(data).node_data(0)) == 2
    assert code.alpha == 2


# ---------------------------------------------------------------------------
# rack-local polynomial family
# ---------------------------------------------------------------------------


def test_local_polys_agree_with_rows_on_own_rack():
    rng = random.Random(89)
    # covers u0 = 0 (empty first index class) and u0 > 0
    for code in (build(8, 2, 5, 1), build(12, 3, 6, 1), build(10, 2, 7, 2), *PRODUCTION):
        _, M, C = encode_random(code, rng)
        p, f = code.params, oracle(code.field)
        for e in range(p.nbar):
            polys = local_polys(code, e, M)
            for g in range(p.u):
                idx = p.node_index(e, g)
                for i in range(p.dbar):
                    assert poly_eval(f, polys[i].tolist(), code.lam[idx]) == C[i, idx]


def test_local_polys_rack_zero_is_plain_column_sums():
    rng = random.Random(97)
    code = build(10, 2, 7, 2)
    _, M, _ = encode_random(code, rng)
    p, f = code.params, oracle(code.field)
    polys = local_polys(code, 0, M)
    for i in range(p.dbar):
        for j in range(p.u):
            if j == p.u - 1:
                ts = range(p.dbar)
            elif j < p.u0:
                ts = range(p.kbar + 1)
            else:
                ts = range(p.kbar)
            acc = 0
            for t in ts:
                acc = f.add(acc, int(M[i, t * p.u + j]))  # xi^0 scaling
            assert polys[i, j] == acc


def test_leading_vector_from_storage_matches_message_route():
    rng = random.Random(101)
    for code in (build(8, 2, 5, 1), build(10, 2, 7, 2), build(12, 3, 8, 2), *PRODUCTION):
        _, M, C = encode_random(code, rng)
        p = code.params
        for e in range(p.nbar):
            from_message = local_polys(code, e, M)[:, -1].tolist()
            from_storage = leading_vector_from_storage(code, e, stored_columns(code, C, e))
            assert from_storage == from_message


def test_leading_vector_zero_codeword():
    code = build(8, 2, 5, 1)
    assert leading_vector_from_storage(code, 0, [[0], [0]]) == [0]


def test_leading_vector_two_node_closed_form():
    rng = random.Random(103)
    code = build(8, 2, 5, 1)
    _, _, C = encode_random(code, rng)
    p, f = code.params, oracle(code.field)
    e = 2
    cols = stored_columns(code, C, e)
    x0, x1 = code.lam[p.node_index(e, 0)], code.lam[p.node_index(e, 1)]
    expected = f.div(f.sub(cols[0][0], cols[1][0]), f.sub(x0, x1))
    assert leading_vector_from_storage(code, e, cols) == [expected]


# ---------------------------------------------------------------------------
# leading-vector transport (the cross-rack storage of the block)
# ---------------------------------------------------------------------------


def test_transport_identity_exact():
    rng = random.Random(107)
    for code in (build(8, 2, 5, 1), build(10, 2, 7, 2), build(12, 3, 8, 2), *PRODUCTION):
        _, M, C = encode_random(code, rng)
        p, f = code.params, oracle(code.field)
        assert mbr_codeword_check(code, M, C)
        S = Matrix.from_rows(symmetric_block(p, M).tolist())
        V = Matrix.from_rows(
            [[f.pow(code.rack_points[e], i) for e in range(p.nbar)] for i in range(p.dbar)]
        )
        expected = mat_mul(f, S, V)
        for e in range(p.nbar):
            assert local_polys(code, e, M)[:, -1].tolist() == expected.col(e)


def test_transport_breaks_under_mutation():
    rng = random.Random(109)
    code = build(8, 2, 5, 1)
    _, M, C = encode_random(code, rng)
    C[0, 3] = oracle(code.field).add(C[0, 3], 1)  # perturb one stored symbol
    assert not mbr_codeword_check(code, M, C)


def test_transport_single_helper_constant_row():
    rng = random.Random(113)
    code = build(8, 2, 5, 1)
    _, M, _ = encode_random(code, rng)
    p = code.params
    s00 = symmetric_block(p, M)[0, 0]
    leadings = {tuple(local_polys(code, e, M)[:, -1].tolist()) for e in range(p.nbar)}
    assert leadings == {(s00,)}


def test_symmetry_transport_between_rack_pairs():
    rng = random.Random(127)
    code = build(10, 2, 7, 2)
    _, M, _ = encode_random(code, rng)
    p, f = code.params, oracle(code.field)
    S = symmetric_block(p, M).tolist()
    for a in range(p.nbar):
        for b in range(p.nbar):
            va = [f.pow(code.rack_points[a], i) for i in range(p.dbar)]
            vb = [f.pow(code.rack_points[b], i) for i in range(p.dbar)]
            lhs = rhs = 0
            for i in range(p.dbar):
                for j in range(p.dbar):
                    lhs = f.add(lhs, f.mul(va[i], f.mul(S[i][j], vb[j])))
                    rhs = f.add(rhs, f.mul(vb[i], f.mul(S[i][j], va[j])))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# helper responses
# ---------------------------------------------------------------------------


def test_helper_response_zero_codeword():
    code = build(8, 2, 5, 1)
    assert response(code, code_matrix(code, [0] * code.B), 1, 0) == 0


def test_helper_response_single_helper_is_leading_entry():
    rng = random.Random(131)
    code = build(8, 2, 5, 1)
    _, _, C = encode_random(code, rng)
    cols = stored_columns(code, C, 1)
    assert response(code, C, 1, 0) == leading_vector_from_storage(code, 1, cols)[0]


def test_helper_response_matches_block_inner_product():
    rng = random.Random(137)
    code = build(10, 2, 7, 2)
    _, M, C = encode_random(code, rng)
    p, f = code.params, oracle(code.field)
    S = symmetric_block(p, M).tolist()
    for helper in range(1, p.nbar):
        got = response(code, C, helper, 0)
        va = [f.pow(code.rack_points[0], i) for i in range(p.dbar)]
        vb = [f.pow(code.rack_points[helper], i) for i in range(p.dbar)]
        want = 0
        for i in range(p.dbar):
            for j in range(p.dbar):
                want = f.add(want, f.mul(va[i], f.mul(S[i][j], vb[j])))
        assert got == want


def test_helper_response_rejects_self_help():
    code = build(8, 2, 5, 1)
    with pytest.raises(ParameterError):
        code.repair_maps((1, 0), [1])


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def repair_via_storage(code, C, failed, helper_set):
    cluster = Cluster(code, C.T.reshape(-1, 1).copy())
    cluster.fail_node(failed)
    cluster.run_repair(RepairPolicy.explicit(helper_set))
    return cluster.node_data(failed)


def test_repair_zero_codeword():
    code = build(8, 2, 5, 1)
    C = code_matrix(code, [0] * code.B)
    assert repair_via_storage(code, C, (0, 0), [2]) == [0]


def test_repair_exhaustive_both_instances():
    rng = random.Random(139)
    for code in (build(8, 2, 5, 1), build(10, 2, 7, 2)):
        p = code.params
        for _ in range(3):
            _, _, C = encode_random(code, rng)
            for idx in range(p.n):
                failed = p.node_pair(idx)
                others = [e for e in range(p.nbar) if e != failed[0]]
                for helper_set in itertools.combinations(others, p.dbar):
                    got = repair_via_storage(code, C, failed, helper_set)
                    assert got == C[:, idx].tolist()


def test_repair_validations():
    rng = random.Random(149)
    code = build(10, 2, 7, 2)
    _, _, C = encode_random(code, rng)
    with pytest.raises(ParameterError):
        repair_via_storage(code, C, (0, 0), [1])  # too few helpers
    with pytest.raises(ParameterError):
        repair_via_storage(code, C, (0, 0), [1, 1])  # duplicate helper
    with pytest.raises(ParameterError):
        repair_via_storage(code, C, (0, 0), [0, 2])  # self-help
    with pytest.raises(ParameterError):
        Cluster(code, C.T.reshape(-1, 1)[2:])  # missing local columns


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruct_every_k_subset():
    rng = random.Random(151)
    code = build(8, 2, 5, 1)
    data, _, C = encode_random(code, rng)
    p = code.params
    for subset in itertools.combinations(range(p.n), p.k):
        got = code.reconstruct([(i, C[:, i].tolist()) for i in subset])
        assert got == data


def test_reconstruct_full_supply_and_extras_checked():
    rng = random.Random(157)
    code = build(10, 2, 7, 2)
    data, _, C = encode_random(code, rng)
    p = code.params
    everything = [(i, C[:, i].tolist()) for i in range(p.n)]
    assert code.reconstruct(everything) == data
    corrupted = [(i, list(col)) for i, col in everything]
    corrupted[p.n - 1][1][0] = oracle(code.field).add(corrupted[p.n - 1][1][0], 1)
    with pytest.raises(VerificationError):
        code.reconstruct(corrupted)


def test_reconstruct_needs_k_columns():
    rng = random.Random(163)
    code = build(8, 2, 5, 1)
    _, _, C = encode_random(code, rng)
    with pytest.raises(ParameterError):
        code.reconstruct([(i, C[:, i].tolist()) for i in range(code.params.k - 1)])


def test_reconstruct_structure_check_catches_corruption():
    rng = random.Random(167)
    code = build(10, 2, 7, 2)
    _, _, C = encode_random(code, rng)
    p = code.params
    cols = [(i, list(C[:, i].tolist())) for i in range(p.k)]
    cols[0][1][1] = oracle(code.field).add(cols[0][1][1], 3)
    with pytest.raises(VerificationError):
        code.reconstruct(cols)


# the shapes whose closed-form column multipliers are checked one by one;
# the last has 100 racks, so the rack products run long
MAP_SHAPES = (
    (SystemParams(n=50, u=5, k=44, dbar=4), make_field(50, 5, "gf256")),
    (SystemParams(n=132, u=4, k=120, dbar=4), PrimeField(137, 4)),
    (SystemParams(n=12, u=4, k=8, dbar=1), PrimeField(13, 4)),
    (SystemParams(n=20, u=4, k=12, dbar=2), PrimeField(137, 4)),
    (SystemParams(n=200, u=2, k=4, dbar=1), PrimeField(211, 2)),
)


@pytest.mark.parametrize("p,field", MAP_SHAPES)
def test_reconstruct_maps_equal_their_definitions(p, field):
    code = MbrrCode.build(p, field)
    F, O = field, oracle(field)
    weights, gaps, base = code.reconstruct_maps
    lam = code.lam.tolist()
    for c, x in enumerate(lam):
        prod = 1
        for l, y in enumerate(lam):
            if l != c:
                prod = O.mul(prod, O.sub(x, y))
        assert int(weights[c]) == O.inv(prod)
    for c, x in enumerate(lam[: p.k]):
        prod = 1
        for l, y in enumerate(lam[: p.k]):
            if l != c:
                prod = O.mul(prod, O.sub(x, y))
        assert int(gaps[c]) == prod
    # the n - k check rows v_c * lam[c]**t annihilate every row of C, and
    # ``base`` inverts Lambda transposed (``powers``) on nodes 0 ... k-1
    checks = np.array(
        [[O.mul(weights[c], O.pow(x, t)) for c, x in enumerate(lam)] for t in range(p.n - p.k)],
        dtype=F.np_dtype,
    )
    rng = np.random.default_rng(p.n)
    data = rng.integers(0, F.q, size=(code.B, 3)).astype(F.np_dtype)
    body = code.encode_stripes(data).reshape(p.n, -1)
    assert not F.np_matmul(checks, body).any()
    assert (F.np_matmul(base, code.powers[: p.k]) == np.eye(p.k, dtype=F.np_dtype)).all()


def test_reconstruct_maps_are_derived_once_on_first_reconstruct():
    p, field = MAP_SHAPES[0]
    code = MbrrCode.build(p, field)
    assert "reconstruct_maps" not in code.__dict__
    data = np.zeros((code.B, 2), dtype=field.np_dtype)
    body = code.encode_stripes(data)
    code.reconstruct_stripes(list(range(p.n)), body)
    maps = code.__dict__["reconstruct_maps"]
    code.reconstruct_stripes(list(range(p.n - p.k, p.n)), body[(p.n - p.k) * p.dbar :])
    assert code.reconstruct_maps is maps
    assert all(not arr.flags.writeable for arr in maps)


def test_reconstruct_inverts_at_most_the_erased_points_per_call(monkeypatch):
    p, field = MAP_SHAPES[0]
    code = MbrrCode.build(p, field)
    rng = random.Random(181)
    data = np.array([random_data(code, rng) for _ in range(2)], dtype=field.np_dtype).T
    body = code.encode_stripes(data).reshape(p.n, p.dbar, 2)
    code.reconstruct_stripes(list(range(p.n)), body.reshape(-1, 2))
    sizes = []

    def spy(F, points):
        sizes.append(len(points))
        return vandermonde_inverse(F, points)

    monkeypatch.setattr(mbrr, "vandermonde_inverse", spy)
    for size in range(p.k, p.n + 1):
        for nodes in (rng.sample(range(p.n), size), list(range(p.n - size, p.n))):
            del sizes[:]
            got = code.reconstruct_stripes(nodes, body[nodes].reshape(-1, 2))
            assert (got == data).all()
            # only the erased nodes below k are filled, at most n - k of them
            lost = len(set(range(p.k)) - set(nodes))
            assert sizes == ([lost] if lost else [])
            assert lost <= p.n - size


@pytest.mark.parametrize(
    "p,field",
    [
        (SystemParams(n=4096, u=2, k=2, dbar=1), PrimeField(4099, 2)),
        (SystemParams(n=3000, u=4, k=40, dbar=4), PrimeField(3001, 4)),
    ],
    ids=["n4096-k2", "n3000-k40"],
)
def test_reconstruct_of_many_nodes_and_small_k(p, field):
    # n far above k: the fill inverts at most k points and every map is
    # O(n * k), so these shapes, well inside the build budget, stay fast
    code = MbrrCode.build(p, field)
    rng = random.Random(p.n)
    data = np.array([random_data(code, rng) for _ in range(3)], dtype=field.np_dtype).T
    body = code.encode_stripes(data).reshape(p.n, p.dbar, 3)
    for nodes in (
        list(range(p.n - p.k, p.n)),
        rng.sample(range(p.n), p.k),
        [0] + list(range(p.n - p.k, p.n)),
        list(range(p.n)),
    ):
        got = code.reconstruct_stripes(nodes, body[nodes].reshape(-1, 3))
        assert (got == data).all()
    body[p.n - 1, 0, 2] = oracle(field).add(body[p.n - 1, 0, 2], 1)
    with pytest.raises(VerificationError, match="first at stripe 2$"):
        code.reconstruct_stripes(list(range(p.n)), body.reshape(-1, 3))


# ---------------------------------------------------------------------------
# build guards and bound ties
# ---------------------------------------------------------------------------


def test_build_rejects_no_helpers():
    p = SystemParams(n=8, u=2, k=5, dbar=0)
    with pytest.raises(ParameterError):
        MbrrCode.build(p, make_field(8, 2, "prime"))


def test_build_validates_field():
    p = SystemParams(n=8, u=2, k=5, dbar=1)
    with pytest.raises(ParameterError):
        MbrrCode.build(p, make_field(12, 3, "prime"))


def test_end_to_end_identity():
    rng = random.Random(173)
    for code in (build(8, 2, 5, 1), build(10, 2, 7, 2), build(10, 5, 8, 1, "gf256")):
        data = random_data(code, rng)
        C = code_matrix(code, data)
        p = code.params
        got = code.reconstruct([(i, C[:, i].tolist()) for i in range(p.k)])
        assert got == data


def test_size_achieves_cutset_bound():
    for n, u, k, dbar in [(8, 2, 5, 1), (10, 2, 7, 2), (12, 3, 8, 2)]:
        p = SystemParams(n=n, u=u, k=k, dbar=dbar)
        point = mbrr_point(p)
        assert message_size(p) == cutset_bound(p, point.alpha, point.beta)


def test_sub_packetization_is_dbar():
    assert build(8, 2, 5, 1).alpha == 1
    assert build(10, 2, 7, 2).alpha == 2
