import random

import numpy as np
import pytest

from rarc import bulk
from rarc.errors import ParameterError
from rarc.field import make_field
from rarc.mbrr import MbrrCode
from rarc.msrr import MsrrCode
from rarc.params import SystemParams
from rarc.sim import Cluster, RepairPolicy, TrafficLog

RNG = random.Random(211)


def msrr_cluster(n=6, u=2, k=4, dbar=1):
    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
    code = MsrrCode.build(p, make_field(n, u, "prime"))
    message = [RNG.randrange(code.field.q) for _ in range(code.B)]
    return Cluster(code).store(message), message


def mbrr_cluster(n=8, u=2, k=5, dbar=1):
    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
    code = MbrrCode.build(p, make_field(n, u, "prime"))
    data = [RNG.randrange(code.field.q) for _ in range(code.B)]
    return Cluster(code).store(data), data


# ---------------------------------------------------------------------------
# storage layout
# ---------------------------------------------------------------------------


def test_store_one_symbol_per_node_scalar_code():
    cluster, _ = msrr_cluster()
    for idx in range(6):
        assert len(cluster.node_data(idx)) == 1


def test_store_dbar_symbols_per_node_array_code():
    cluster, _ = mbrr_cluster(10, 2, 7, 2)
    for idx in range(10):
        assert len(cluster.node_data(idx)) == 2


def test_store_then_reconstruct_round_trip():
    cluster, message = msrr_cluster()
    code = cluster.code
    available = [(i, cluster.node_data(i)[0]) for i in range(4)]
    assert code.reconstruct(available) == message

    cluster2, data2 = mbrr_cluster()
    code2 = cluster2.code
    available2 = [(i, cluster2.node_data(i)) for i in range(code2.params.k)]
    assert code2.reconstruct(available2) == data2


# ---------------------------------------------------------------------------
# failure injection
# ---------------------------------------------------------------------------


def test_fail_then_repair_restores_exactly():
    cluster, _ = msrr_cluster()
    before = cluster.node_data(3)
    cluster.fail_node((1, 1))
    assert cluster.node_data(3) is None
    log = cluster.run_repair(RepairPolicy.lowest_index())
    assert cluster.node_data(3) == before
    assert isinstance(log, TrafficLog)


def test_double_failure_rejected():
    cluster, _ = msrr_cluster()
    cluster.fail_node((0, 0))
    with pytest.raises(ParameterError):
        cluster.fail_node((0, 0))
    with pytest.raises(ParameterError):
        cluster.fail_node((1, 0))


def test_repair_without_failure_rejected():
    cluster, _ = msrr_cluster()
    with pytest.raises(ParameterError):
        cluster.run_repair(RepairPolicy.lowest_index())


def test_local_only_repair_path():
    p = SystemParams(n=6, u=3, k=4, dbar=0)
    code = MsrrCode.build(p, make_field(6, 3, "prime"))
    message = [RNG.randrange(7) for _ in range(code.B)]
    cluster = Cluster(code).store(message)
    before = cluster.node_data((1, 2))
    cluster.fail_node((1, 2))
    log = cluster.run_repair(RepairPolicy.lowest_index())
    assert cluster.node_data((1, 2)) == before
    assert log.cross_rack_symbols == 0
    assert log.intra_rack_symbols == 2


# ---------------------------------------------------------------------------
# traffic metering
# ---------------------------------------------------------------------------


def test_scalar_code_traffic_counts():
    cluster, _ = msrr_cluster()
    cluster.fail_node((2, 0))
    log = cluster.run_repair(RepairPolicy.lowest_index())
    assert log.cross_rack_symbols == 1
    assert log.intra_rack_symbols == 1
    assert list(log.helper_racks) == [0]


def test_array_code_traffic_counts():
    cluster, _ = mbrr_cluster(10, 2, 7, 2)
    cluster.fail_node((0, 1))
    log = cluster.run_repair(RepairPolicy.explicit([2, 4]))
    assert log.cross_rack_symbols == 2  # dbar * beta
    assert log.intra_rack_symbols == 2  # (u - 1) * alpha
    assert list(log.helper_racks) == [2, 4]


def test_traffic_counts_derive_from_trace():
    cluster, _ = mbrr_cluster(10, 2, 7, 2)
    body = cluster.stripes.copy()
    cluster.fail_node((0, 1))
    log = cluster.run_repair(RepairPolicy.lowest_index())
    _, local, responses = bulk.repair_stripes(cluster.code, (0, 1), log.helper_racks, body)
    assert (log.cross_rack_symbols, log.intra_rack_symbols) == (responses.size, local.size)
    assert (log.cross_per_stripe, log.intra_per_stripe) == (responses.shape[0], local.shape[0])
    assert 0 not in log.helper_racks
    assert log.failed == (0, 1)


def test_cluster_repairs_every_stripe_of_a_matrix():
    code = MbrrCode.build(SystemParams(n=10, u=2, k=7, dbar=2), make_field(10, 2, "prime"))
    data = code.field.symbol_array([RNG.randrange(code.field.q) for _ in range(3 * code.B)])
    data = data.reshape(code.B, 3)
    body = code.encode_stripes(data)
    cluster = Cluster(code, body.copy())
    assert cluster.node_data(4) == body[8:10].T.ravel().tolist()  # stripe by stripe
    cluster.fail_node((2, 0))
    log = cluster.run_repair(RepairPolicy.explicit([0, 3]))
    assert np.array_equal(cluster.stripes, body)
    assert (log.stripes, log.cross_rack_symbols, log.intra_rack_symbols) == (3, 2 * 3, 2 * 3)


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


def test_all_policies_repair_identically():
    p = SystemParams(n=10, u=2, k=7, dbar=2)
    code = MbrrCode.build(p, make_field(10, 2, "prime"))
    data = [RNG.randrange(code.field.q) for _ in range(code.B)]
    truth = Cluster(code).store(data).node_data((3, 0))
    policies = [
        RepairPolicy.lowest_index(),
        RepairPolicy.uniform_random(seed=5),
        RepairPolicy.explicit([1, 4]),
    ]
    for policy in policies:
        cluster = Cluster(code).store(data)
        cluster.fail_node((3, 0))
        cluster.run_repair(policy)
        assert cluster.node_data((3, 0)) == truth


def test_random_policy_is_seed_deterministic():
    policy = RepairPolicy.uniform_random(seed=42)
    first = policy.select(0, 10, 3)
    assert first == policy.select(0, 10, 3)
    assert 0 not in first
    assert len(first) == 3


def test_explicit_policy_validation():
    with pytest.raises(ParameterError):
        RepairPolicy.explicit([0]).select(0, 4, 1)  # failed rack chosen
    with pytest.raises(ParameterError):
        RepairPolicy.explicit([1, 2]).select(0, 4, 1)  # wrong count
    with pytest.raises(ParameterError):
        RepairPolicy.explicit([9]).select(0, 4, 1)  # out of range
    with pytest.raises(ParameterError):
        RepairPolicy(kind="random").select(0, 4, 1)  # seedless random


def test_conservation_across_all_nodes_and_policies():
    cluster, _ = msrr_cluster(8, 2, 5, 1)
    code = cluster.code
    p = code.params
    snapshot = [cluster.node_data(i) for i in range(p.n)]
    for idx in range(p.n):
        e_star, g_star = p.node_pair(idx)
        for helper in [e for e in range(p.nbar) if e != e_star]:
            cluster.fail_node((e_star, g_star))
            cluster.run_repair(RepairPolicy.explicit([helper]))
            assert [cluster.node_data(i) for i in range(p.n)] == snapshot
