"""Failure injection on a simulated cluster, with metered repair traffic.

The simulator places an encoded stripe on an nbar x u topology, kills a
node, runs the repair flow (helpers compute only from their own storage),
and counts every symbol that moves, split at the rack boundary.
"""

import random

from rarc import (
    Cluster,
    MbrrCode,
    MsrrCode,
    RepairPolicy,
    SystemParams,
    make_field,
    tradeoff_points,
)

rng = random.Random(13)

p = SystemParams(n=10, u=2, k=7, dbar=2)
field = make_field(p.n, p.u, "prime")

for cls, point in zip((MsrrCode, MbrrCode), tradeoff_points(p)):
    code = cls.build(p, field)
    data = [rng.randrange(field.q) for _ in range(code.B)]
    cluster = Cluster(code).store(data)
    print(f"\n=== {code.code_type}: alpha={point.alpha}, beta={point.beta}, B={point.B} ===")
    print(f"node (0,0) holds {cluster.node_data((0, 0))}")

    before = cluster.node_data((2, 1))
    cluster.fail_node((2, 1))
    assert cluster.node_data((2, 1)) is None
    log = cluster.run_repair(RepairPolicy.uniform_random(seed=99))
    assert cluster.node_data((2, 1)) == before
    print(f"repaired (2,1) with helper racks {list(log.helper_racks)}")
    print(f"cross-rack: {log.cross_rack_symbols} symbols = dbar*beta = {p.dbar * point.beta}")
    print(
        f"intra-rack: {log.intra_rack_symbols} symbols = (u-1)*alpha = {(p.u - 1) * point.alpha}"
    )

    # every policy must repair to the same content
    for policy in (
        RepairPolicy.lowest_index(),
        RepairPolicy.uniform_random(seed=5),
        RepairPolicy.explicit([0, 4]),
    ):
        cluster.fail_node((2, 1))
        cluster.run_repair(policy)
        assert cluster.node_data((2, 1)) == before
    print("lowest-index, seeded-random, and explicit policies all agree")
