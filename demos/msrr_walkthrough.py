"""The scalar minimum-storage code, end to end on a tiny cluster.

Each node stores one field symbol.  Any k nodes recover the message, and
a failed node is rebuilt from its rack's other u - 1 symbols plus one
aggregate (the rack sum) from each of dbar helper racks.
"""

import itertools
import random

from rarc import Cluster, MsrrCode, RepairPolicy, SystemParams, make_field

rng = random.Random(7)

p = SystemParams(n=6, u=2, k=4, dbar=1)
field = make_field(p.n, p.u, "prime")
print(f"field: {field} with primitive xi={field.xi} and order-{field.u} eta={field.eta}")

code = MsrrCode.build(p, field)
print(f"check exponents T={code.T}, so the code carries B={code.B} message symbols")
print(f"evaluation points (rack-major): {code.lam.tolist()}")
print(
    f"systematic layout: message at {code.info_set.tolist()},"
    f" checks solved at {code.parity_set.tolist()}"
)

message = [rng.randrange(field.q) for _ in range(code.B)]
cluster = Cluster(code).store(message)
codeword = [cluster.node_data(i)[0] for i in range(p.n)]
print(f"\nmessage  {message}")
print(f"codeword {codeword}  (position e*u+g belongs to node (e,g))")
assert not field.np_matmul(code.checks, cluster.stripes).any()

# Any k = 4 of the 6 nodes reconstruct the message.
for subset in itertools.combinations(range(p.n), p.k):
    assert code.reconstruct([(i, codeword[i]) for i in subset]) == message
print(f"all {len(list(itertools.combinations(range(p.n), p.k)))} four-node subsets reconstruct")

# Repair node (1, 0): its rack mate contributes one symbol locally, and a
# single helper rack ships the sum of its two symbols -- one symbol over
# the rack boundary instead of k.
failed = (1, 0)
for helper in (0, 2):
    cluster.fail_node(failed)
    log = cluster.run_repair(RepairPolicy.explicit([helper]))
    repaired = cluster.node_data(failed)[0]
    print(f"helper rack {helper}: {log.cross_rack_symbols} symbol crossed; repaired {repaired}")
    assert repaired == codeword[p.node_index(*failed)]

# With no helper racks at all (dbar=0) every rack sums to zero, so repair
# is purely local -- and the code is a locally repairable one.
p0 = SystemParams(n=6, u=3, k=4, dbar=0)
code0 = MsrrCode.build(p0, make_field(6, 3, "prime"))
cluster0 = Cluster(code0).store([rng.randrange(7) for _ in range(code0.B)])
expected = cluster0.node_data((0, 2))
cluster0.fail_node((0, 2))
log0 = cluster0.run_repair(RepairPolicy.lowest_index())
print(f"\ndbar=0 local repair: {cluster0.node_data((0, 2))} (expected {expected})")
print(f"cross-rack symbols: {log0.cross_rack_symbols}")
assert cluster0.node_data((0, 2)) == expected
