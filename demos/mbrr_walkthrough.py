"""The array minimum-bandwidth code: packing, storage, repair.

Each node stores dbar symbols (the values of dbar message polynomials at
its point).  Repair moves exactly one symbol out of each of dbar helper
racks -- as little cross-rack traffic as the failed node's storage.
"""

import random

import numpy as np

from rarc import Cluster, MbrrCode, RepairPolicy, SystemParams, make_field
from rarc.mbrr import cell_layout

rng = random.Random(11)

p = SystemParams(n=10, u=2, k=7, dbar=2)
field = make_field(p.n, p.u, "prime")
code = MbrrCode.build(p, field)
print(f"{field}: B={code.B} data symbols, alpha={code.alpha} symbols per node")

data = [rng.randrange(field.q) for _ in range(code.B)]
# the one message layout: cell (i, j) of M at j*dbar + i, the symmetric
# block mirrored across its diagonal
layout = cell_layout(p)
cells = np.zeros(p.k * p.dbar, dtype=int)
cells[layout.filled] = np.array(data)[layout.source]
M = cells.reshape(p.k, p.dbar).T
print(f"\ndata {data}")
print("message matrix (rack-boundary columns hold a symmetric block, then zeros):")
for i in range(p.dbar):
    print(f"  {M[i].tolist()}")

# One stripe is one product C = M * Lambda with the code's powers: node c
# stores the dbar rows of M evaluated at its point.
cluster = Cluster(code).store(data)
print(f"\nnode (0,1) stores {cluster.node_data((0, 1))}")

# Inside a rack the stored values agree with dbar polynomials of degree
# < u, whose leading coefficients are the symmetric block times the rack's
# Vandermonde column.  So each helper rack applies one fixed row to its u
# stored columns and ships one symbol, and the rebuild map takes the rack
# mate's column plus those dbar symbols.
failed = (4, 0)
helper, rebuild = code.repair_maps(failed, [1, 2])
print(f"\nhelper rows: {helper.shape[0]} racks x {helper.shape[1]} stored symbols each")
print(f"rebuild map: {rebuild.shape[0]} x ({(p.u - 1) * p.dbar} local + {p.dbar} responses)")
before = cluster.node_data(failed)
cluster.fail_node(failed)
log = cluster.run_repair(RepairPolicy.explicit([1, 2]))
print(f"repaired column {cluster.node_data(failed)}")
print(f"{log.cross_rack_symbols} symbols crossed racks, {log.intra_rack_symbols} stayed inside")
assert cluster.node_data(failed) == before

# Any k nodes reconstruct the data file.
available = [(i, cluster.node_data(i)) for i in range(p.k)]
assert code.reconstruct(available) == data
print(f"\nfirst {p.k} nodes reconstruct the data file exactly")
