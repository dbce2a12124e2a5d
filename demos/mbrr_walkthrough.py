"""The array minimum-bandwidth code: packing, local polynomials, repair.

Each node stores dbar symbols (the values of dbar message polynomials at
its point).  Repair moves exactly one symbol out of each of dbar helper
racks -- as little cross-rack traffic as the failed node's storage.
"""

import random

from rarc import MbrrCode, SystemParams, make_field, pack_message
from rarc.linalg import poly_eval
from rarc.mbrr import symmetric_block

rng = random.Random(11)

p = SystemParams(n=10, u=2, k=7, dbar=2)
field = make_field(p.n, p.u, "prime")
code = MbrrCode.build(p, field)
print(f"{field}: B={code.B} data symbols, alpha={code.alpha} symbols per node")

data = [rng.randrange(field.q) for _ in range(code.B)]
M = pack_message(p, data)
print(f"\ndata {data}")
print("message matrix (rack-boundary columns hold a symmetric block, then zeros):")
for i in range(p.dbar):
    print(f"  {M[i].tolist()}")
print(f"symmetric block: {symmetric_block(p, M).tolist()}")

C = code.encode(M)
print(f"\nnode (0,1) stores column {code.node_column(C, 1)}")

# Inside rack e the stored values agree with dbar polynomials of degree
# < u, so most of a column is locally explainable; only the top
# coefficients carry cross-rack information.
e = 3
polys = code.local_polys(e, M)
for g in range(p.u):
    idx = p.node_index(e, g)
    values = [poly_eval(field, polys[i].tolist(), code.lam[idx]) for i in range(p.dbar)]
    assert values == code.node_column(C, idx)
print(f"rack {e}: local polynomials reproduce both stored columns")
print(f"rack {e}: leading coefficients {polys[:, -1].tolist()}")

# Those leading vectors can be read straight off the stored columns, and
# across racks they are the symmetric block times a Vandermonde matrix --
# which is what makes one-symbol helper responses possible.
stored = [code.node_column(C, p.node_index(e, g)) for g in range(p.u)]
assert code.leading_vector_from_storage(e, stored) == polys[:, -1].tolist()
assert code.mbr_codeword_check(M, C)
print("leading-vector transport verified from storage alone")

# Repair node (4, 0) with helper racks 1 and 2.
failed = (4, 0)
local = [(1, code.node_column(C, p.node_index(4, 1)))]
helpers = []
for h in (1, 2):
    columns = [code.node_column(C, p.node_index(h, g)) for g in range(p.u)]
    helpers.append((h, code.helper_response(h, failed[0], columns)))
print(f"\nhelper responses (one symbol each): {helpers}")
repaired = code.repair(failed, local, helpers)
print(f"repaired column {repaired}")
assert repaired == code.node_column(C, p.node_index(*failed))

# Any k nodes reconstruct the data file.
available = [(i, code.node_column(C, i)) for i in range(p.k)]
assert code.reconstruct(available) == data
print(f"\nfirst {p.k} nodes reconstruct the data file exactly")
