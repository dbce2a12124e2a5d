"""Storage/bandwidth bounds for rack-aware repair, and the two extremes.

A cluster of n nodes in nbar racks of u stores a file so that any k nodes
recover it.  A failed node is rebuilt from the other u - 1 nodes in its
rack (free) plus one aggregate symbol from each of dbar helper racks
(metered).  Given per-node storage alpha and per-helper download beta,
there is a hard cap on the file size; this script evaluates that cap and
walks the tradeoff between the minimum-storage and minimum-bandwidth
operating points.
"""

from fractions import Fraction

from rarc import (
    SystemParams,
    cutset_bound,
    mincut_profile,
    overhead_pair,
    sweep_table,
    tradeoff_points,
)
from rarc.formats import format_thousandths

# A small system: 3 racks of 2 nodes, any 4 of the 6 nodes reconstruct,
# and one helper rack joins each repair.
p = SystemParams(n=6, u=2, k=4, dbar=1)
print(f"system: n={p.n} nodes in nbar={p.nbar} racks of u={p.u}, k={p.k}, dbar={p.dbar}")
print(f"derived: kbar={p.kbar} full racks in a collector, u0={p.u0} leftover nodes")

# The bound at unit storage and unit download.
print(f"\nmax file size at alpha=beta=1: {cutset_bound(p, 1, 1)} symbols")

# The bound comes from the weakest data collector: one that covers lbar
# whole racks.  Sweeping lbar shows the cut tightening monotonically.
print("\ncollector cut value as racks fill up (alpha=beta=1):")
for lbar in range(p.kbar + 1):
    print(f"  lbar={lbar}: {mincut_profile(p, 1, 1, lbar)}")

# Fractional rates work too; arithmetic stays exact.
print(f"\nbound at alpha=1/2, beta=1/3: {cutset_bound(p, Fraction(1, 2), Fraction(1, 3))}")

# The two extreme operating points, normalized to one downloaded symbol
# per helper rack.
for point in tradeoff_points(p):
    storage, bandwidth = overhead_pair(point, p)
    print(
        f"\n{point.label}: alpha={point.alpha}, beta={point.beta}, B={point.B}"
        f"\n  storage overhead n*alpha/B  = {storage} ~ {format_thousandths(storage)}"
        f"\n  bandwidth overhead dbar*beta/alpha = {bandwidth}"
    )

# A larger sweep with rack size 5 and fault tolerance 6, listing the
# overhead pairs at several cluster widths and repair degrees.
print("\nsweep (u=5, n-k=6):")
pairs, notes = sweep_table(5, 6, [10, 20, 30], [0, 4, 8])
print(f"  {'nbar':>4} {'dbar':>4} {'code':>5} {'storage':>8} {'bandwidth':>9}")
for sp, point in pairs:
    storage, bandwidth = overhead_pair(point, sp)
    print(
        f"  {sp.nbar:>4} {sp.dbar:>4} {point.label:>5}"
        f" {format_thousandths(storage):>8} {format_thousandths(bandwidth):>9}"
    )
for note in notes:
    print(f"  ({note})")
