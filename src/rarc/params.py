"""System parameters, the cut-set bound, and the two tradeoff extremes.

A cluster stores n nodes in nbar racks of u nodes each; any k nodes must
recover the file, and a failed node is rebuilt from the other u - 1 nodes
of its rack plus one aggregate symbol from each of dbar helper racks.
Only cross-rack transfer is metered: alpha is per-node storage and beta
the per-helper-rack download, both in field symbols.

All bound arithmetic is exact (ints or fractions); decimal rendering is
left to the report layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError

MSRR = "msrr"
MBRR = "mbrr"


@dataclass(frozen=True)
class SystemParams:
    """(n, u, k, dbar) with the derived rack-level quantities.

    nbar = n/u racks, kbar = floor(k/u), u0 = k - kbar*u.  Valid in the
    few-helper regime: 0 <= dbar <= min(kbar, nbar - 1).
    """

    n: int
    u: int
    k: int
    dbar: int

    def __post_init__(self):
        if self.u < 2:
            raise ParameterError("rack size u must be at least 2")
        if self.n < 2 or self.n % self.u != 0:
            raise ParameterError(f"node count n={self.n} must be a positive multiple of u={self.u}")
        if not 1 <= self.k < self.n:
            raise ParameterError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if self.kbar < 1:
            raise ParameterError(f"k={self.k} spans less than one full rack (u={self.u})")
        if not 0 <= self.dbar <= min(self.kbar, self.nbar - 1):
            raise ParameterError(
                f"dbar={self.dbar} outside [0, min(kbar={self.kbar}, nbar-1={self.nbar - 1})]"
            )

    @property
    def nbar(self) -> int:
        return self.n // self.u

    @property
    def kbar(self) -> int:
        return self.k // self.u

    @property
    def u0(self) -> int:
        return self.k - self.kbar * self.u

    def node_index(self, e: int, g: int) -> int:
        if not (0 <= e < self.nbar and 0 <= g < self.u):
            raise ParameterError(f"node ({e},{g}) outside {self.nbar}x{self.u} topology")
        return e * self.u + g

    def node_pair(self, index: int) -> tuple[int, int]:
        if not 0 <= index < self.n:
            raise ParameterError(f"node index {index} outside [0, {self.n})")
        return divmod(index, self.u)


def check_helper_racks(failed_rack: int, helper_racks, nbar: int, count: int) -> list[int]:
    """The helper racks as a list, if they are exactly ``count`` distinct
    racks in [0, nbar) other than the failed rack, itself in range."""
    racks = list(helper_racks)
    if (
        not 0 <= failed_rack < nbar
        or len(racks) != count
        or len(set(racks)) != count
        or failed_rack in racks
        or not all(0 <= h < nbar for h in racks)
    ):
        raise ParameterError(
            f"need {count} distinct helper racks in [0, {nbar}) other than {failed_rack}"
        )
    return racks


def check_node_set(p: SystemParams, nodes) -> list[int]:
    """The node indices as a list, if they are at least k distinct indices
    in [0, n)."""
    nodes = list(nodes)
    if len(set(nodes)) != len(nodes):
        raise ParameterError("duplicate node indices")
    outside = [idx for idx in nodes if not 0 <= idx < p.n]
    if outside:
        raise ParameterError(f"node index {outside[0]} out of range")
    if len(nodes) < p.k:
        raise ParameterError(f"need at least k={p.k} nodes, got {len(nodes)}")
    return nodes


def cutset_bound(p: SystemParams, alpha, beta):
    """Maximum storable file size B* for per-node storage alpha and
    per-helper-rack download beta.

    B* = (k - kbar)*alpha + sum_{i=1..min(kbar, dbar)} min((dbar-i+1)*beta, alpha).
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    acc = (p.k - p.kbar) * alpha
    for i in range(1, min(p.kbar, p.dbar) + 1):
        acc += min((p.dbar - i + 1) * beta, alpha)
    return acc


def mincut_profile(p: SystemParams, alpha, beta, lbar: int):
    """Cut value for a data collector fully covering lbar racks.

    Non-increasing in lbar; at lbar = kbar it equals ``cutset_bound``.
    """
    if not 0 <= lbar <= p.kbar:
        raise ParameterError(f"lbar={lbar} outside [0, kbar={p.kbar}]")
    acc = (p.k - lbar) * alpha
    for i in range(1, min(lbar, p.dbar) + 1):
        acc += min((p.dbar - i + 1) * beta, alpha)
    return acc


@dataclass(frozen=True)
class TradeoffPoint:
    """One extreme of the storage/bandwidth tradeoff, normalized to beta=1."""

    alpha: int
    beta: int
    B: int
    label: str

    def __post_init__(self):
        if self.label not in (MSRR, MBRR):
            raise ParameterError(f"unknown tradeoff label {self.label!r}")


def msrr_point(p: SystemParams) -> TradeoffPoint:
    """Minimum-storage point: alpha = beta = 1, B = k - kbar + dbar.

    At dbar = 0 there is no cross-rack download, so beta = 0 and
    B = k - kbar.
    """
    if p.dbar == 0:
        point = TradeoffPoint(alpha=1, beta=0, B=p.k - p.kbar, label=MSRR)
    else:
        point = TradeoffPoint(alpha=1, beta=1, B=p.k - p.kbar + p.dbar, label=MSRR)
    if point.B != cutset_bound(p, point.alpha, point.beta):
        raise ParameterError("minimum-storage point violates the cut-set bound")
    return point


def mbrr_point(p: SystemParams) -> TradeoffPoint:
    """Minimum-bandwidth point: alpha = dbar, beta = 1,
    B = (k - kbar)*dbar + dbar*(dbar+1)/2.  Undefined at dbar = 0."""
    if p.dbar < 1:
        raise ParameterError("minimum-bandwidth point requires dbar >= 1")
    B = (p.k - p.kbar) * p.dbar + p.dbar * (p.dbar + 1) // 2
    point = TradeoffPoint(alpha=p.dbar, beta=1, B=B, label=MBRR)
    if point.B != cutset_bound(p, point.alpha, point.beta):
        raise ParameterError("minimum-bandwidth point violates the cut-set bound")
    if p.dbar * point.beta < point.alpha:
        raise ParameterError("repair downloads fall short of one node's storage")
    return point


def overhead_pair(point: TradeoffPoint, p: SystemParams) -> tuple[Fraction, Fraction]:
    """(storage overhead n*alpha/B, cross-rack bandwidth overhead dbar*beta/alpha),
    both exact rationals."""
    storage = Fraction(p.n * point.alpha, point.B)
    bandwidth = Fraction(p.dbar * point.beta, point.alpha)
    return storage, bandwidth
