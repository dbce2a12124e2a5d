"""System parameters, the cut-set bound, the two tradeoff extremes, and
the overhead sweep over a grid of parameter sets.

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
from typing import Sequence

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
    per-helper-rack download beta: the min-cut profile at lbar = kbar.

    B* = (k - kbar)*alpha + sum_{i=1..min(kbar, dbar)} min((dbar-i+1)*beta, alpha).
    """
    return mincut_profile(p, alpha, beta, p.kbar)


def mincut_profile(p: SystemParams, alpha, beta, lbar: int):
    """Cut value for a data collector fully covering lbar racks,

    (k - lbar)*alpha + sum_{i=1..m} min((dbar-i+1)*beta, alpha), m = min(lbar, dbar),

    in closed form, exact for ints and fractions.  The terms fall with i,
    so the first ``reach`` of them, those with (dbar-i+1)*beta >= alpha,
    each give alpha, and the rest give beta times the arithmetic series
    dbar-reach, ..., dbar-m+1.  Non-increasing in lbar.
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    if not 0 <= lbar <= p.kbar:
        raise ParameterError(f"lbar={lbar} outside [0, kbar={p.kbar}]")
    m = min(lbar, p.dbar)
    # -alpha // beta is -ceil(alpha / beta), an int for ints and fractions alike
    reach = 0 if beta == 0 else min(m, max(0, p.dbar + 1 + (-alpha // beta)))
    rest = m - reach
    series = rest * (2 * p.dbar - reach - m + 1) // 2
    return (p.k - lbar) * alpha + reach * alpha + beta * series


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


def tradeoff_points(p: SystemParams) -> list[TradeoffPoint]:
    """The tradeoff extremes ``p`` has: the minimum-storage point always,
    the minimum-bandwidth point when dbar >= 1."""
    return [msrr_point(p), mbrr_point(p)] if p.dbar >= 1 else [msrr_point(p)]


def overhead_pair(point: TradeoffPoint, p: SystemParams) -> tuple[Fraction, Fraction]:
    """(storage overhead n*alpha/B, cross-rack bandwidth overhead dbar*beta/alpha),
    both exact rationals."""
    storage = Fraction(p.n * point.alpha, point.B)
    bandwidth = Fraction(p.dbar * point.beta, point.alpha)
    return storage, bandwidth


def sweep_table(
    u: int,
    n_minus_k: int,
    nbars: Sequence[int],
    dbars: Sequence[int],
) -> tuple[list[tuple[SystemParams, TradeoffPoint]], list[str]]:
    """Every (parameter set, tradeoff point) pair over a grid of (nbar, dbar)
    cells with fixed rack size u and fault tolerance n - k, in grid order.
    A cell that is no valid parameter set is skipped with a note."""
    pairs: list[tuple[SystemParams, TradeoffPoint]] = []
    notes: list[str] = []
    for nbar in nbars:
        for dbar in dbars:
            n = nbar * u
            try:
                p = SystemParams(n=n, u=u, k=n - n_minus_k, dbar=dbar)
            except ParameterError as exc:
                notes.append(f"skipped nbar={nbar} dbar={dbar}: {exc}")
                continue
            pairs.extend((p, point) for point in tradeoff_points(p))
    return pairs, notes
