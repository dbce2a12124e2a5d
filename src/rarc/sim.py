"""Cluster simulation: place a codeword on a rack topology, inject a
single-node failure, run the repair flow, and meter traffic.

Traffic is counted in field symbols, split at the rack boundary: helper
racks compute their responses from their own stored symbols only, and
every cross-rack transfer appears in the event trace.  The counts on a
``TrafficLog`` are derived from the trace, not asserted alongside it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bulk import repair_stripes
from .errors import ParameterError
from .mbrr import MbrrCode
from .msrr import MsrrCode
from .params import (
    MBRR,
    MSRR,
    SystemParams,
    check_helper_racks,
    mbrr_point,
    msrr_point,
    overhead_pair,
)


@dataclass(frozen=True)
class TrafficEvent:
    kind: str  # "cross" or "intra"
    src_rack: int
    dst_rack: int
    symbols: int


class TrafficLog:
    """Per-repair accounting; totals are computed from the event trace."""

    def __init__(self):
        self.events: list[TrafficEvent] = []

    def record_cross(self, src_rack: int, dst_rack: int, symbols: int) -> None:
        self.events.append(TrafficEvent("cross", src_rack, dst_rack, symbols))

    def record_intra(self, rack: int, symbols: int) -> None:
        self.events.append(TrafficEvent("intra", rack, rack, symbols))

    @property
    def cross_rack_symbols(self) -> int:
        return sum(e.symbols for e in self.events if e.kind == "cross")

    @property
    def intra_rack_symbols(self) -> int:
        return sum(e.symbols for e in self.events if e.kind == "intra")

    @property
    def helper_racks_used(self) -> list[int]:
        seen: list[int] = []
        for e in self.events:
            if e.kind == "cross" and e.src_rack not in seen:
                seen.append(e.src_rack)
        return seen


@dataclass(frozen=True)
class RepairPolicy:
    """Helper-rack selection: lowest-index, seeded-random, or an explicit list."""

    kind: str
    seed: int | None = None
    racks: tuple[int, ...] | None = None

    @classmethod
    def lowest_index(cls) -> "RepairPolicy":
        return cls(kind="lowest-index")

    @classmethod
    def uniform_random(cls, seed: int) -> "RepairPolicy":
        return cls(kind="random", seed=seed)

    @classmethod
    def explicit(cls, racks: Sequence[int]) -> "RepairPolicy":
        return cls(kind="explicit", racks=tuple(racks))

    def select(self, failed_rack: int, nbar: int, dbar: int) -> list[int]:
        candidates = [e for e in range(nbar) if e != failed_rack]
        if self.kind == "lowest-index":
            return candidates[:dbar]
        if self.kind == "random":
            if self.seed is None:
                raise ParameterError("random policy needs a seed")
            return sorted(random.Random(self.seed).sample(candidates, dbar))
        if self.kind == "explicit":
            return check_helper_racks(failed_rack, self.racks or (), nbar, dbar)
        raise ParameterError(f"unknown policy kind {self.kind!r}")


class Cluster:
    """An nbar x u topology holding one stripe of an MSRR or MBRR code, as
    one (n*alpha x 1) column: node c holds rows c*alpha ... c*alpha + alpha - 1.

    Mutating operations (store / fail_node / run_repair) are single-writer;
    read-only inspection may happen concurrently.
    """

    def __init__(self, code: MsrrCode | MbrrCode):
        self.code = code
        self.params = code.params
        self.stripe: np.ndarray | None = None
        self.failed: tuple[int, int] | None = None

    def store(self, data: Sequence[int]) -> "Cluster":
        """Encode B payload symbols as one stripe column through the code's
        generator and place alpha symbols on every node."""
        code = self.code
        if self.failed is not None:
            raise ParameterError("repair the pending failure before restoring")
        self.stripe = code.encode_stripes(code.field.symbol_array(data).reshape(-1, 1))
        return self

    def _rows(self, idx: int) -> slice:
        return slice(idx * self.code.alpha, (idx + 1) * self.code.alpha)

    def node_data(self, node: tuple[int, int] | int) -> list[int] | None:
        idx = node if isinstance(node, int) else self.params.node_index(*node)
        self.params.node_pair(idx)  # bounds check
        if self.stripe is None or (
            self.failed is not None and idx == self.params.node_index(*self.failed)
        ):
            return None
        return self.stripe[self._rows(idx), 0].tolist()

    def fail_node(self, node: tuple[int, int]) -> None:
        if self.failed is not None:
            raise ParameterError("only one concurrent failure is supported")
        idx = self.params.node_index(*node)
        if self.stripe is None:
            raise ParameterError(f"node {node} holds no data")
        self.stripe[self._rows(idx)] = 0  # the node's symbols are lost
        self.failed = node

    def run_repair(self, policy: RepairPolicy) -> TrafficLog:
        """Rebuild the failed node with ``bulk.repair_stripes``: each helper
        rack computes its response from its own stored symbols only.
        Returns the traffic: alpha symbols from each local node and one
        response symbol from each helper rack."""
        if self.failed is None:
            raise ParameterError("no failure pending")
        p = self.params
        e_star = self.failed[0]
        helper_racks = policy.select(e_star, p.nbar, p.dbar)
        rebuilt, _, responses = repair_stripes(
            self.code, self.failed, helper_racks, self.stripe
        )
        log = TrafficLog()
        for _ in range(p.u - 1):  # alpha rows from each local node
            log.record_intra(e_star, self.code.alpha)
        for h in helper_racks:  # one response row from each helper rack
            log.record_cross(h, e_star, responses.shape[1])
        self.stripe[self._rows(p.node_index(*self.failed))] = rebuilt
        self.failed = None
        return log


@dataclass(frozen=True)
class SweepRow:
    """One (nbar, dbar, code) cell of an overhead sweep."""

    nbar: int
    dbar: int
    code: str
    n: int
    k: int
    alpha: int
    beta: int
    B: int
    storage: Fraction
    bandwidth: Fraction


def sweep_table(
    u: int,
    n_minus_k: int,
    nbars: Sequence[int],
    dbars: Sequence[int],
) -> tuple[list[SweepRow], list[str]]:
    """Overhead pairs (n*alpha/B, dbar*beta/alpha) over a parameter grid with
    fixed rack size and fault tolerance.  Invalid cells are skipped with a
    note."""
    rows: list[SweepRow] = []
    notes: list[str] = []
    for nbar in nbars:
        for dbar in dbars:
            n = nbar * u
            k = n - n_minus_k
            try:
                p = SystemParams(n=n, u=u, k=k, dbar=dbar)
            except ParameterError as exc:
                notes.append(f"skipped nbar={nbar} dbar={dbar}: {exc}")
                continue
            points = [msrr_point(p)]
            if dbar >= 1:
                points.append(mbrr_point(p))
            for point in points:
                storage, bandwidth = overhead_pair(point, p)
                rows.append(
                    SweepRow(
                        nbar=nbar,
                        dbar=dbar,
                        code=point.label,
                        n=n,
                        k=k,
                        alpha=point.alpha,
                        beta=point.beta,
                        B=point.B,
                        storage=storage,
                        bandwidth=bandwidth,
                    )
                )
    return rows, notes


__all__ = [
    "Cluster",
    "RepairPolicy",
    "SweepRow",
    "TrafficEvent",
    "TrafficLog",
    "sweep_table",
    "MBRR",
    "MSRR",
]
