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

from .errors import ParameterError
from .linalg import dot, mat_vec
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
    """An nbar x u topology holding one stripe of an MSRR or MBRR code.

    Mutating operations (store / fail_node / run_repair) are single-writer;
    read-only inspection may happen concurrently.
    """

    def __init__(self, code: MsrrCode | MbrrCode):
        self.code = code
        self.params = code.params
        self.nodes: list[list[int] | None] = [None] * code.params.n
        self.failed: tuple[int, int] | None = None

    def store(self, data: Sequence[int]) -> "Cluster":
        """Encode B payload symbols as one stripe column through the code's
        generator and place alpha symbols on every node."""
        code = self.code
        if self.failed is not None:
            raise ParameterError("repair the pending failure before restoring")
        column = code.field.symbol_array(data).reshape(-1, 1)
        self.nodes = code.encode_stripes(column).reshape(self.params.n, code.alpha).tolist()
        return self

    def node_data(self, node: tuple[int, int] | int) -> list[int] | None:
        idx = node if isinstance(node, int) else self.params.node_index(*node)
        data = self.nodes[idx]
        return None if data is None else list(data)

    def fail_node(self, node: tuple[int, int]) -> None:
        if self.failed is not None:
            raise ParameterError("only one concurrent failure is supported")
        idx = self.params.node_index(*node)
        if self.nodes[idx] is None:
            raise ParameterError(f"node {node} holds no data")
        self.nodes[idx] = None
        self.failed = node

    def _rack_payload(self, rack: int) -> list[list[int]]:
        cols = []
        for g in range(self.params.u):
            data = self.nodes[self.params.node_index(rack, g)]
            if data is None:
                raise ParameterError(f"rack {rack} is incomplete")
            cols.append(data)
        return cols

    def run_repair(self, policy: RepairPolicy) -> TrafficLog:
        """Rebuild the failed node through the code's ``repair_maps``: each
        helper rack computes its response from its own stored symbols only.
        Returns the metered traffic."""
        if self.failed is None:
            raise ParameterError("no failure pending")
        p = self.params
        F = self.code.field
        e_star, g_star = self.failed
        helper_racks = policy.select(e_star, p.nbar, p.dbar)
        helper, rebuild = self.code.repair_maps(self.failed, helper_racks)
        log = TrafficLog()
        symbols: list[int] = []
        for g in range(p.u):
            if g != g_star:
                data = self.nodes[p.node_index(e_star, g)]
                if data is None:
                    raise ParameterError("local rack is incomplete")
                log.record_intra(e_star, len(data))
                symbols.extend(data)
        for row, h in zip(helper.to_rows(), helper_racks):
            stored = [sym for col in self._rack_payload(h) for sym in col]
            symbols.append(dot(F, row, stored))
            log.record_cross(h, e_star, 1)
        self.nodes[p.node_index(e_star, g_star)] = mat_vec(F, rebuild, symbols)
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
