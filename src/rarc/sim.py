"""Cluster simulation: place stripes on a rack topology, inject a
single-node failure, run the repair flow, and meter traffic.

``Cluster.run_repair`` is the one repair engine, behind ``rarc repair``
too.  Traffic is counted in field symbols, split at the rack boundary:
helper racks compute their responses from their own stored symbols only,
and the counts on a ``TrafficLog`` are the sizes of the arrays
``bulk.repair_stripes`` moved, not a formula asserted alongside them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bulk import repair_stripes
from .errors import ParameterError
from .mbrr import MbrrCode
from .msrr import MsrrCode
from .params import check_helper_racks


@dataclass(frozen=True)
class TrafficLog:
    """What one repair moved: per stripe, ``cross_per_stripe`` response
    symbols from ``helper_racks`` into the failed node's rack and
    ``intra_per_stripe`` symbols from the failed node's rack mates."""

    failed: tuple[int, int]
    helper_racks: tuple[int, ...]
    stripes: int
    cross_per_stripe: int
    intra_per_stripe: int

    @property
    def cross_rack_symbols(self) -> int:
        return self.cross_per_stripe * self.stripes

    @property
    def intra_rack_symbols(self) -> int:
        return self.intra_per_stripe * self.stripes


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
    """An nbar x u topology holding stripes of an MSRR or MBRR code as one
    (n*alpha x stripes) matrix, one stripe per column: node c holds rows
    c*alpha ... c*alpha + alpha - 1.  A matrix passed in is held, not
    copied, so failures and repairs write into it.

    Mutating operations (store / fail_node / run_repair) are single-writer;
    read-only inspection may happen concurrently.
    """

    def __init__(self, code: MsrrCode | MbrrCode, stripes: np.ndarray | None = None):
        self.code = code
        self.params = code.params
        if stripes is not None and stripes.shape[0] != self.params.n * code.alpha:
            raise ParameterError(f"a stripe matrix has {self.params.n * code.alpha} rows")
        self.stripes = stripes
        self.failed: tuple[int, int] | None = None

    def store(self, data: Sequence[int]) -> "Cluster":
        """Encode B payload symbols as one stripe column through
        ``encode_stripes`` and place alpha symbols on every node."""
        code = self.code
        if self.failed is not None:
            raise ParameterError("repair the pending failure before restoring")
        self.stripes = code.encode_stripes(code.field.symbol_array(data).reshape(-1, 1))
        return self

    def _rows(self, idx: int) -> slice:
        return slice(idx * self.code.alpha, (idx + 1) * self.code.alpha)

    def node_data(self, node: tuple[int, int] | int) -> list[int] | None:
        """The node's symbols, stripe by stripe; None once it has failed."""
        idx = node if isinstance(node, int) else self.params.node_index(*node)
        self.params.node_pair(idx)  # bounds check
        if self.stripes is None or (
            self.failed is not None and idx == self.params.node_index(*self.failed)
        ):
            return None
        return self.stripes[self._rows(idx)].ravel(order="F").tolist()

    def fail_node(self, node: tuple[int, int]) -> None:
        if self.failed is not None:
            raise ParameterError("only one concurrent failure is supported")
        idx = self.params.node_index(*node)
        if self.stripes is None:
            raise ParameterError(f"node {node} holds no data")
        self.stripes[self._rows(idx)] = 0  # the node's symbols are lost
        self.failed = node

    def run_repair(self, policy: RepairPolicy) -> TrafficLog:
        """Rebuild the failed node with ``bulk.repair_stripes``: each helper
        rack computes its response from its own stored symbols only.
        Returns the traffic, counted from the local rows and the responses
        that moved."""
        if self.failed is None:
            raise ParameterError("no failure pending")
        p = self.params
        failed = self.failed
        helper_racks = policy.select(failed[0], p.nbar, p.dbar)
        rebuilt, local, responses = repair_stripes(self.code, failed, helper_racks, self.stripes)
        self.stripes[self._rows(p.node_index(*failed))] = rebuilt
        self.failed = None
        return TrafficLog(
            failed, tuple(helper_racks), self.stripes.shape[1], responses.shape[0], local.shape[0]
        )


__all__ = [
    "Cluster",
    "RepairPolicy",
    "TrafficLog",
]
