"""The install check behind ``rarc selftest``, runnable without pytest:
exhaustive round trips through both codes on small instances, and the
overhead sweep against the published table.  The field algebra, the
cut-set bound and the codes' identities are checked by the test suite.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import make_field
from .formats import format_thousandths
from .mbrr import MbrrCode
from .msrr import MsrrCode
from .params import MBRR, MSRR, SystemParams, mbrr_point, msrr_point, overhead_pair, sweep_table
from .sim import Cluster, RepairPolicy

#: Published overhead pairs for the u=5, n-k=6 sweep, as printed in the
#: source tables this tool reproduces: (nbar, dbar, code) -> (storage, bandwidth).
PUBLISHED_TABLE = {
    (10, 0, MSRR): ("1.389", "0"),
    (10, 4, MSRR): ("1.25", "4"),
    (10, 4, MBRR): ("1.299", "1"),
    (10, 8, MSRR): ("1.136", "8"),
    (10, 8, MBRR): ("1.235", "1"),
    (20, 0, MSRR): ("1.316", "0"),
    (20, 4, MSRR): ("1.25", "4"),
    (20, 4, MBRR): ("1.274", "1"),
    (20, 8, MSRR): ("1.190", "8"),
    (20, 8, MBRR): ("1.242", "1"),
    (30, 0, MSRR): ("1.293", "0"),
    (30, 4, MSRR): ("1.25", "4"),
    (30, 4, MBRR): ("1.266", "1"),
    (30, 8, MSRR): ("1.210", "8"),
    (30, 8, MBRR): ("1.245", "1"),
}


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _code_small(name: str, cls, point, n: int, u: int, k: int, dbar: int):
    """Every k-subset reconstructs 20 random stripes, and a ``Cluster``
    holding them repairs every node with dbar * beta cross-rack symbols
    per stripe."""

    def suite(seed: int) -> SuiteResult:
        rng = random.Random(seed)
        p = SystemParams(n=n, u=u, k=k, dbar=dbar)
        field = make_field(n, u, "prime")
        code = cls.build(p, field)
        values = [rng.randrange(field.q) for _ in range(code.B * 20)]
        data = field.symbol_array(values).reshape(code.B, 20)
        body = code.encode_stripes(data)
        a = code.alpha
        for subset in itertools.combinations(range(p.n), p.k):
            rows = body[[i * a + r for i in subset for r in range(a)]]
            if not np.array_equal(code.reconstruct_stripes(list(subset), rows), data):
                return SuiteResult(name, False, f"reconstruction fails on {subset}")
        for idx in range(p.n):
            cluster = Cluster(code, body.copy())
            cluster.fail_node(p.node_pair(idx))
            log = cluster.run_repair(RepairPolicy.lowest_index())
            if not np.array_equal(cluster.stripes, body):
                return SuiteResult(name, False, f"repair of node {idx} is wrong")
            if log.cross_rack_symbols != p.dbar * point(p).beta * data.shape[1]:
                return SuiteResult(name, False, "cross-rack traffic off")
        return SuiteResult(name, True, "exhaustive reconstruction and repair hold")

    return suite


def _published_table(_seed: int) -> SuiteResult:
    """The u=5, n-k=6 sweep over the published cells matches every
    published pair after exact 3-decimal rounding on both sides."""
    nbars = sorted({nbar for nbar, _, _ in PUBLISHED_TABLE})
    dbars = sorted({dbar for _, dbar, _ in PUBLISHED_TABLE})
    pairs, _ = sweep_table(5, 6, nbars, dbars)
    produced = {(p.nbar, p.dbar, point.label): overhead_pair(point, p) for p, point in pairs}
    for cell, published in PUBLISHED_TABLE.items():
        if cell not in produced:
            return SuiteResult("published-table", False, f"cell {cell} missing from the sweep")
        ours = [format_thousandths(x) for x in produced[cell]]
        theirs = [format_thousandths(Fraction(x)) for x in published]
        if ours != theirs:
            return SuiteResult("published-table", False, f"cell {cell}: {ours} != {theirs}")
    return SuiteResult("published-table", True, f"all {len(PUBLISHED_TABLE)} published pairs match")


_SUITES = (
    _code_small("msrr-small", MsrrCode, msrr_point, 6, 2, 4, 1),
    _code_small("mbrr-small", MbrrCode, mbrr_point, 8, 2, 5, 1),
    _published_table,
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in _SUITES]
