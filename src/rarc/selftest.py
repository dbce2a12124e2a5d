"""Exhaustive small-instance self-checks, runnable without pytest."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .field import make_field, multiplicative_order
from .mbrr import MbrrCode
from .msrr import MsrrCode
from .params import SystemParams, cutset_bound, mbrr_point, mincut_profile, msrr_point
from .sim import Cluster, RepairPolicy


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _field_axioms(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    for field in (make_field(6, 2, "prime"), make_field(50, 5, "gf256")):
        if multiplicative_order(field, field.xi) != field.q - 1:
            return SuiteResult("field-axioms", False, f"{field!r}: xi not primitive")
        if multiplicative_order(field, field.eta) != field.u:
            return SuiteResult("field-axioms", False, f"{field!r}: eta order wrong")
        for _ in range(200):
            a, b, c = (rng.randrange(field.q) for _ in range(3))
            if field.add(field.add(a, b), c) != field.add(a, field.add(b, c)):
                return SuiteResult("field-axioms", False, f"{field!r}: add not associative")
            lhs = field.mul(a, field.add(b, c))
            rhs = field.add(field.mul(a, b), field.mul(a, c))
            if lhs != rhs:
                return SuiteResult("field-axioms", False, f"{field!r}: not distributive")
            if a != 0 and field.mul(a, field.inv(a)) != 1:
                return SuiteResult("field-axioms", False, f"{field!r}: inverse broken")
    return SuiteResult("field-axioms", True, "orders and axioms hold")


def _bound_consistency(_seed: int) -> SuiteResult:
    for u in range(2, 6):
        for nbar in range(2, 7):
            n = nbar * u
            for k in range(u, n):
                p = SystemParams(n=n, u=u, k=k, dbar=0)
                for dbar in range(0, min(p.kbar, nbar - 1) + 1):
                    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
                    ms = msrr_point(p)
                    if cutset_bound(p, ms.alpha, ms.beta) != ms.B:
                        return SuiteResult("bound-consistency", False, f"{p}: storage point off")
                    if dbar >= 1:
                        mb = mbrr_point(p)
                        if cutset_bound(p, mb.alpha, mb.beta) != mb.B:
                            return SuiteResult(
                                "bound-consistency", False, f"{p}: bandwidth point off"
                            )
                    profile = [mincut_profile(p, 1, 1, l) for l in range(p.kbar + 1)]
                    if any(a < b for a, b in zip(profile, profile[1:])):
                        return SuiteResult(
                            "bound-consistency", False, f"{p}: profile not non-increasing"
                        )
    return SuiteResult("bound-consistency", True, "tradeoff points and profiles agree")


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


_SUITES = (
    _field_axioms,
    _bound_consistency,
    _code_small("msrr-small", MsrrCode, msrr_point, 6, 2, 4, 1),
    _code_small("mbrr-small", MbrrCode, mbrr_point, 8, 2, 5, 1),
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in _SUITES]
