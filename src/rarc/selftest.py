"""Exhaustive small-instance self-checks, runnable without pytest."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .field import make_field, multiplicative_order
from .linalg import poly_eval
from .mbrr import MbrrCode, pack_message, symmetric_block
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


def _msrr_small(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    field = make_field(6, 2, "prime")
    code = MsrrCode.build(p, field)
    for _ in range(20):
        message = [rng.randrange(field.q) for _ in range(code.B)]
        codeword = code.encode(message)
        if not code.parity_ok(codeword):
            return SuiteResult("msrr-small", False, "parity checks fail after encode")
        for subset in itertools.combinations(range(p.n), p.k):
            if code.reconstruct([(i, codeword[i]) for i in subset]) != message:
                return SuiteResult("msrr-small", False, f"reconstruction fails on {subset}")
        for idx in range(p.n):
            e_star, g_star = p.node_pair(idx)
            cluster = Cluster(code).store(message)
            cluster.fail_node((e_star, g_star))
            log = cluster.run_repair(RepairPolicy.lowest_index())
            if cluster.node_data(idx) != [codeword[idx]]:
                return SuiteResult("msrr-small", False, f"repair of node {idx} is wrong")
            if log.cross_rack_symbols != p.dbar:
                return SuiteResult("msrr-small", False, "cross-rack traffic off")
    return SuiteResult("msrr-small", True, "exhaustive reconstruction and repair hold")


def _mbrr_identities(seed: int) -> SuiteResult:
    rng = random.Random(seed)
    p = SystemParams(n=8, u=2, k=5, dbar=1)
    field = make_field(8, 2, "prime")
    code = MbrrCode.build(p, field)
    for _ in range(20):
        data = [rng.randrange(field.q) for _ in range(code.B)]
        M = pack_message(p, data)
        C = code.encode(M)
        for e in range(p.nbar):
            polys = code.local_polys(e, M)
            for g in range(p.u):
                idx = p.node_index(e, g)
                for i in range(p.dbar):
                    if poly_eval(field, polys[i].tolist(), code.lam[idx]) != C[i, idx]:
                        return SuiteResult(
                            "mbrr-identities", False, f"local family misses node ({e},{g})"
                        )
            stored = [code.node_column(C, p.node_index(e, g)) for g in range(p.u)]
            if code.leading_vector_from_storage(e, stored) != polys[:, -1].tolist():
                return SuiteResult("mbrr-identities", False, f"leading vector off at rack {e}")
        if not code.mbr_codeword_check(M, C):
            return SuiteResult("mbrr-identities", False, "leading-vector transport broken")
        S = symmetric_block(p, M)
        if S[0, 0] != M[0, p.u - 1]:
            return SuiteResult("mbrr-identities", False, "symmetric block extraction off")
        if code.reconstruct(
            [(idx, code.node_column(C, idx)) for idx in range(p.k)]
        ) != data:
            return SuiteResult("mbrr-identities", False, "reconstruction fails")
    return SuiteResult("mbrr-identities", True, "local family and transport identities hold")


_SUITES = (_field_axioms, _bound_consistency, _msrr_small, _mbrr_identities)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in _SUITES]
