"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines on success).
"""

import itertools
import random
import time
from fractions import Fraction

from codec_oracle import (
    code_matrix,
    encode_column,
    local_polys,
    mbr_codeword_check,
    minimum_distance,
    pack_message,
    poly_eval,
)
from field_oracle import oracle
from flow_oracle import min_cut_over_schedules
from repair_oracle import msrr_helper_response

from rarc.cli import main as cli_main
from rarc.field import make_field
from rarc.formats import format_thousandths
from rarc.mbrr import MbrrCode
from rarc.msrr import MsrrCode
from rarc.params import SystemParams, cutset_bound, mincut_profile, overhead_pair, sweep_table
from rarc.selftest import PUBLISHED_TABLE
from rarc.sim import Cluster, RepairPolicy


def _report(name, started):
    print(f"ACCEPTANCE {name}: PASS ({time.time() - started:.2f}s)")


# ---------------------------------------------------------------------------
# 1. published-table reproduction
# ---------------------------------------------------------------------------

EXPECTED_TABLE = {
    # (nbar, dbar, code): exact storage overhead, before the published rounding
    (10, 0, "msrr"): Fraction(25, 18),
    (10, 4, "msrr"): Fraction(5, 4),
    (10, 4, "mbrr"): Fraction(100, 77),
    (10, 8, "msrr"): Fraction(25, 22),
    (10, 8, "mbrr"): Fraction(100, 81),
    (20, 0, "msrr"): Fraction(25, 19),
    (20, 4, "msrr"): Fraction(5, 4),
    (20, 4, "mbrr"): Fraction(200, 157),
    (20, 8, "msrr"): Fraction(25, 21),
    (20, 8, "mbrr"): Fraction(200, 161),
    (30, 0, "msrr"): Fraction(75, 58),
    (30, 4, "msrr"): Fraction(5, 4),
    (30, 4, "mbrr"): Fraction(100, 79),
    (30, 8, "msrr"): Fraction(75, 62),
    (30, 8, "mbrr"): Fraction(300, 241),
}


def test_criterion_table_reproduction(capsys):
    started = time.time()
    pairs, notes = sweep_table(5, 6, [10, 20, 30], [0, 4, 8])
    assert not notes
    produced = {(p.nbar, p.dbar, point.label): overhead_pair(point, p) for p, point in pairs}
    assert set(produced) == set(EXPECTED_TABLE) == set(PUBLISHED_TABLE)
    for key, storage_exact in EXPECTED_TABLE.items():
        storage, bandwidth = produced[key]
        storage_pub, bandwidth_pub = PUBLISHED_TABLE[key]
        assert storage == storage_exact, key  # exact rational, before rounding
        assert format_thousandths(storage) == format_thousandths(Fraction(storage_pub)), key
        assert format_thousandths(bandwidth) == format_thousandths(Fraction(bandwidth_pub)), key
        assert bandwidth == Fraction(bandwidth_pub)
    assert cli_main(["selftest"]) == 0
    capsys.readouterr()
    elapsed = time.time() - started
    assert elapsed < 1.0, f"table sweep took {elapsed:.2f}s"
    with capsys.disabled():
        _report("table-reproduction", started)


# ---------------------------------------------------------------------------
# 2. scalar-code exhaustive correctness
# ---------------------------------------------------------------------------


def test_criterion_msrr_exhaustive(capsys):
    started = time.time()
    rng = random.Random(401)
    p = SystemParams(n=6, u=2, k=4, dbar=1)
    field = make_field(6, 2, "prime")
    assert field.q == 7
    code = MsrrCode.build(p, field)
    subsets = list(itertools.combinations(range(6), 4))
    assert len(subsets) == 15
    for _ in range(100):
        message = [rng.randrange(7) for _ in range(code.B)]
        codeword = encode_column(code, message)
        for subset in subsets:
            assert code.reconstruct([(i, codeword[i]) for i in subset]) == message
        for idx in range(p.n):
            e_star, g_star = p.node_pair(idx)
            helper_sets = [e for e in range(p.nbar) if e != e_star]
            assert len(helper_sets) == 2
            for helper in helper_sets:
                cluster = Cluster(code).store(message)
                cluster.fail_node((e_star, g_star))
                log = cluster.run_repair(RepairPolicy.explicit([helper]))
                assert cluster.node_data(idx) == [codeword[idx]]
                assert log.cross_rack_symbols == 1
    elapsed = time.time() - started
    assert elapsed < 5.0, f"scalar exhaustive sweep took {elapsed:.2f}s"
    with capsys.disabled():
        _report("msrr-exhaustive", started)


# ---------------------------------------------------------------------------
# 3. array-code exhaustive correctness
# ---------------------------------------------------------------------------


def test_criterion_mbrr_exhaustive(capsys):
    started = time.time()
    rng = random.Random(409)
    instances = [
        SystemParams(n=8, u=2, k=5, dbar=1),
        SystemParams(n=10, u=2, k=7, dbar=2),
    ]
    for p in instances:
        field = make_field(p.n, p.u, "prime")
        assert field.q > p.n and (field.q - 1) % 2 == 0
        code = MbrrCode.build(p, field)
        for _ in range(5):
            data = [rng.randrange(field.q) for _ in range(code.B)]
            C = code_matrix(code, data)
            for subset in itertools.combinations(range(p.n), p.k):
                got = code.reconstruct([(i, C[:, i].tolist()) for i in subset])
                assert got == data
            for idx in range(p.n):
                e_star, g_star = p.node_pair(idx)
                others = [e for e in range(p.nbar) if e != e_star]
                for helpers in itertools.combinations(others, p.dbar):
                    cluster = Cluster(code).store(data)
                    cluster.fail_node((e_star, g_star))
                    log = cluster.run_repair(RepairPolicy.explicit(list(helpers)))
                    assert cluster.node_data(idx) == C[:, idx].tolist()
                    assert log.cross_rack_symbols == p.dbar
                    assert log.intra_rack_symbols == (p.u - 1) * p.dbar
    elapsed = time.time() - started
    assert elapsed < 30.0, f"array exhaustive sweep took {elapsed:.2f}s"
    with capsys.disabled():
        _report("mbrr-exhaustive", started)


# ---------------------------------------------------------------------------
# 4. bound consistency
# ---------------------------------------------------------------------------


def test_criterion_bound_consistency(capsys):
    started = time.time()
    for u in range(2, 6):
        for nbar in range(2, 13):
            n = nbar * u
            for k in range(u, n):
                kbar = k // u
                for dbar in range(0, min(kbar, nbar - 1) + 1):
                    p = SystemParams(n=n, u=u, k=k, dbar=dbar)
                    assert cutset_bound(p, 1, 1 if dbar else 0) == k - kbar + dbar
                    if dbar >= 1:
                        assert (
                            cutset_bound(p, dbar, 1)
                            == (k - kbar) * dbar + dbar * (dbar + 1) // 2
                        )
                    profile = [mincut_profile(p, 1, 1, l) for l in range(kbar + 1)]
                    assert all(a >= b for a, b in zip(profile, profile[1:]))
    # brute-force min-cut over explicitly built flow graphs, five tiny instances
    flow_cases = [
        (SystemParams(n=6, u=2, k=4, dbar=1), 1, 1, 3),  # the worked flow-graph example
        (SystemParams(n=6, u=2, k=4, dbar=0), 1, 0, 2),
        (SystemParams(n=4, u=2, k=2, dbar=1), 1, 1, 2),
        (SystemParams(n=8, u=2, k=5, dbar=2), 1, 1, 5),
        (SystemParams(n=6, u=2, k=4, dbar=1), 2, 1, 5),
    ]
    for p, alpha, beta, expected in flow_cases:
        bound = cutset_bound(p, alpha, beta)
        assert bound == expected
        assert min_cut_over_schedules(p, alpha, beta) == bound
    with capsys.disabled():
        _report("bound-consistency", started)


# ---------------------------------------------------------------------------
# 5. local-repair optimality at dbar = 0
# ---------------------------------------------------------------------------


def test_criterion_local_code_distance(capsys):
    started = time.time()
    # u does not divide k: distance is exactly n - k + 1
    p1 = SystemParams(n=6, u=3, k=4, dbar=0)
    code1 = MsrrCode.build(p1, make_field(6, 3, "prime"))
    assert minimum_distance(code1) == 6 - 4 + 1
    # u | k: stepping down to k - 1 attains n - k + 2
    p2 = SystemParams(n=6, u=2, k=3, dbar=0)
    code2 = MsrrCode.build(p2, make_field(6, 2, "prime"))
    assert minimum_distance(code2) == 6 - 4 + 2
    elapsed = time.time() - started
    assert elapsed < 60.0, f"distance enumeration took {elapsed:.2f}s"
    with capsys.disabled():
        _report("local-code-distance", started)


# ---------------------------------------------------------------------------
# 6. structural identities on random instances
# ---------------------------------------------------------------------------


def test_criterion_structural_identities(capsys):
    started = time.time()
    rng = random.Random(419)
    pool = [
        (6, 2, 4, 1),
        (8, 2, 5, 1),
        (10, 2, 7, 2),
        (12, 2, 8, 3),
        (12, 3, 7, 1),
        (12, 3, 8, 2),
        (10, 5, 8, 1),
    ]
    fields = {}
    codes = {}
    violations = 0
    for _ in range(1000):
        n, u, k, dbar = pool[rng.randrange(len(pool))]
        p = SystemParams(n=n, u=u, k=k, dbar=dbar)
        if (n, u) not in fields:
            fields[(n, u)] = make_field(n, u, "prime")
        field = fields[(n, u)]
        O = oracle(field)
        if (n, u, k, dbar) not in codes:
            codes[(n, u, k, dbar)] = (
                MsrrCode.build(p, field),
                MbrrCode.build(p, field),
            )
        scalar, array = codes[(n, u, k, dbar)]
        # scalar code: rack sums satisfy the stride checks
        codeword = encode_column(scalar, [rng.randrange(field.q) for _ in range(scalar.B)])
        sums = [
            msrr_helper_response(scalar, e, codeword[e * u : (e + 1) * u])
            for e in range(p.nbar)
        ]
        for i in range(p.nbar - p.dbar):
            acc = 0
            for e in range(p.nbar):
                acc = O.add(acc, O.mul(O.pow(scalar.rack_points[e], i), sums[e]))
            if acc != 0:
                violations += 1
        # array code: local family agreement and leading-vector transport
        data = [rng.randrange(field.q) for _ in range(array.B)]
        M = pack_message(p, data)
        C = code_matrix(array, data)
        for e in range(p.nbar):
            polys = local_polys(array, e, M)
            for g in range(u):
                idx = p.node_index(e, g)
                for i in range(p.dbar):
                    if poly_eval(field, polys[i].tolist(), array.lam[idx]) != C[i, idx]:
                        violations += 1
        if not mbr_codeword_check(array, M, C):
            violations += 1
    assert violations == 0
    with capsys.disabled():
        _report("structural-identities", started)


# ---------------------------------------------------------------------------
# 7. end-to-end CLI on a 1 MiB payload
# ---------------------------------------------------------------------------


def test_criterion_cli_end_to_end(tmp_path, capsys):
    started = time.time()
    payload = random.Random(421).randbytes(1 << 20)
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    for code in ("msrr", "mbrr"):
        enc = tmp_path / f"{code}.rarc"
        fixed = tmp_path / f"{code}.fixed"
        out = tmp_path / f"{code}.out"
        assert (
            cli_main(
                [
                    "encode", "--code", code,
                    "--n", "50", "--u", "5", "--k", "44", "--d", "4",
                    "--field", "gf256", str(src), str(enc),
                ]
            )
            == 0
        )
        assert cli_main(["repair", "--failed", "3,2", str(enc), str(fixed)]) == 0
        assert cli_main(["reconstruct", "--nodes", "0-43", str(fixed), str(out)]) == 0
        assert out.read_bytes() == payload
    # field-size and sub-packetization invariants at this scale
    p = SystemParams(n=50, u=5, k=44, dbar=4)
    field = make_field(50, 5, "gf256")
    assert field.q > p.n
    assert MsrrCode.build(p, field).alpha == 1
    assert MbrrCode.build(p, field).alpha == p.dbar
    capsys.readouterr()
    elapsed = time.time() - started
    assert elapsed < 10.0, f"end-to-end pipelines took {elapsed:.2f}s"
    with capsys.disabled():
        _report("cli-end-to-end", started)
