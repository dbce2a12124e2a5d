import hashlib
import os
import random
import struct
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rarc import bulk, cli, selftest
from rarc.cli import main
from rarc.field import PrimeField
from rarc.formats import (
    EncodedFile,
    format_thousandths,
    parse_encoded,
    parse_report,
    serialize_encoded,
)
from rarc.mbrr import _DENSE_STRIPES
from rarc.msrr import MsrrCode
from rarc.params import SystemParams
from rarc.sim import Cluster, RepairPolicy


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def test_params_reports_both_points(capsys):
    rc, out, _ = run_cli(capsys, "params", "--n", "50", "--u", "5", "--k", "44", "--d", "4")
    assert rc == 0
    records = dict()
    for kind, fields in parse_report(out):
        records.setdefault(kind, []).append(fields)
    head = records["params"][0]
    assert (head["nbar"], head["kbar"], head["u0"]) == (10, 8, 4)
    points = {r["code"]: r for r in records["point"]}
    assert points["msrr"]["B"] == 40
    assert points["mbrr"]["B"] == 154
    assert points["msrr"]["cutset"] == 40
    assert points["mbrr"]["storage"] == Fraction(200, 154)


def test_params_msrr_only_at_dbar_zero(capsys):
    rc, out, _ = run_cli(capsys, "params", "--n", "50", "--u", "5", "--k", "44", "--d", "0")
    assert rc == 0
    points = [f for kind, f in parse_report(out) if kind == "point"]
    assert [p["code"] for p in points] == ["msrr"]
    assert points[0]["B"] == 36


def test_params_invalid_exits_one(capsys):
    rc, _, err = run_cli(capsys, "params", "--n", "50", "--u", "5", "--k", "44", "--d", "9")
    assert rc == 1
    assert "dbar" in err


# ---------------------------------------------------------------------------
# encode / repair / reconstruct round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("code", ["msrr", "mbrr"])
def test_tiny_prime_field_refuses_byte_payloads(tmp_path, capsys, code):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(range(251)) * 3)
    enc = tmp_path / "data.rarc"
    rc, _, err = run_cli(
        capsys,
        "encode", "--code", code,
        "--n", "10", "--u", "2", "--k", "7", "--d", "2",
        "--field", "prime",  # p = 11 < 131 cannot carry bytes
        str(src), str(enc),
    )
    assert rc == 1
    assert "131" in err


@pytest.mark.parametrize("code", ["msrr", "mbrr"])
def test_gf256_round_trip_with_repair(tmp_path, capsys, code):
    payload = os.urandom(3000)
    src = tmp_path / "payload.bin"
    src.write_bytes(payload)
    enc = tmp_path / "data.rarc"
    fixed = tmp_path / "data.fixed"
    out = tmp_path / "payload.out"
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", code,
        "--n", "10", "--u", "5", "--k", "8", "--d", "1",
        "--field", "gf256", str(src), str(enc),
    )
    assert rc == 0
    rc, out_text, _ = run_cli(capsys, "repair", "--failed", "1,3", str(enc), str(fixed))
    assert rc == 0
    traffic = dict(parse_report(out_text))["traffic"]
    assert traffic["verified"] == "yes"
    assert traffic["cross_per_stripe"] == 1
    assert fixed.read_bytes() == enc.read_bytes()  # verified repair is bit-identical
    rc, _, _ = run_cli(capsys, "reconstruct", "--nodes", "0-7", str(fixed), str(out))
    assert rc == 0
    assert out.read_bytes() == payload


def test_encode_empty_payload(tmp_path, capsys):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    enc = tmp_path / "empty.rarc"
    out = tmp_path / "empty.out"
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", "msrr",
        "--n", "10", "--u", "5", "--k", "8", "--d", "1",
        "--field", "gf256", str(src), str(enc),
    )
    assert rc == 0
    assert enc.stat().st_size == 17 + 8  # header and trailer only
    rc, _, _ = run_cli(capsys, "reconstruct", "--nodes", "0-7", str(enc), str(out))
    assert rc == 0
    assert out.read_bytes() == b""


def test_encode_is_deterministic(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(b"determinism matters" * 10)
    enc1, enc2 = tmp_path / "a.rarc", tmp_path / "b.rarc"
    for enc in (enc1, enc2):
        rc, _, _ = run_cli(
            capsys,
            "encode", "--code", "mbrr",
            "--n", "10", "--u", "5", "--k", "8", "--d", "1",
            "--field", "gf256", str(src), str(enc),
        )
        assert rc == 0
    assert enc1.read_bytes() == enc2.read_bytes()


# SHA-256 of the encoded file of random.Random(14).randbytes(size): a
# narrow payload (for MBRR, at most _DENSE_STRIPES stripes: one product
# with its powers) and two wider ones (the rack maps) per code and
# production shape
ENCODED_SHA256 = {
    ("msrr", "50 5 44 4", 500): "f80a30f49f6db7adfff7ece15c6bbd89b7d51ef2991d4f77ab10dcdc33419bcd",
    ("mbrr", "50 5 44 4", 500): "6c88d5942155104afd8ac00affaf156c58e931107e103b8ca78078645070be95",
    ("msrr", "132 4 120 4", 500): "0122d039d2bf475e5ec8b4277379f3a19aeb341fa1505d247c88ce4ab6ada831",
    ("mbrr", "132 4 120 4", 500): "2549898ae9ebad9f75c5e7ac2a602b0b504aba5d9c47425c3340b7409ce43ad7",
    ("msrr", "50 5 44 4", 2000): "36b6a1c9b3e087280e3400815b1d44b79cd429d4aff91cba8272cf737902e42c",
    ("msrr", "50 5 44 4", 100000): "6cb88f08032ee26895b9e8d8707e2d4333f1e36446c9e2ec9cde78e06ff88de8",
    ("mbrr", "50 5 44 4", 2000): "6f916e4add4a40ecee423b1b4320973f08aa043cae267d0b81307ceaa41763b7",
    ("mbrr", "50 5 44 4", 100000): "d2b01da17905a3033045c9dae69e57b4e7995f87f753f8499bddf9bb3bd80edf",
    ("msrr", "132 4 120 4", 2000): "8f61414325f4288e78c957abe5c23da211f09679b42e0127c1549286982067cd",
    ("msrr", "132 4 120 4", 100000): "71209c1bcc633551340732b9711003b25a28d44fbc632e82737db27960806646",
    ("mbrr", "132 4 120 4", 2000): "2617c6fca94cabf596ffb2e21ee3e42e31b3a482313b62890f990ef16bdc7dbd",
    ("mbrr", "132 4 120 4", 100000): "23bb8efac88f4cc3a6d15b94301e465dbd1c87bb439066d84bac353ad24b26b3",
}


@pytest.mark.parametrize("code,shape,size", list(ENCODED_SHA256))
def test_encoded_bytes_are_pinned(tmp_path, capsys, code, shape, size):
    n, u, k, d = shape.split()
    src, enc = tmp_path / "payload.bin", tmp_path / "data.rarc"
    src.write_bytes(random.Random(14).randbytes(size))
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", code, "--n", n, "--u", u, "--k", k, "--d", d, str(src), str(enc),
    )
    assert rc == 0
    encoded = enc.read_bytes()
    assert hashlib.sha256(encoded).hexdigest() == ENCODED_SHA256[code, shape, size]
    stripes = parse_encoded(encoded).body.shape[0]
    if code == "mbrr":
        assert (stripes <= _DENSE_STRIPES) == (size == 500)


def test_repair_policies_and_seeded_randomness(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(os.urandom(500))
    enc = tmp_path / "data.rarc"
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", "msrr",
        "--n", "25", "--u", "5", "--k", "22", "--d", "2",
        "--field", "gf256", str(src), str(enc),
    )
    assert rc == 0
    outputs = []
    for out_name in ("r1", "r2"):
        rc, out_text, _ = run_cli(
            capsys,
            "repair", "--failed", "2,0", "--policy", "random", "--seed", "9",
            str(enc), str(tmp_path / out_name),
        )
        assert rc == 0
        outputs.append(dict(parse_report(out_text))["traffic"]["helpers"])
    assert outputs[0] == outputs[1]
    rc, out_text, _ = run_cli(
        capsys, "repair", "--failed", "2,0", "--policy", "3,4", str(enc), str(tmp_path / "r3")
    )
    assert rc == 0
    assert dict(parse_report(out_text))["traffic"]["helpers"] == "3,4"


def test_repair_detects_corrupted_body(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(os.urandom(400))
    enc = tmp_path / "data.rarc"
    run_cli(
        capsys,
        "encode", "--code", "msrr",
        "--n", "10", "--u", "5", "--k", "8", "--d", "1",
        "--field", "gf256", str(src), str(enc),
    )
    blob = bytearray(enc.read_bytes())
    blob[17 + 5] ^= 0x5A  # flip one stored symbol of node 5
    enc.write_bytes(bytes(blob))
    rc, _, err = run_cli(capsys, "repair", "--failed", "1,0", str(enc), str(tmp_path / "r"))
    assert rc == 2
    assert "verification" in err


@pytest.mark.parametrize("code,alpha", [("msrr", 1), ("mbrr", 2)])
def test_repair_traffic_is_counted_from_the_rows_moved(tmp_path, capsys, code, alpha):
    src = tmp_path / "payload.bin"
    src.write_bytes(os.urandom(700))
    enc = tmp_path / "data.rarc"
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", code,
        "--n", "25", "--u", "5", "--k", "22", "--d", "2",
        "--field", "gf256", str(src), str(enc),
    )
    assert rc == 0
    rc, out_text, _ = run_cli(capsys, "repair", "--failed", "3,1", str(enc), str(tmp_path / "r"))
    assert rc == 0
    traffic = dict(parse_report(out_text))["traffic"]
    stripes = traffic["stripes"]
    assert stripes > 1
    assert traffic["cross_rack_symbols"] == 2 * stripes  # dbar per stripe
    assert traffic["intra_rack_symbols"] == (5 - 1) * alpha * stripes
    assert (traffic["cross_per_stripe"], traffic["intra_per_stripe"]) == (2, 4 * alpha)
    ef = parse_encoded(enc.read_bytes())
    cluster = Cluster(bulk.build_code(code, ef.params, ef.field), ef.body.copy().T)
    cluster.fail_node((3, 1))
    log = cluster.run_repair(RepairPolicy.lowest_index())
    assert traffic == {
        "failed": "3,1",
        "stripes": log.stripes,
        "helpers": ",".join(str(h) for h in log.helper_racks),
        "cross_rack_symbols": log.cross_rack_symbols,
        "intra_rack_symbols": log.intra_rack_symbols,
        "cross_per_stripe": log.cross_per_stripe,
        "intra_per_stripe": log.intra_per_stripe,
        "verified": "yes",
    }


def test_reconstruct_does_not_blame_a_healthy_node(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(range(256)) * 20)
    enc = tmp_path / "data.rarc"
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", "mbrr",
        "--n", "50", "--u", "5", "--k", "44", "--d", "4",
        "--field", "gf256", str(src), str(enc),
    )
    assert rc == 0
    ef = parse_encoded(enc.read_bytes())
    body = ef.body.copy()
    body[:, 17 * ef.alpha : 18 * ef.alpha] ^= 0x11  # damage node (3,2) in every stripe
    enc.write_bytes(serialize_encoded(EncodedFile("mbrr", ef.params, ef.field, body, ef.payload_len)))
    rc, _, err = run_cli(capsys, "reconstruct", "--nodes", "0-49", str(enc), str(tmp_path / "o"))
    assert rc == 2
    assert "inconsistent" in err and "stripe 0" in err
    assert "node 44" not in err


def test_corrupt_magic_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(b"x" * 100)
    enc = tmp_path / "data.rarc"
    run_cli(
        capsys,
        "encode", "--code", "msrr",
        "--n", "10", "--u", "5", "--k", "8", "--d", "1",
        "--field", "gf256", str(src), str(enc),
    )
    blob = bytearray(enc.read_bytes())
    blob[0] = 0
    enc.write_bytes(bytes(blob))
    rc, _, err = run_cli(capsys, "reconstruct", "--nodes", "0-7", str(enc), str(tmp_path / "o"))
    assert rc == 1
    assert "magic" in err


def test_missing_input_is_io_error(tmp_path, capsys):
    rc, _, err = run_cli(
        capsys,
        "encode", "--code", "msrr", "--n", "10", "--u", "5", "--k", "8", "--d", "1",
        str(tmp_path / "nope.bin"), str(tmp_path / "out.rarc"),
    )
    assert rc == 3
    assert "io error" in err


def test_reconstruct_needs_k_nodes(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(b"y" * 64)
    enc = tmp_path / "data.rarc"
    run_cli(
        capsys,
        "encode", "--code", "msrr",
        "--n", "10", "--u", "5", "--k", "8", "--d", "1",
        "--field", "gf256", str(src), str(enc),
    )
    rc, _, err = run_cli(capsys, "reconstruct", "--nodes", "0-6", str(enc), str(tmp_path / "o"))
    assert rc == 1


@pytest.mark.parametrize("code", ["msrr", "mbrr"])
def test_reconstruct_rejects_node_indices_outside_the_cluster(tmp_path, capsys, code):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(range(256)) * 4)
    enc = tmp_path / "data.rarc"
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", code,
        "--n", "50", "--u", "5", "--k", "44", "--d", "4",
        str(src), str(enc),
    )
    assert rc == 0
    out = tmp_path / "o"
    rc, _, err = run_cli(capsys, "reconstruct", "--nodes", "0-50", str(enc), str(out))
    assert rc == 1
    assert "node index 50" in err
    assert not out.exists()
    rc, _, _ = run_cli(capsys, "reconstruct", "--nodes", "0-49", str(enc), str(out))
    assert rc == 0 and out.read_bytes() == src.read_bytes()


@pytest.mark.parametrize(
    "command,message",
    [
        (["reconstruct", "--nodes", "0-2000000"], "2000000 outside [0, "),
        (["reconstruct", "--nodes", "3,2000000-5"], "2000000 outside [0, "),
        (["repair", "--failed", "0,0", "--policy", "1-2000000"], "2000000 outside [0, "),
        (["reconstruct", "--nodes", "0-43,49-45"], "range '49-45' runs high to low"),
    ],
    ids=["nodes", "nodes-range-start", "policy", "nodes-high-to-low"],
)
def test_huge_list_ranges_exit_1_without_expanding(tmp_path, capsys, command, message):
    src = tmp_path / "payload.bin"
    src.write_bytes(bytes(range(256)) * 4)
    enc = tmp_path / "data.rarc"
    args = ["--n", "50", "--u", "5", "--k", "44", "--d", "4"]
    assert run_cli(capsys, "encode", "--code", "mbrr", *args, str(src), str(enc))[0] == 0
    out = tmp_path / "o"
    assert run_cli(capsys, "repair", "--failed", "0,0", str(enc), str(out))[0] == 0  # warm caches
    tracemalloc.start()
    try:
        rc, _, err = run_cli(capsys, *command, str(enc), str(tmp_path / "o2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rc == 1
    assert message in err
    assert not (tmp_path / "o2").exists()


@pytest.mark.parametrize("option", ["--nbar", "--dbar"])
def test_table_rejects_counts_past_the_header_range(capsys, option):
    rc, out, err = run_cli(capsys, "table", option, "4,0-65536")
    assert rc == 1
    assert f"{option[2:]} 65536 outside [0, 65536)" in err
    assert out == ""


def test_table_rejects_grids_past_the_cell_limit(capsys):
    started = time.perf_counter()
    rc, out, err = run_cli(capsys, "table", "--nbar", "0-65535", "--dbar", "0-65535")
    assert time.perf_counter() - started < 1.0
    assert rc == 1
    assert "table grid of 65536 x 65536 cells exceeds 65536" in err
    assert out == ""


@pytest.mark.parametrize("n", [65522, 10**12], ids=["n-65522", "n-1e12"])
def test_encode_rejects_prime_fields_past_16_bits(tmp_path, capsys, n):
    # n = 65522 needs p = 65537, whose symbols and header modulus overflow u16;
    # the field search stops at the limit instead of scanning up to n = 10**12
    src = tmp_path / "payload.bin"
    src.write_bytes(b"payload")
    enc = tmp_path / "data.rarc"
    args = ["--n", str(n), "--u", "2", "--k", str(n - 2), "--d", "1"]
    started = time.perf_counter()
    rc, _, err = run_cli(capsys, "encode", "--code", "mbrr", *args, str(src), str(enc))
    assert time.perf_counter() - started < 1.0
    assert rc == 1
    assert f"no prime p > {n} with 2 | (p - 1) is at most 65536" in err
    assert not enc.exists()


@pytest.mark.parametrize(
    "command", [["reconstruct", "--nodes", "0-1"], ["repair", "--failed", "0,0"]]
)
@pytest.mark.parametrize(
    "code_id,n,k,dbar,p",
    [(0, 3200, 2, 1, 3203), (1, 8000, 7998, 1, 8009), (0, 65520, 65519, 32759, 65521)],
    ids=["msrr-n3200", "mbrr-n8000", "msrr-n65520"],
)
def test_hostile_header_shapes_exit_1_before_building(
    tmp_path, capsys, command, code_id, n, k, dbar, p
):
    # 25 bytes, zero stripes, u=2 over GF(p): fixed maps that would take
    # hours (the msrr row reduction), gigabytes (the mbrr powers), or both
    # (an msrr block-diagonal helper map of dbar x dbar*u = 32759 x 65518
    # cells behind a single check row)
    enc = tmp_path / "hostile.rarc"
    enc.write_bytes(struct.pack("<4sBBHHHHBHQ", b"RARC", 1, code_id, n, 2, k, dbar, 1, p, 0))
    started = time.perf_counter()
    rc, _, err = run_cli(capsys, *command, str(enc), str(tmp_path / "o"))
    assert time.perf_counter() - started < 1.0
    assert rc == 1
    assert "fixed maps cost" in err


@pytest.mark.parametrize(
    "code,at_budget,over",
    [
        ("msrr", (540, 4, 527, 56), (540, 4, 526, 56)),
        ("mbrr", (2048, 2, 1024, 1), (2048, 2, 1025, 1)),
    ],
)
def test_build_budget_edge(tmp_path, capsys, code, at_budget, over):
    # |T|^2 * n + dbar^2 * u = 88^2 * 540 + 56^2 * 4 and n * k * (dbar + 1)
    # = 2048 * 1024 * 2 are exactly the budget, 2**22; one more check row or
    # one more column of M is over it
    src = tmp_path / "payload.bin"
    src.write_bytes(random.Random(5).randbytes(3000))
    for shape, expected in ((at_budget, 0), (over, 1)):
        n, u, k, d = (str(v) for v in shape)
        enc = tmp_path / f"{code}-{k}.rarc"
        rc, _, err = run_cli(
            capsys,
            "encode", "--code", code, "--n", n, "--u", u, "--k", k, "--d", d, str(src), str(enc),
        )
        assert rc == expected
        assert enc.exists() == (expected == 0)
    assert "fixed maps cost" in err and "over 4194304" in err


def test_mbrr_with_many_more_nodes_than_k_round_trips(tmp_path, capsys):
    # n * k * (dbar + 1) = 3000 * 40 * 5 is far inside the build budget, and
    # reconstruct inverts at most k of the n - k = 2960 erasable points
    src, enc, out = tmp_path / "payload.bin", tmp_path / "data.rarc", tmp_path / "payload.out"
    src.write_bytes(random.Random(3000).randbytes(1000))
    rc, _, _ = run_cli(
        capsys, "encode", "--code", "mbrr", "--n", "3000", "--u", "4", "--k", "40", "--d", "4",
        str(src), str(enc),
    )
    assert rc == 0
    for nodes in ("2960-2999", "0,1500-1538", "0-2999"):
        rc, _, _ = run_cli(capsys, "reconstruct", "--nodes", nodes, str(enc), str(out))
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()


@pytest.mark.parametrize(
    "p,stream,payload_len",
    [
        (131, [1, 2, 3, 4, 5, 130], 6),  # an escape is the body's last symbol
        (131, [5, 130, 130, 0, 0, 0], 3),  # an escape followed by an escape
        (131, [130, 126, 0, 0, 0, 0], 1),  # an escape pair above 255
        (307, [7, 300, 0, 0, 0, 0], 2),  # a two-byte symbol above 255
    ],
)
def test_reconstruct_rejects_symbols_no_payload_packs_to(tmp_path, capsys, p, stream, payload_len):
    # a consistent codeword whose data symbols decode to no byte string
    field = PrimeField(p, 2)
    code = MsrrCode.build(SystemParams(n=6, u=2, k=4, dbar=1), field)  # B = 3
    data = np.array(stream, dtype=field.np_dtype).reshape(-1, code.B).T
    body = code.encode_stripes(data).T
    enc = tmp_path / "hostile.rarc"
    enc.write_bytes(serialize_encoded(EncodedFile("msrr", code.params, field, body, payload_len)))
    rc, _, err = run_cli(capsys, "reconstruct", "--nodes", "0-5", str(enc), str(tmp_path / "o"))
    assert rc == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("code", ["msrr", "mbrr"])
@pytest.mark.parametrize("shape", ["50 5 44 4", "132 4 120 4"])
def test_reconstruct_rejects_a_trailer_that_leaves_payload_as_padding(tmp_path, capsys, code, shape):
    # GF(256) at (50,5,44,4) unpacks a byte per symbol, GF(137) at
    # (132,4,120,4) through escape pairs
    n, u, k, d = shape.split()
    payload = bytearray(random.Random(22).randbytes(20_000))
    payload[-1] = 0xC8  # a nonzero last byte, an escape pair over GF(137)
    src, enc, out = tmp_path / "payload.bin", tmp_path / "data.rarc", tmp_path / "payload.out"
    src.write_bytes(payload)
    rc, _, _ = run_cli(
        capsys,
        "encode", "--code", code, "--n", n, "--u", u, "--k", k, "--d", d, str(src), str(enc),
    )
    assert rc == 0
    blob = enc.read_bytes()
    nodes = f"0-{int(n) - 1}"
    # 1,000 bytes are more than a stripe of any of these codes
    for length, message in [(len(payload) - 1, "not zero"), (len(payload) - 1000, "or more")]:
        enc.write_bytes(blob[:-8] + struct.pack("<Q", length))
        rc, _, err = run_cli(capsys, "reconstruct", "--nodes", nodes, str(enc), str(out))
        assert rc == 1
        assert err.startswith("error: ") and message in err
    enc.write_bytes(blob)
    rc, _, _ = run_cli(capsys, "reconstruct", "--nodes", nodes, str(enc), str(out))
    assert rc == 0
    assert out.read_bytes() == payload


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_default_grid_and_check(capsys):
    # the default grid prints the published cells; checking them is selftest's
    rc, out, _ = run_cli(capsys, "table")
    assert rc == 0
    rows = [f for kind, f in parse_report(out) if kind == "table-row"]
    assert len(rows) == 15
    by_key = {(r["nbar"], r["dbar"], r["code"]): r for r in rows}
    assert set(by_key) == set(selftest.PUBLISHED_TABLE)
    for key, (storage_pub, bandwidth_pub) in selftest.PUBLISHED_TABLE.items():
        assert by_key[key]["storage_dec"] == format_thousandths(Fraction(storage_pub)), key
        assert by_key[key]["bandwidth_dec"] == format_thousandths(Fraction(bandwidth_pub)), key
    assert by_key[(20, 4, "mbrr")]["storage"] == Fraction(200, 157)


def test_table_check_option_is_gone(capsys):
    rc, out, err = run_cli(capsys, "table", "--check")
    assert rc == 1
    assert "--check" in err
    assert out == ""


def test_table_near_the_header_limit_runs_in_closed_form(capsys):
    # 300 cells with dbar near 2**16: each cut value is O(1), not O(dbar)
    started = time.perf_counter()
    rc, out, _ = run_cli(
        capsys, "table", "--u", "2", "--nk", "1", "--nbar", "65535", "--dbar", "65235-65534"
    )
    assert time.perf_counter() - started < 1.0
    assert rc == 0
    rows = [f for kind, f in parse_report(out) if kind == "table-row"]
    assert len(rows) == 600
    top = rows[-1]
    assert (top["dbar"], top["code"], top["B"]) == (65534, "mbrr", 65535 * 65534 + 65534 * 65535 // 2)


def test_table_single_cell(capsys):
    rc, out, _ = run_cli(capsys, "table", "--nbar", "10", "--dbar", "4")
    assert rc == 0
    rows = [f for kind, f in parse_report(out) if kind == "table-row"]
    assert {r["code"] for r in rows} == {"msrr", "mbrr"}


def test_table_invalid_cell_noted(capsys):
    rc, out, _ = run_cli(capsys, "table", "--nbar", "2", "--dbar", "0,8")
    assert rc == 0
    assert "# skipped" in out
    rows = [f for kind, f in parse_report(out) if kind == "table-row"]
    assert all(r["dbar"] == 0 for r in rows)


# ---------------------------------------------------------------------------
# selftest and entry point
# ---------------------------------------------------------------------------


def test_selftest_passes(capsys):
    rc, out, _ = run_cli(capsys, "selftest", "--seed", "3")
    assert rc == 0
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_selftest_fails_on_a_published_pair_the_sweep_misses(capsys, monkeypatch):
    cell = (20, 4, "mbrr")
    table = dict(selftest.PUBLISHED_TABLE)
    table[cell] = ("1.275", "1")  # one thousandth above the sweep's 200/157
    monkeypatch.setattr(selftest, "PUBLISHED_TABLE", table)
    rc, out, _ = run_cli(capsys, "selftest")
    assert rc == 2
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL published-table:")
    assert str(cell) in failed[0]


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rarc.cli", "params", "--n", "6", "--u", "2", "--k", "4", "--d", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "record=params" in proc.stdout


def test_usage_errors_map_to_validation_exit(capsys):
    rc, _, err = run_cli(capsys, "encode", "--code", "nope", "a", "b")
    assert rc == 1


def test_one_process_reuses_the_parser_across_calls(tmp_path, capsys):
    src = tmp_path / "payload.bin"
    src.write_bytes(b"reuse" * 40)
    enc = tmp_path / "data.rarc"
    rc, out, _ = run_cli(
        capsys,
        "encode", "--code", "msrr",
        "--n", "10", "--u", "5", "--k", "8", "--d", "1",
        "--field", "gf256", str(src), str(enc),
    )
    assert rc == 0
    assert dict(parse_report(out))["encoded"]["payload_bytes"] == 200
    rc, _, err = run_cli(capsys, "reconstruct", str(enc), str(tmp_path / "o"))  # no --nodes
    assert rc == 1 and "--nodes" in err
    rc, out, _ = run_cli(capsys, "reconstruct", "--nodes", "2-9", str(enc), str(tmp_path / "o"))
    assert rc == 0
    assert dict(parse_report(out))["reconstructed"] == {"nodes": 8, "payload_bytes": 200}
    assert (tmp_path / "o").read_bytes() == src.read_bytes()
    rc, out, _ = run_cli(capsys, "params", "--n", "6", "--u", "2", "--k", "4", "--d", "1")
    assert rc == 0 and dict(parse_report(out))["params"]["nbar"] == 3
    assert cli.build_parser() is cli.build_parser()
