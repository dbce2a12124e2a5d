"""Command-line surface: encode, repair, reconstruct, bounds, and sweeps.

Exit codes: 0 success, 1 validation error, 2 verification failure, 3 IO
error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bulk, selftest
from .errors import ParameterError, VerificationError
from .field import make_field
from .formats import (
    EncodedFile,
    format_thousandths,
    parse_encoded,
    payload_to_symbols,
    render_records,
    serialize_encoded,
    symbols_to_payload,
)
from .params import (
    MBRR,
    MSRR,
    SystemParams,
    cutset_bound,
    overhead_pair,
    sweep_table,
    tradeoff_points,
)
from .sim import Cluster, RepairPolicy


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


#: Exclusive bound on the table's nbar and dbar values: the u16 range of the
#: encoded-file header.
_U16_LIMIT = 1 << 16

#: Most (nbar, dbar) cells one table sweeps.  Every cell costs O(1), so the
#: largest admitted grid (u=2, n-k=1, nbar=65535, dbar 0-65534: 131,070
#: rows) runs in about 5 s end to end on a 2-core VM under Python 3.11.
_TABLE_CELL_LIMIT = 1 << 16


def _parse_int_list(text: str, bound: int, what: str) -> list[int]:
    """Comma-separated integers and ``a-b`` ranges with a <= b, each in
    [0, bound).

    Every value and range end is checked before a range is expanded, so
    the list never holds more than the caller can accept."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        first = int(lo)
        last = int(hi) if sep else first
        for value in (first, last):
            if not 0 <= value < bound:
                raise ParameterError(f"{what} {value} outside [0, {bound})")
        if last < first:
            raise ParameterError(f"{what} range {part!r} runs high to low")
        out.extend(range(first, last + 1))
    if not out:
        raise ParameterError(f"empty list {text!r}")
    return out


def _parse_node(text: str) -> tuple[int, int]:
    try:
        e, g = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"node must be given as E,G: {text!r}") from exc
    return e, g


def _parse_policy(text: str, seed: int | None, nbar: int) -> RepairPolicy:
    if text == "lowest":
        return RepairPolicy.lowest_index()
    if text == "random":
        return RepairPolicy.uniform_random(0 if seed is None else seed)
    return RepairPolicy.explicit(_parse_int_list(text, nbar, "helper rack"))


def _write_record(kind: str, fields: dict) -> None:
    sys.stdout.write(render_records([(kind, fields)]))


def _system_params(args) -> SystemParams:
    return SystemParams(n=args.n, u=args.u, k=args.k, dbar=args.d)


def _overhead_fields(point, p: SystemParams, **after_b) -> dict:
    """A tradeoff point's size and exact and 3-decimal overhead pair, as
    report fields; ``after_b`` goes between B and the pair."""
    storage, bandwidth = overhead_pair(point, p)
    return {
        "alpha": point.alpha,
        "beta": point.beta,
        "B": point.B,
        **after_b,
        "storage": storage,
        "storage_dec": format_thousandths(storage),
        "bandwidth": bandwidth,
        "bandwidth_dec": format_thousandths(bandwidth),
    }


def cmd_params(args) -> int:
    p = _system_params(args)
    head = {"n": p.n, "u": p.u, "k": p.k, "dbar": p.dbar, "nbar": p.nbar, "kbar": p.kbar, "u0": p.u0}
    records = [("params", head)]
    for point in tradeoff_points(p):
        cutset = cutset_bound(p, point.alpha, point.beta)
        records.append(("point", {"code": point.label, **_overhead_fields(point, p, cutset=cutset)}))
    sys.stdout.write(render_records(records))
    return 0


def _encoded_from_payload(args, payload: bytes) -> EncodedFile:
    params = _system_params(args)
    field = make_field(params.n, params.u, args.field)
    code = bulk.build_code(args.code, params, field)
    symbols = payload_to_symbols(field, payload)
    B = code.B
    stripes = -(-symbols.size // B)
    # stripe s is symbols s*B ... s*B + B - 1, zero-padded: column s of a
    # row-major block, which the kernels read without a copy of their own
    data = np.zeros((B, stripes), dtype=field.np_dtype)
    whole, rest = divmod(symbols.size, B)
    data[:, :whole] = symbols[: whole * B].reshape(whole, B).T
    data[:rest, whole:] = symbols[whole * B :, None]
    return EncodedFile(
        code_type=args.code,
        params=params,
        field=field,
        body=code.encode_stripes(data).T,
        payload_len=len(payload),
    )


def cmd_encode(args) -> int:
    payload = Path(args.input).read_bytes()
    ef = _encoded_from_payload(args, payload)
    Path(args.output).write_bytes(serialize_encoded(ef))
    _write_record(
        "encoded",
        {
            "code": ef.code_type,
            "n": ef.params.n,
            "u": ef.params.u,
            "k": ef.params.k,
            "dbar": ef.params.dbar,
            "field": ef.field.kind,
            "stripes": ef.stripes,
            "payload_bytes": ef.payload_len,
        },
    )
    return 0


def _load_encoded(path: str) -> EncodedFile:
    return parse_encoded(Path(path).read_bytes())


def cmd_repair(args) -> int:
    ef = _load_encoded(args.encoded)
    p = ef.params
    failed = _parse_node(args.failed)
    idx = p.node_index(*failed)
    policy = _parse_policy(args.policy, args.seed, p.nbar)
    body = ef.body.copy()
    cluster = Cluster(bulk.build_code(ef.code_type, p, ef.field), body.T)
    stored = body[:, idx * ef.alpha : (idx + 1) * ef.alpha]
    original = stored.copy()
    cluster.fail_node(failed)
    log = cluster.run_repair(policy)
    if not np.array_equal(stored, original):
        raise VerificationError(f"repaired node ({failed[0]},{failed[1]}) differs from stored data")
    Path(args.output).write_bytes(serialize_encoded(replace(ef, body=body)))
    _write_record(
        "traffic",
        {
            "failed": f"{failed[0]},{failed[1]}",
            "stripes": log.stripes,
            "helpers": ",".join(str(h) for h in log.helper_racks) or "none",
            "cross_rack_symbols": log.cross_rack_symbols,
            "intra_rack_symbols": log.intra_rack_symbols,
            "cross_per_stripe": log.cross_per_stripe,
            "intra_per_stripe": log.intra_per_stripe,
            "verified": "yes",
        },
    )
    return 0


def cmd_reconstruct(args) -> int:
    ef = _load_encoded(args.encoded)
    p = ef.params
    field = ef.field
    code = bulk.build_code(ef.code_type, p, field)
    nodes = sorted(set(_parse_int_list(args.nodes, p.n, "node index")))
    alpha = ef.alpha
    rows = ef.body.T[[idx * alpha + i for idx in nodes for i in range(alpha)], :]
    data = code.reconstruct_stripes(nodes, rows)
    payload = symbols_to_payload(field, data.T.reshape(-1), ef.payload_len, stripe=code.B)
    Path(args.output).write_bytes(payload)
    _write_record("reconstructed", {"nodes": len(nodes), "payload_bytes": len(payload)})
    return 0


def cmd_table(args) -> int:
    nbars = _parse_int_list(args.nbar, _U16_LIMIT, "nbar")
    dbars = _parse_int_list(args.dbar, _U16_LIMIT, "dbar")
    if len(nbars) * len(dbars) > _TABLE_CELL_LIMIT:
        raise ParameterError(
            f"table grid of {len(nbars)} x {len(dbars)} cells exceeds {_TABLE_CELL_LIMIT}"
        )
    pairs, notes = sweep_table(args.u, args.nk, nbars, dbars)
    records = [
        (
            "table-row",
            {
                "nbar": p.nbar,
                "dbar": p.dbar,
                "code": point.label,
                "n": p.n,
                "k": p.k,
                **_overhead_fields(point, p),
            },
        )
        for p, point in pairs
    ]
    sys.stdout.write(render_records(records, notes))
    return 0


def cmd_selftest(args) -> int:
    results = selftest.run_all(args.seed if args.seed is not None else 0)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        sys.stdout.write(f"{status} {result.name}: {result.detail}\n")
    return 0 if all(r.passed for r in results) else 2


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``rarc`` parser, built on first use and shared by every later
    call in the process; each parse returns a fresh namespace."""
    parser = _Parser(prog="rarc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--n", type=int, required=True, help="total node count")
        p.add_argument("--u", type=int, required=True, help="nodes per rack")
        p.add_argument("--k", type=int, required=True, help="reconstruction threshold")
        p.add_argument("--d", type=int, required=True, help="helper-rack count")

    sp = sub.add_parser("params", help="derived parameters and tradeoff points")
    add_params(sp)
    sp.set_defaults(func=cmd_params)

    sp = sub.add_parser("encode", help="encode a payload file")
    add_params(sp)
    sp.add_argument("--code", choices=[MSRR, MBRR], required=True)
    sp.add_argument("--field", choices=["auto", "gf256", "prime"], default="auto")
    sp.add_argument("input")
    sp.add_argument("output")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("repair", help="rebuild one node of an encoded file")
    sp.add_argument("--failed", required=True, help="failed node as E,G")
    sp.add_argument("--policy", default="lowest", help="lowest | random | explicit rack list")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("encoded")
    sp.add_argument("output")
    sp.set_defaults(func=cmd_repair)

    sp = sub.add_parser("reconstruct", help="recover the payload from k+ nodes")
    sp.add_argument("--nodes", required=True, help="surviving node indices, e.g. 0-43 or 0,1,5")
    sp.add_argument("encoded")
    sp.add_argument("output")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("table", help="overhead sweep over (nbar, dbar)")
    sp.add_argument("--u", type=int, default=5)
    sp.add_argument("--nk", type=int, default=6, help="fault tolerance n - k")
    sp.add_argument("--nbar", default="10,20,30")
    sp.add_argument("--dbar", default="0,4,8")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("selftest", help="run the built-in verification suites")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except VerificationError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 2
    except ValueError as exc:  # ParameterError, FormatError, bad literals
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
