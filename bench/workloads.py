"""The three benchmark workloads and the independent checks on their outputs.

Every workload is one closed-loop caller: it issues the next call only
after the previous one returned, all in this process.  A workload runs in
rounds; every round attempts the same operations, so the share of failed
operations is the same in every run.  Each timed figure of a round is a
rate over calls that together last well past 100 ms on a 2-core box, and
a run reports the median of its rounds.  The call counts per round give
the six timed figures comparable shares of the round, so that none of
them rests on a small slice of the run.

The checks use values this file computes itself from the paper's formulas
and the documented file format, never saved output of the program.
"""

from __future__ import annotations

import contextlib
import gc
import io
import random
import statistics
import struct
import time
from pathlib import Path

import numpy as np

import rarc
import rarc.cli

CODES = ("msrr", "mbrr")
MB = 1e6

# Encoded-file layout, from the format description: magic, version, code,
# n u k dbar as u16, field kind byte, field modulus u16; 8-byte trailer.
HEADER = struct.Struct("<4sBBHHHHBH")
TRAILER_SIZE = 8
GF256_MODULUS = 0x11D


class HarnessError(RuntimeError):
    """A call the workload cannot continue without failed."""


def _is_prime(m: int) -> bool:
    return m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))


def field_order(n: int, u: int) -> int:
    """The field order the paper's constraints allow: GF(256) when u | 255
    and n < 256, else the smallest prime p > n with u | p - 1."""
    if 255 % u == 0 and n < 256:
        return 256
    p = n + 1
    while not (_is_prime(p) and (p - 1) % u == 0):
        p += 1
    return p


def alpha_beta(code: str, dbar: int) -> tuple[int, int]:
    """Per-node storage and per-helper download, normalised to beta = 1."""
    return (1, 1) if code == "msrr" else (dbar, 1)


def file_size_B(code: str, k: int, u: int, dbar: int) -> int:
    """Stripe size in symbols: k - kbar + dbar (minimum storage) or
    (k - kbar)*dbar + dbar*(dbar+1)/2 (minimum bandwidth)."""
    kbar = k // u
    if code == "msrr":
        return k - kbar + dbar
    return (k - kbar) * dbar + dbar * (dbar + 1) // 2


def cutset_bound(n: int, u: int, k: int, dbar: int, alpha: int, beta: int) -> int:
    """B* = (k - kbar)*alpha + sum_{i=1..min(kbar,dbar)} min((dbar-i+1)*beta, alpha)."""
    kbar = k // u
    total = (k - kbar) * alpha
    for i in range(1, min(kbar, dbar) + 1):
        total += min((dbar - i + 1) * beta, alpha)
    return total


def _median_rate(rounds: list[dict], code: str, op: str) -> float:
    return statistics.median(r[code][op][0] / r[code][op][1] / MB for r in rounds)


class Workload:
    """Common round bookkeeping; subclasses define ``setup`` and ``round``."""

    name = "?"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds: list[dict] = []

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(what)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        out = {}
        for code in CODES:
            for op in ("encode", "repair", "reconstruct"):
                out[f"{code}.{op}_mbps"] = (_median_rate(self.rounds, code, op), "MB/s")
            out[f"{code}.stored_bytes_per_byte"] = (
                statistics.median(r[code]["stored"] for r in self.rounds),
                "B/B",
            )
        return out


# -- file pipeline through rarc.cli.main -----------------------------------------


class FileWorkload(Workload):
    """encode -> single-node repairs -> degraded reconstruct, per code,
    through ``rarc.cli.main`` on a seeded random payload."""

    n = u = k = dbar = 0
    payload_bytes = 0
    smoke_payload_bytes = 0
    # calls per code per round, chosen so that every timed figure gets a
    # comparable share of the round
    encodes: dict[str, int] = {}
    repairs: dict[str, int] = {}
    reconstructs: dict[str, int] = {}
    # Nodes (e, g) whose bytes are overwritten before a repair is asked for.
    # Fixed, so these operations are the same in every run and every seed.
    damaged: tuple[tuple[int, int], ...] = ()

    def setup(self) -> None:
        size = self.smoke_payload_bytes if self.smoke else self.payload_bytes
        self.payload = self.rng.randbytes(size)
        self.payload_path = self.workdir / "payload.bin"
        self.payload_path.write_bytes(self.payload)
        self.q = field_order(self.n, self.u)
        if self.q < 256:
            escapes = int(np.count_nonzero(np.frombuffer(self.payload, np.uint8) >= self.q - 1))
        else:
            escapes = 0
        self.symbols = len(self.payload) + escapes
        # The program's own set-up for these parameters, as every CLI call does it.
        params = rarc.SystemParams(n=self.n, u=self.u, k=self.k, dbar=self.dbar)
        field = rarc.make_field(self.n, self.u, "auto")
        rarc.MsrrCode.build(params, field)
        rarc.MbrrCode.build(params, field)

    def cli(self, argv: list[str]) -> tuple[int, float]:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = rarc.cli.main(argv)
        return rc, time.perf_counter() - start

    def expected_size(self, code: str) -> int:
        alpha, _ = alpha_beta(code, self.dbar)
        B = file_size_B(code, self.k, self.u, self.dbar)
        stripes = -(-self.symbols // B)
        width = 1 if self.q <= 256 else 2
        return HEADER.size + stripes * self.n * alpha * width + TRAILER_SIZE

    def check_encoded(self, code: str, data: bytes) -> None:
        self.check(len(data) == self.expected_size(code),
                   f"{code}: encoded size {len(data)} != {self.expected_size(code)}")
        magic, _version, code_id, n, u, k, dbar, kind, modulus = HEADER.unpack_from(data)
        want_kind, want_mod = (0, GF256_MODULUS) if self.q == 256 else (1, self.q)
        self.check(
            (magic, code_id, n, u, k, dbar, kind, modulus)
            == (b"RARC", CODES.index(code), self.n, self.u, self.k, self.dbar, want_kind, want_mod),
            f"{code}: header fields do not match the request",
        )

    def damage(self, code: str, data: bytes, node: tuple[int, int]) -> bytes:
        """Copy of an encoded file with every symbol of ``node`` XORed by 0x11."""
        alpha, _ = alpha_beta(code, self.dbar)
        buf = np.frombuffer(data, np.uint8).copy()
        body = buf[HEADER.size : len(buf) - TRAILER_SIZE].reshape(-1, self.n * alpha)
        idx = node[0] * self.u + node[1]
        body[:, idx * alpha : (idx + 1) * alpha] ^= 0x11
        return buf.tobytes()

    def round(self) -> None:
        record = {}
        wd = self.workdir
        for code in CODES:
            enc, rep, out = wd / f"{code}.rarc", wd / f"{code}.rep.rarc", wd / f"{code}.out"
            enc_s = 0.0
            for _ in range(self.encodes[code]):
                rc, dt = self.cli(
                    ["encode", "--code", code, "--n", str(self.n), "--u", str(self.u),
                     "--k", str(self.k), "--d", str(self.dbar), str(self.payload_path), str(enc)]
                )
                self.attempted += 1
                if rc != 0:
                    raise HarnessError(f"{code} encode exited {rc}")
                enc_s += dt
                encoded = enc.read_bytes()
                self.check_encoded(code, encoded)

            repair_s = 0.0
            for _ in range(self.repairs[code]):
                e, g = divmod(self.rng.randrange(self.n), self.u)
                policy_seed = self.rng.randrange(1 << 31)
                rc, dt = self.cli(["repair", "--failed", f"{e},{g}", "--policy", "random",
                                   "--seed", str(policy_seed), str(enc), str(rep)])
                self.attempted += 1
                if rc != 0:
                    raise HarnessError(f"{code} repair of ({e},{g}) exited {rc}")
                repair_s += dt
                self.check(rep.read_bytes() == encoded, f"{code}: repair of ({e},{g}) changed the file")

            for e, g in self.damaged:
                bad = wd / f"{code}.bad.rarc"
                bad.write_bytes(self.damage(code, encoded, (e, g)))
                rc, _ = self.cli(["repair", "--failed", f"{e},{g}", str(bad), str(rep)])
                self.attempted += 1
                if rc == 0:
                    self.check(rep.read_bytes() == encoded,
                               f"{code}: repair of damaged ({e},{g}) is not the original node")
                else:
                    self.failed += 1
                    self.check(rc == 2, f"{code}: repair of damaged ({e},{g}) exited {rc}")

            rec_s = 0.0
            for _ in range(self.reconstructs[code]):
                nodes = sorted(self.rng.sample(range(self.n), self.k))
                rc, dt = self.cli(["reconstruct", "--nodes", ",".join(map(str, nodes)),
                                   str(enc), str(out)])
                self.attempted += 1
                if rc != 0:
                    raise HarnessError(f"{code} reconstruct exited {rc}")
                rec_s += dt
                self.check(out.read_bytes() == self.payload, f"{code}: reconstructed payload differs")

            size = len(self.payload)
            record[code] = {
                "encode": (size * self.encodes[code], enc_s),
                "repair": (size * self.repairs[code], repair_s),
                "reconstruct": (size * self.reconstructs[code], rec_s),
                "stored": len(encoded) / size,
            }
        self.rounds.append(record)


class FileGf256(FileWorkload):
    name = "file_gf256"
    n, u, k, dbar = 50, 5, 44, 4
    payload_bytes = 2 << 20
    smoke_payload_bytes = 3000
    encodes = {"msrr": 1, "mbrr": 1}
    repairs = {"msrr": 30, "mbrr": 24}
    reconstructs = {"msrr": 1, "mbrr": 1}
    damaged = ((3, 2), (7, 0))


class FilePrime(FileWorkload):
    name = "file_prime"
    n, u, k, dbar = 132, 4, 120, 4
    payload_bytes = 320 << 10
    smoke_payload_bytes = 3000
    encodes = {"msrr": 4, "mbrr": 3}
    repairs = {"msrr": 6, "mbrr": 120}
    reconstructs = {"msrr": 3, "mbrr": 1}


# -- single-stripe cycles through rarc.sim.Cluster ---------------------------------


class ClusterStripes(Workload):
    """store -> (fail_node -> run_repair) x r -> scalar reconstruct for the
    stripes of a round, on one ``Cluster`` per stripe.  Each step runs for
    all the round's stripes before the next step starts, so every timed
    figure is one contiguous stretch of calls.  The repair count r and the
    number of stripes reconstructed give every figure a comparable share of
    the round: one MBRR repair costs a fifteenth of its reconstruct, one
    store a fifth (MSRR) or a third (MBRR) of a reconstruct."""

    name = "cluster_stripes"
    n, u, k, dbar = 50, 5, 44, 4
    stripes = {"msrr": 4000, "mbrr": 200}
    # fail -> repair steps per stripe between its store and its reconstruct
    repairs = {"msrr": 1, "mbrr": 8}
    # stripes of the batch reconstructed at the end of the round
    reconstructs = {"msrr": 1200, "mbrr": 90}

    def setup(self) -> None:
        self.params = rarc.SystemParams(n=self.n, u=self.u, k=self.k, dbar=self.dbar)
        field = rarc.make_field(self.n, self.u, "gf256")
        self.codes = {
            "msrr": rarc.MsrrCode.build(self.params, field),
            "mbrr": rarc.MbrrCode.build(self.params, field),
        }
        count = {code: 3 if self.smoke else self.stripes[code] for code in CODES}
        self.rec_count = {code: 2 if self.smoke else self.reconstructs[code] for code in CODES}
        self.clusters = {code: [rarc.Cluster(c) for _ in range(count[code])]
                         for code, c in self.codes.items()}
        self.B = {code: file_size_B(code, self.k, self.u, self.dbar) for code in CODES}
        for code in CODES:
            alpha, beta = alpha_beta(code, self.dbar)
            self.check(self.codes[code].B == self.B[code], f"{code}: B differs from the formula")
            self.check(cutset_bound(self.n, self.u, self.k, self.dbar, alpha, beta) == self.B[code],
                       f"{code}: B does not meet the cut-set bound")

    def round(self) -> None:
        record = {}
        rng = self.rng
        for code in CODES:
            clusters, code_obj, B = self.clusters[code], self.codes[code], self.B[code]
            alpha, beta = alpha_beta(code, self.dbar)
            count = len(clusters)
            stripes = [list(rng.randbytes(B)) for _ in range(count)]
            # keep the harness's own objects out of the collector's scans
            gc.freeze()
            start = time.perf_counter()
            for cluster, data in zip(clusters, stripes):
                cluster.store(data)
            store_s = time.perf_counter() - start
            stored = sum(len(clusters[0].node_data(i)) for i in range(self.n)) / B

            repair_s = 0.0
            for _ in range(self.repairs[code]):
                failed = [rng.randrange(self.n) for _ in range(count)]
                before = [cluster.node_data(idx) for cluster, idx in zip(clusters, failed)]
                for cluster, idx in zip(clusters, failed):
                    cluster.fail_node(divmod(idx, self.u))
                policies = [rarc.RepairPolicy.uniform_random(rng.randrange(1 << 31))
                            for _ in range(count)]
                gc.freeze()
                start = time.perf_counter()
                logs = [cluster.run_repair(policy) for cluster, policy in zip(clusters, policies)]
                repair_s += time.perf_counter() - start
                for cluster, idx, old, log in zip(clusters, failed, before, logs):
                    self.check(cluster.node_data(idx) == old, f"{code}: repaired node {idx} differs")
                    cross, intra = log.cross_rack_symbols, log.intra_rack_symbols
                    self.check(cross == self.dbar * beta and intra == (self.u - 1) * alpha,
                               f"{code}: traffic cross={cross} intra={intra}")
                    self.check(cutset_bound(self.n, self.u, self.k, self.dbar, alpha,
                                            cross // self.dbar) == B,
                               f"{code}: measured repair download misses the cut-set bound")

            avails = []
            for cluster in clusters[: self.rec_count[code]]:
                nodes = sorted(rng.sample(range(self.n), self.k))
                if code == "msrr":
                    avails.append([(i, cluster.node_data(i)[0]) for i in nodes])
                else:
                    avails.append([(i, cluster.node_data(i)) for i in nodes])
            gc.freeze()
            start = time.perf_counter()
            got = [code_obj.reconstruct(avail) for avail in avails]
            rec_s = time.perf_counter() - start
            for out, data in zip(got, stripes):
                self.check(list(out) == data, f"{code}: reconstructed stripe differs")
            self.attempted += (1 + self.repairs[code]) * count + len(avails)
            record[code] = {
                "encode": (B * count, store_s),
                "repair": (B * count * self.repairs[code], repair_s),
                "reconstruct": (B * len(avails), rec_s),
                "stored": stored,
            }
        self.rounds.append(record)


WORKLOADS = {w.name: w for w in (FileGf256, FilePrime, ClusterStripes)}
