"""Finite fields with the rack-structured evaluation-point family.

Symbols are plain ints in ``[0, q - 1]``.  A field object carries the rack
size ``u`` together with a primitive element ``xi`` and an element ``eta``
of multiplicative order exactly ``u``.  The evaluation points

    lam[e * u + g] = xi**e * eta**g     (e = rack index, g = slot in rack)

are pairwise distinct and nonzero whenever ``q > n``, and satisfy
``lam**u == xi**(e*u)`` independent of ``g`` -- the identity every repair
path in this package leans on.

Two concrete fields are provided: GF(256) under the classic Reed-Solomon
modulus, and prime fields GF(p).  ``make_field`` picks a legal field for a
given cluster shape.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError

#: x^8 + x^4 + x^3 + x^2 + 1, a standard irreducible modulus for GF(2^8).
GF256_MODULUS = 0x11D

#: Largest prime-field size: symbols are stored as uint16, and the
#: encoded-file header keeps the modulus in 16 bits.
_PRIME_LIMIT = 1 << 16

#: Most work one code build may take, checked on the parameters before
#: anything is allocated: |T|^2 * n steps for the minimum-storage row
#: reduction plus the dbar * dbar * u cells of its block-diagonal helper
#: map, n * k cells for the minimum-bandwidth powers plus the n * k * dbar
#: multiply-adds of one stripe through their product.  File headers reach
#: n = 65535, where the unchecked builds or repairs run for hours or
#: exhaust memory.
_BUILD_BUDGET = 1 << 22

#: Outputs per pass of the prime-field matmul: 256 KiB of float32 and of
#: int32, or 512 KiB of float64 and of int64.  At 2 MiB the temporaries came
#: from freshly faulted pages or from reused heap depending on what the
#: process had freed before (glibc's dynamic mmap threshold), so throughput
#: depended on call history.
_PRIME_SLICE = 1 << 16

#: Widest right-hand side the GF(256) matmul multiplies by table gathers;
#: wider ones go through the bit-sliced kernel, eight symbols per uint64
#: word.  The gather costs about the same per product at every width, the
#: bit-sliced kernel about the same per set bit of the matrix up to a few
#: thousand columns, so the two cross near one width for every matrix the
#: codes use: about 1,450 columns for the 10 x 40 MSRR parity rows at
#: (50,5,44,4), whose entries have 3 set bits on average, 1,800-2,500 for
#: the 44 x 44 MBRR inverse, the 4 x 80 MBRR helper map and the 6 x 44
#: MSRR syndrome rows, 2,500 and more for the 10 x 9 rack maps W_r, the
#: 4 x 20 MSRR helper map and the 5 x 5 twiddle (2-core VM, both kernels
#: called in turn, best of 15).  The split sits just above the parity
#: rows' crossover: every MSRR encode runs them.
_GF256_NARROW = 1536

#: Products per pass of the GF(256) gather: 512 KiB of table indices once
#: ``take`` widens them to intp.  A pass takes whole rows of as many
#: columns as fit, so a long inner axis splits the columns too.
_GF256_GATHER = 1 << 16

#: Fields kept per process, keyed by (kind, modulus, u).
_FIELD_CACHE_SIZE = 16


def _gf2_mul(a: int, b: int) -> int:
    # Carry-less "Russian peasant" multiply, reduced mod GF256_MODULUS.
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= GF256_MODULUS
    return r


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    i = 3
    while i * i <= m:
        if m % i == 0:
            return False
        i += 2
    return True


def multiplicative_order(field, a: int) -> int:
    """Smallest m >= 1 with a**m == 1.  Raises for the zero element."""
    if a == 0:
        raise ParameterError("the zero element has no multiplicative order")
    x = a
    for m in range(1, field.q + 1):
        if x == 1:
            return m
        x = field.mul(x, a)
    raise ParameterError("element order exceeds group size; arithmetic is broken")


def find_primitive(field) -> int:
    """Smallest element of multiplicative order q - 1.

    ``field`` only needs ``q`` and ``mul``; brute-force order checks keep the
    selection deterministic and assumption-free.
    """
    if field.q == 2:
        return 1
    for g in range(2, field.q):
        if multiplicative_order(field, g) == field.q - 1:
            return g
    raise ParameterError("no primitive element found; arithmetic is broken")


def derive_eta(field, u: int) -> int:
    """xi**((q-1)/u), verified to have multiplicative order exactly u."""
    if u < 1 or (field.q - 1) % u != 0:
        raise ParameterError(f"u={u} does not divide q-1={field.q - 1}")
    eta = field.pow(field.xi, (field.q - 1) // u)
    if multiplicative_order(field, eta) != u:
        raise ParameterError("derived eta does not have order u; arithmetic is broken")
    return eta


class FieldSpec:
    """Base class: arithmetic comes from subclasses, structure lives here.

    Attributes: ``kind``, ``modulus``, ``q``, ``u``, ``xi``, ``eta``.
    """

    kind: str = "abstract"
    modulus: int = 0
    q: int = 0

    def __init__(self, u: int):
        if u < 2:
            raise ParameterError("rack size u must be at least 2")
        if (self.q - 1) % u != 0:
            raise ParameterError(f"u={u} does not divide q-1={self.q - 1}")
        self.u = u
        self.xi = find_primitive(self)
        self.eta = derive_eta(self, u)

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def pow(self, a: int, e: int) -> int:
        raise NotImplementedError

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- serialization and batch kernels ------------------------------------

    @property
    def symbol_width(self) -> int:
        """Bytes per serialized symbol: little-endian, minimal width."""
        return 1 if self.q <= 256 else 2

    @property
    def np_dtype(self):
        return np.uint8 if self.q <= 256 else np.uint16

    def symbol_array(self, values) -> np.ndarray:
        """``values`` as an array of ``np_dtype``.

        Raises ``ParameterError`` unless every value is an integer in
        ``[0, q - 1]``: a plain cast would wrap a negative or oversized
        value into some other symbol.
        """
        arr = np.asarray(values)
        if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= self.q):
            raise ParameterError(f"symbols must be integers in [0, {self.q - 1}]")
        return arr.astype(self.np_dtype)

    def np_add(self, a, b):
        raise NotImplementedError

    def np_neg(self, a):
        raise NotImplementedError

    def np_mul(self, a, b):
        raise NotImplementedError

    def np_matmul(self, a, b):
        raise NotImplementedError


class Gf256Field(FieldSpec):
    """GF(2^8) under ``GF256_MODULUS`` with log/exp table arithmetic."""

    kind = "gf256"
    modulus = GF256_MODULUS
    q = 256

    def __init__(self, u: int):
        # Locate the smallest primitive element with raw carry-less
        # multiplication, then base the log/exp tables on it.
        base = find_primitive(SimpleNamespace(q=256, mul=_gf2_mul))
        exp = [0] * 510
        log = [0] * 256
        x = 1
        for i in range(255):
            exp[i] = x
            log[x] = i
            x = _gf2_mul(x, base)
        exp[255:510] = exp[0:255]
        self._exp = exp
        self._log = log
        self._np_exp = np.array(exp, dtype=np.uint8)
        self._np_log = np.array(log, dtype=np.int64)
        # 256x256 product table: row/column 0 are zero, so batched products
        # need no special-casing.
        idx = (self._np_log[:, None] + self._np_log[None, :]) % 255
        table = self._np_exp[idx]
        table[0, :] = 0
        table[:, 0] = 0
        self._mul_table = table
        # one field object serves every caller in the process
        for arr in (self._np_exp, self._np_log, table):
            arr.setflags(write=False)
        super().__init__(u)

    def add(self, a, b):
        return a ^ b

    def sub(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[255 - self._log[a]]

    def pow(self, a, e):
        if e < 0:
            raise ParameterError("negative exponent; invert explicitly")
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % 255]

    def np_add(self, a, b):
        return np.bitwise_xor(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))

    def np_neg(self, a):
        return np.asarray(a, dtype=np.uint8).copy()

    def np_mul(self, a, b):
        return self._mul_table[np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)]

    def np_matmul(self, a, b):
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if b.shape[1] <= _GF256_NARROW:
            return self._gather_matmul(a, b)
        return self._bitsliced_matmul(a, b)

    def _bitsliced_matmul(self, a, b):
        # Multiplying by a constant is GF(2)-linear, so the rows of ``b`` are
        # read as uint64 words of eight symbols and a[r, j] * b[j] runs by
        # Horner over the bits of a[r, j], top bit first: XOR in every b[j]
        # whose a[r, j] has the current bit set, then multiply the whole
        # accumulator by x in every byte lane at once (Anvin, "The
        # mathematics of RAID-6", 2007).
        n = b.shape[1]
        if n % 8 or not b.flags.c_contiguous:
            padded = np.zeros((b.shape[0], -(-n // 8) * 8), dtype=np.uint8)
            padded[:, :n] = b
            b = padded
        words = list(b.view(np.uint64))
        acc = np.zeros((a.shape[0], b.shape[1] // 8), dtype=np.uint64)
        rows = list(acc)
        carry = np.empty_like(acc)
        low = np.uint64(0x0101010101010101)
        high = np.uint64(0xFEFEFEFEFEFEFEFE)
        reduce = np.uint64(GF256_MODULUS & 0xFF)
        top = int(a.max(initial=0)).bit_length()
        for bit in range(top - 1, -1, -1):
            for r, j in np.argwhere((a >> bit) & 1).tolist():
                np.bitwise_xor(rows[r], words[j], out=rows[r])
            if bit:
                np.right_shift(acc, 7, out=carry)
                carry &= low
                carry *= reduce
                acc <<= 1
                acc &= high
                acc ^= carry
        return acc.view(np.uint8)[:, :n]

    def _gather_matmul(self, a, b):
        # Every product a[r, j] * b[j, c] is one lookup in the flattened
        # product table at (a << 8) | b, and an XOR-reduce over j sums them.
        # numpy reduces an outer axis a whole contiguous row at a time but
        # the innermost one output at a time, so the products are laid out
        # (row, j, column) when a block has at least as many columns as j
        # has terms and (row, column, j) otherwise.  Blocks of rows and
        # columns take at most _GF256_GATHER products at a time.
        flat = self._mul_table.ravel()
        rows, inner = a.shape
        width = b.shape[1]
        out = np.empty((rows, width), dtype=np.uint8)
        cols = max(1, min(width, _GF256_GATHER // max(1, inner)))
        step = max(1, _GF256_GATHER // max(1, inner * cols))
        high = a.astype(np.uint16) << 8
        if cols >= inner:
            high, low, axis = high[:, :, None], b[None], 1
        else:
            high, low, axis = high[:, None, :], b.T[None], 2
        if cols == width and step >= rows:  # one block, as for a single stripe
            np.bitwise_xor.reduce(flat.take(high | low), axis=axis, out=out)
            return out
        for c in range(0, width, cols):
            part = low[:, :, c : c + cols] if axis == 1 else low[:, c : c + cols]
            for r in range(0, rows, step):
                products = flat.take(high[r : r + step] | part)
                np.bitwise_xor.reduce(products, axis=axis, out=out[r : r + step, c : c + cols])
        return out

    def __repr__(self):
        return f"Gf256Field(u={self.u})"


class PrimeField(FieldSpec):
    """GF(p) for a prime p, with native modular arithmetic."""

    kind = "prime"

    def __init__(self, p: int, u: int):
        if p > _PRIME_LIMIT:
            raise ParameterError(f"prime field size {p} exceeds {_PRIME_LIMIT}")
        if not _is_prime(p):
            raise ParameterError(f"{p} is not prime")
        self.modulus = p
        self.q = p
        super().__init__(u)

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def pow(self, a, e):
        if e < 0:
            raise ParameterError("negative exponent; invert explicitly")
        return pow(a, e, self.q)

    def np_add(self, a, b):
        out = (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.q
        return out.astype(self.np_dtype)

    def np_neg(self, a):
        out = (self.q - np.asarray(a, dtype=np.int64)) % self.q
        return out.astype(self.np_dtype)

    def np_mul(self, a, b):
        out = (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.q
        return out.astype(self.np_dtype)

    def np_matmul(self, a, b):
        # BLAS sums symbol products exactly while every partial sum is an
        # integer the float holds: up to 2**24 in float32, 2**53 in float64,
        # with each product at most (p-1)**2.  float32 (sgemm) takes the
        # product whenever the whole inner axis fits, which at p = 137 is up
        # to 907 terms; otherwise float64 sums it in blocks of
        # 2**53 // (p-1)**2 terms.  Each sum is reduced mod p in int32 or
        # int64 as x - (x // p) * p: numpy divides by a scalar through a
        # multiply and shift, where its remainder divides.  Columns go
        # through in slices of about _PRIME_SLICE outputs, which bounds the
        # temporaries.
        q = self.q
        square = (q - 1) ** 2
        inner = np.shape(a)[1]
        if inner * square <= 1 << 24:
            real, whole, block = np.float32, np.int32, max(1, inner)
        else:
            real, whole, block = np.float64, np.int64, (1 << 53) // square
        a = np.asarray(a, dtype=real)
        b = np.asarray(b)
        width = max(1, _PRIME_SLICE // max(1, a.shape[0]))
        out = np.empty((a.shape[0], b.shape[1]), dtype=self.np_dtype)
        for c in range(0, b.shape[1], width):
            cols = b[:, c : c + width].astype(real)
            for s in range(0, max(1, inner), block):
                part = (a[:, s : s + block] @ cols[s : s + block]).astype(whole)
                acc = part if s == 0 else acc + part
                quotient = acc // q
                quotient *= q
                acc -= quotient
            out[:, c : c + width] = acc
        return out

    def __repr__(self):
        return f"PrimeField(p={self.q}, u={self.u})"


def smallest_prime_field(n: int, u: int) -> int:
    """Smallest prime p > n with u | (p - 1), searched only up to the
    symbol limit: a larger p would overflow the uint16 symbols."""
    for p in range(n + 1, _PRIME_LIMIT + 1):
        if _is_prime(p) and (p - 1) % u == 0:
            return p
    raise ParameterError(f"no prime p > {n} with {u} | (p - 1) is at most {_PRIME_LIMIT}")


def make_field(n: int, u: int, preference: str = "auto") -> FieldSpec:
    """Pick a field for an n-node cluster with racks of size u.

    Both codes need ``u | (q - 1)`` and ``q > n``.  GF(256) qualifies only
    when ``u | 255`` and ``n < 256``; the prime fallback is the smallest
    prime ``p > n`` with ``u | (p - 1)``.  ``auto`` prefers GF(256) when it
    is legal, keeping symbols byte-sized.
    """
    if n < 2:
        raise ParameterError("need at least two nodes")
    if u < 2:
        raise ParameterError("rack size u must be at least 2")
    if n % u != 0:
        raise ParameterError(f"rack size u={u} does not divide node count n={n}")
    gf256_ok = (255 % u == 0) and n < 256
    if preference == "gf256":
        if not gf256_ok:
            raise ParameterError(
                f"GF(256) is not legal for n={n}, u={u}: need u | 255 and n < 256"
            )
        return _cached_field("gf256", GF256_MODULUS, u)
    if preference not in ("prime", "auto"):
        raise ParameterError(f"unknown field preference {preference!r}")
    if preference == "auto" and gf256_ok:
        return _cached_field("gf256", GF256_MODULUS, u)
    return _cached_field("prime", smallest_prime_field(n, u), u)


def field_from_descriptor(kind: str, modulus: int, u: int) -> FieldSpec:
    """Rebuild a field from its serialized (kind, modulus) descriptor."""
    if kind == "gf256":
        if modulus != GF256_MODULUS:
            raise ParameterError(f"unsupported GF(256) modulus {modulus:#x}")
    elif kind != "prime":
        raise ParameterError(f"unknown field kind {kind!r}")
    return _cached_field(kind, modulus, u)


@functools.lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _cached_field(kind: str, modulus: int, u: int) -> FieldSpec:
    """The one field object per (kind, modulus, u) in this process."""
    if kind == "gf256":
        return Gf256Field(u)
    return PrimeField(modulus, u)


def eval_points(field: FieldSpec, nbar: int) -> list[int]:
    """The n = nbar * u evaluation points lam[e*u+g] = xi**e * eta**g.

    All points are nonzero and pairwise distinct; a duplicate means the
    field is too small for the cluster and is reported as such.
    """
    u = field.u
    lam = []
    for e in range(nbar):
        xe = field.pow(field.xi, e)
        for g in range(u):
            lam.append(field.mul(xe, field.pow(field.eta, g)))
    if 0 in lam or len(set(lam)) != len(lam):
        raise ParameterError(
            f"evaluation points collide for nbar={nbar}, u={u} over q={field.q}"
        )
    return lam

