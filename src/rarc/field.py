"""Finite fields with the rack-structured evaluation-point family.

Symbols are ints in ``[0, q - 1]``, held in arrays of ``np_dtype``.  A
field object carries the rack size ``u``, the smallest primitive element
``xi`` (the smallest element whose powers reach every nonzero element),
``eta = xi**((q - 1)/u)`` of multiplicative order exactly ``u``, and two
read-only tables: ``exp[i] = xi**i`` for i < q - 1 and ``log``, its
inverse on the nonzero elements.  The evaluation points

    lam[e * u + g] = xi**e * eta**g = xi**(e + g*(q - 1)/u)

are pairwise distinct and nonzero whenever ``q > n``, and satisfy
``lam**u == xi**(e*u)`` independent of ``g`` -- the identity every repair
path in this package leans on.  Every constant the codes derive is a power
of ``xi``, so they are built as arithmetic on exponents.

The arithmetic is on arrays only: ``np_add``, ``np_neg``, ``np_mul``,
``np_inv``, ``np_matmul`` and the powers ``np_exp``.  The scalar reference
arithmetic the tests check them against lives in ``tests/field_oracle.py``.

Two concrete fields are provided: GF(256) under the classic Reed-Solomon
modulus, and prime fields GF(p).  ``make_field`` picks a legal field for a
given cluster shape.
"""

from __future__ import annotations

import functools

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


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m, by trial division."""
    factors, r = [], 2
    while r * r <= m:
        if m % r == 0:
            factors.append(r)
            while m % r == 0:
                m //= r
        r += 1
    if m > 1:
        factors.append(m)
    return factors


def _is_prime(m: int) -> bool:
    return _prime_factors(m) == [m]


class FieldSpec:
    """Base class: the product comes from subclasses, the tables and
    structure live here.

    Attributes: ``kind``, ``modulus``, ``q``, ``u``, ``xi``, ``eta``,
    ``exp``, ``log``.
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
        order = self.q - 1
        self.xi = self._smallest_primitive()
        # exp[L:2L] = exp[:L] * xi**L, doubling L
        exp = np.ones(order, dtype=self.np_dtype)
        step, size = self.np_dtype(self.xi), 1
        while size < order:
            exp[size : 2 * size] = self.np_mul(exp[: min(size, order - size)], step)
            step, size = self.np_mul(step, step), 2 * size
        log = np.zeros(self.q, dtype=np.intp)  # log[0] is a placeholder
        log[exp] = np.arange(order)
        # one field object serves every caller in the process
        for arr in (exp, log):
            arr.setflags(write=False)
        self.exp, self.log = exp, log
        self.eta = int(exp[order // u])

    def _smallest_primitive(self) -> int:
        # a has order q - 1 exactly when a**((q-1)/r) != 1 for every prime r
        # dividing q - 1: square-and-multiply over the candidates in blocks
        # [2, 4), [4, 8), ..., so the search costs about as much as the last
        order = self.q - 1
        cofactors = np.array([order // r for r in _prime_factors(order)])[:, None]
        start = 2
        while start < self.q:
            base = np.arange(start, min(2 * start, self.q)).astype(self.np_dtype)
            power = np.ones((cofactors.size, base.size), dtype=self.np_dtype)
            bits = cofactors
            while bits.any():
                power = np.where(bits & 1, self.np_mul(power, base), power)
                base, bits = self.np_mul(base, base), bits >> 1
            primitive = (power != 1).all(axis=0)
            if primitive.any():
                return start + int(primitive.argmax())
            start *= 2
        raise ParameterError("no primitive element found; arithmetic is broken")

    # -- serialization and array arithmetic ---------------------------------

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

    def np_exp(self, e):
        """xi**e for integers (arrays) e of any sign: exp[e mod (q - 1)]."""
        return self.exp[np.mod(e, self.q - 1)]

    def np_inv(self, a):
        """Elementwise inverse, exp[-log a]; ``ZeroDivisionError`` if any
        entry is zero."""
        a = np.asarray(a)
        if not a.all():
            raise ZeroDivisionError("inverse of zero")
        return self.exp[-self.log[a]]

    def np_add(self, a, b):
        raise NotImplementedError

    def np_neg(self, a):
        raise NotImplementedError

    def np_mul(self, a, b):
        raise NotImplementedError

    def np_matmul(self, a, b):
        raise NotImplementedError


class Gf256Field(FieldSpec):
    """GF(2^8) under ``GF256_MODULUS``, multiplying through a product table."""

    kind = "gf256"
    modulus = GF256_MODULUS
    q = 256

    def __init__(self, u: int):
        # 256x256 product table by one carry-less multiply of every pair:
        # a * b is the XOR of a * x**i over the set bits i of b, and a * x**i
        # doubles a i times under the modulus.  Row and column 0 are zero,
        # so batched products need no special-casing.
        b = np.arange(256, dtype=np.uint16)
        shifted = b.copy()  # a * x**i for every a
        table = np.zeros((256, 256), dtype=np.uint16)
        for i in range(8):
            table ^= shifted[:, None] * ((b >> i) & 1)
            shifted = (shifted << 1) ^ (shifted >> 7) * GF256_MODULUS
        self._mul_table = table.astype(np.uint8)
        self._mul_table.setflags(write=False)
        super().__init__(u)

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
    """GF(p) for a prime p, in integer arithmetic reduced mod p."""

    kind = "prime"

    def __init__(self, p: int, u: int):
        if p > _PRIME_LIMIT:
            raise ParameterError(f"prime field size {p} exceeds {_PRIME_LIMIT}")
        if not _is_prime(p):
            raise ParameterError(f"{p} is not prime")
        self.modulus = p
        self.q = p
        super().__init__(u)

    def np_add(self, a, b):
        # a + b < 2p: one conditional subtract, the smaller of the sum and
        # the sum less p, which wraps past it in uint32 when below p
        s = np.asarray(a, dtype=np.uint32) + np.asarray(b, dtype=np.uint32)
        return np.minimum(s, np.subtract(s, self.q)).astype(self.np_dtype)

    def np_neg(self, a):
        # p - a lies in [1, p], and p - a - p wraps past it unless a = 0
        s = np.subtract(self.q, np.asarray(a, dtype=self.np_dtype))
        return np.minimum(s, np.subtract(s, self.q))

    def np_mul(self, a, b):
        # (p - 1)**2 < 2**32 for p < 2**16; reduced as x - (x // p) * p, which
        # numpy divides by a scalar through a multiply and shift
        x = np.asarray(a, dtype=np.uint32) * np.asarray(b, dtype=np.uint32)
        x -= x // self.q * self.q
        return x.astype(self.np_dtype)

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


def eval_points(field: FieldSpec, nbar: int) -> np.ndarray:
    """The n = nbar * u evaluation points lam[e*u+g] = xi**e * eta**g, one
    gather of xi**(e + g*(q-1)/u), read-only.

    All points are nonzero.  They are pairwise distinct exactly when those
    exponents are, that is when nbar <= (q - 1)/u; a duplicate means the
    field is too small for the cluster and is reported as such.
    """
    u = field.u
    stride = (field.q - 1) // u
    if nbar > stride:
        raise ParameterError(
            f"evaluation points collide for nbar={nbar}, u={u} over q={field.q}"
        )
    lam = field.np_exp(np.arange(nbar)[:, None] + stride * np.arange(u)).ravel()
    lam.setflags(write=False)
    return lam


def rack_points(field: FieldSpec, nbar: int) -> np.ndarray:
    """The nbar rack points x_e = xi**(e*u), each the u-th power of every
    evaluation point of rack e, read-only."""
    x = field.np_exp(field.u * np.arange(nbar))
    x.setflags(write=False)
    return x
