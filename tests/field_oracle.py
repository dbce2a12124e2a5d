"""Reference scalar field arithmetic on Python ints, for the tests.

It shares nothing with the production tables: GF(256) multiplies by
carry-less "Russian peasant" steps reduced mod x^8 + x^4 + x^3 + x^2 + 1
(0x11D) and adds by XOR, prime fields compute with ``%`` and
``pow(a, -1, p)``.  A field of at most 256 elements has every sum,
product, negative and inverse listed once from that arithmetic, so its
oracle costs a list lookup per operation.  Inputs may be numpy integer
scalars: the lists are indexed with them, and larger prime fields read
them as Python ints first, since numpy arithmetic on uint16 would wrap.
"""

from __future__ import annotations

import functools

GF256_MODULUS = 0x11D


def clmul(a: int, b: int) -> int:
    """a * b in GF(256): carry-less multiply, reduced mod 0x11D."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= GF256_MODULUS
    return r


class PrimeOracle:
    """GF(p) by Python's modular integer arithmetic."""

    def __init__(self, p: int):
        self.q = p

    def add(self, a, b):
        return (int(a) + int(b)) % self.q

    def sub(self, a, b):
        return (int(a) - int(b)) % self.q

    def neg(self, a):
        return -int(a) % self.q

    def mul(self, a, b):
        return int(a) * int(b) % self.q

    def inv(self, a):
        if int(a) % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(int(a), -1, self.q)

    def pow(self, a, e):
        if e < 0:
            raise ValueError("negative exponent; invert explicitly")
        return pow(int(a), e, self.q)

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class Gf256Sums:
    """The sums, negatives and products of GF(2^8) that ``MemoOracle``
    lists: XOR, identity and the carry-less product."""

    q = 256

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        return clmul(a, b)


class MemoOracle(PrimeOracle):
    """The field of ``base``, at most 256 elements, with its sums, products,
    negatives and inverses listed once."""

    def __init__(self, base):
        q = self.q = base.q
        self._sums = [[base.add(a, b) for b in range(q)] for a in range(q)]
        self._products = [[base.mul(a, b) for b in range(q)] for a in range(q)]
        self._negatives = [base.neg(a) for a in range(q)]
        self._inverses = [None] + [row.index(1) for row in self._products[1:]]

    def add(self, a, b):
        return self._sums[a][b]

    def sub(self, a, b):
        return self._sums[a][self._negatives[b]]

    def neg(self, a):
        return self._negatives[a]

    def mul(self, a, b):
        return self._products[a][b]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return self._inverses[a]

    def pow(self, a, e):
        if e < 0:
            raise ValueError("negative exponent; invert explicitly")
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a, e = self.mul(a, a), e >> 1
        return acc


@functools.lru_cache(maxsize=None)
def _oracle(q: int) -> PrimeOracle:
    base = Gf256Sums() if q == 256 else PrimeOracle(q)
    return MemoOracle(base) if q <= 256 else base


def oracle(field) -> PrimeOracle:
    """The reference arithmetic of ``field``'s order: anything with ``q``."""
    return _oracle(field.q)


def order(O: PrimeOracle, a: int) -> int:
    """Multiplicative order of the nonzero a, by repeated multiplication."""
    x, m = int(a), 1
    while x != 1:
        x = O.mul(x, a)
        m += 1
    return m


def smallest_primitive(O: PrimeOracle) -> int:
    """The smallest element whose powers reach every nonzero element."""
    return next(a for a in range(2, O.q) if order(O, a) == O.q - 1)
