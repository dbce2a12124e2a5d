"""Exact dense linear algebra over a finite field.

Codes derive their fixed linear maps with the routines here: the
Vandermonde inverse, Lagrange weights, and exact inversion and
independence sweeps at build time.  All arithmetic is exact; results
substitute back into their systems with equality, never within a
tolerance.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import SingularSystemError


class Matrix:
    """Dense row-major matrix of field symbols (plain ints)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int] | None = None):
        if entries is None:
            entries = [0] * (rows * cols)
        else:
            entries = list(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat: list[int] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(r, c, flat)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls(n, n)
        for i in range(n):
            m.entries[i * n + i] = 1
        return m

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def put(self, i: int, j: int, value: int) -> None:
        self.entries[i * self.cols + j] = value

    def row(self, i: int) -> list[int]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> list[int]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def take_columns(self, cols: Sequence[int]) -> "Matrix":
        out = Matrix(self.rows, len(cols))
        for i in range(self.rows):
            base = i * self.cols
            for jj, j in enumerate(cols):
                out.entries[i * len(cols) + jj] = self.entries[base + j]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def dot(F, a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def mat_vec(F, A: Matrix, x: Sequence[int]) -> list[int]:
    if len(x) != A.cols:
        raise ValueError("dimension mismatch")
    return [dot(F, A.row(i), x) for i in range(A.rows)]


def mat_mul(F, A: Matrix, B: Matrix) -> Matrix:
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    out = Matrix(A.rows, B.cols)
    for i in range(A.rows):
        arow = A.row(i)
        for j in range(B.cols):
            acc = 0
            for t in range(A.cols):
                acc = F.add(acc, F.mul(arow[t], B.entries[t * B.cols + j]))
            out.entries[i * B.cols + j] = acc
    return out


def _eliminate(F, aug: list[list[int]], cols: int) -> int:
    """Forward elimination with first-nonzero pivoting; returns pivot count."""
    m = len(aug)
    piv = 0
    for col in range(cols):
        sel = -1
        for r in range(piv, m):
            if aug[r][col] != 0:
                sel = r
                break
        if sel < 0:
            continue
        aug[piv], aug[sel] = aug[sel], aug[piv]
        inv = F.inv(aug[piv][col])
        aug[piv] = [F.mul(v, inv) for v in aug[piv]]
        for r in range(m):
            if r != piv and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [F.sub(av, F.mul(f, pv)) for av, pv in zip(aug[r], aug[piv])]
        piv += 1
        if piv == m:
            break
    return piv


def invert(F, A: Matrix) -> Matrix:
    if A.rows != A.cols:
        raise SingularSystemError("only square matrices invert")
    n = A.rows
    aug = [A.row(i) + Matrix.identity(n).row(i) for i in range(n)]
    piv = _eliminate(F, aug, n)
    if piv < n:
        raise SingularSystemError("singular matrix")
    return Matrix.from_rows([row[n:] for row in aug])


def independent_prefix(F, vectors: Iterable[Sequence[int]], limit: int) -> list[int]:
    """Indices of the vectors a left-to-right independence sweep keeps.

    A vector is kept when it is independent of the vectors kept before
    it; the sweep stops once ``limit`` are kept.  Each kept vector is
    stored reduced, with a unit entry at a lead index that is zero in
    every later kept vector, so one pass over the kept list reduces a new
    vector completely.
    """
    kept: list[int] = []
    reduced: list[tuple[int, list[int]]] = []  # (lead index, unit-lead vector)
    for idx, v in enumerate(vectors):
        if len(kept) == limit:
            break
        for lead, vec in reduced:
            if v[lead] != 0:
                f = v[lead]
                v = [F.sub(a, F.mul(f, b)) for a, b in zip(v, vec)]
        lead = next((i for i, a in enumerate(v) if a != 0), -1)
        if lead < 0:
            continue
        inv = F.inv(v[lead])
        reduced.append((lead, [F.mul(a, inv) for a in v]))
        kept.append(idx)
    return kept


def poly_eval(F, coeffs: Sequence[int], x: int) -> int:
    """Evaluate a lowest-degree-first coefficient list at x (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _check_points(points: Sequence[int]) -> None:
    if len(set(points)) != len(points):
        raise SingularSystemError("duplicate interpolation points")


def vandermonde_inverse(F, points: Sequence[int]) -> np.ndarray:
    """Inverse of the m x m Vandermonde matrix V[i][j] = points[i]**j.

    Column i holds the coefficients of the i-th Lagrange basis polynomial
    prod_{j != i} (X - x_j) / prod_{j != i} (x_i - x_j), so ``V^-1 @ y``
    interpolates y at the points.  The master polynomial prod_i (X - x_i)
    is built once and deflated by every (X - x_i) at once with synthetic
    division from the top (Bjorck and Pereyra, Math. Comp. 24, 1970):
    O(m) elementwise array steps over all points, exact, and returned as
    an array of ``F.np_dtype``.
    """
    _check_points(points)
    m = len(points)
    x = np.array(points, dtype=F.np_dtype)
    neg = F.np_neg(x)
    root = np.zeros(m + 1, dtype=F.np_dtype)  # lowest degree first
    root[0] = 1
    for c in neg:
        step = F.np_mul(root, c)  # root * (X - x_i)
        step[1:] = F.np_add(step[1:], root[:-1])
        root = step
    # num[j, i] is the X**j coefficient of root / (X - x_i)
    num = np.empty((m, m), dtype=F.np_dtype)
    if m:
        num[m - 1] = root[m]
    for j in range(m - 1, 0, -1):
        num[j - 1] = F.np_add(F.np_mul(num[j], x), root[j])
    # prod_{j != i} (x_i - x_j), multiplying the columns of the difference
    # table together pairwise
    diff = F.np_add(x[:, None], neg[None, :])
    np.fill_diagonal(diff, 1)
    while diff.shape[1] > 1:
        half = diff.shape[1] // 2
        paired = F.np_mul(diff[:, :half], diff[:, half : 2 * half])
        diff = np.concatenate([paired, diff[:, 2 * half :]], axis=1)
    scale = np.array([F.inv(d) for d in diff[:, :1].ravel().tolist()], dtype=F.np_dtype)
    return F.np_mul(num, scale[None, :])


def lagrange_leading_weights(F, points: Sequence[int]) -> list[int]:
    """Per-point weights w_g = 1 / prod_{g' != g} (x_g - x_{g'}).

    The leading coefficient of the interpolating polynomial is
    ``sum_g y_g * w_g``, so a holder of the y values can produce it as a
    single linear combination of what it stores.
    """
    _check_points(points)
    weights = []
    for i, xi in enumerate(points):
        prod = 1
        for j, xj in enumerate(points):
            if j != i:
                prod = F.mul(prod, F.sub(xi, xj))
        weights.append(F.inv(prod))
    return weights


def lagrange_eval_weights(F, points: Sequence[int], x0: int) -> list[int]:
    """Weights L_g(x0) with interp(x0) = sum_g y_g * L_g(x0)."""
    _check_points(points)
    out = []
    for i, xi in enumerate(points):
        num, den = 1, 1
        for j, xj in enumerate(points):
            if j != i:
                num = F.mul(num, F.sub(x0, xj))
                den = F.mul(den, F.sub(xi, xj))
        out.append(F.div(num, den))
    return out

